"""Lumped-element model of the nanowire readout loop.

Covers the post-click current dynamics in the nanowire, the voltage pulse
seen across the load resistor, the band-limited amplifier chain (a cascaded
biquad band-pass), and the bias-perturbation kernel that couples the readout
transient back onto the effective bias current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PrecisionError

# Grid fine enough to resolve the sub-ns current drop with the default
# constants (fall constant ~0.1 ns).
DEFAULT_SAMPLE_PERIOD = 0.025e-9

# The stated grid requirement is sample_period <= fall_constant / 4; a 1%
# slack keeps the documented 0.025 ns default valid when the fall constant
# works out to 0.0995 ns.
_GRID_SLACK = 1.01


@dataclass(frozen=True)
class CircuitParams:
    """Electrical constants of the nanowire / readout loop (SI units)."""

    kinetic_inductance: float          # H
    hotspot_resistance: float          # ohm
    load_resistance: float             # ohm
    bias_current: float                # A
    critical_current: float            # A
    amplifier_gain_db: float = 56.0
    hotspot_duration: float = 1e-9     # s, lifetime of the resistive segment

    def __post_init__(self):
        for name in (
            "kinetic_inductance",
            "hotspot_resistance",
            "load_resistance",
            "bias_current",
            "critical_current",
            "hotspot_duration",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        # bias_current >= critical_current is representable on purpose: an
        # over-biased detector exists physically (relaxation oscillations),
        # it is just not a valid operating point.

    @property
    def recovery_tau(self) -> float:
        """Current-recovery time constant L_k / R_L."""
        return self.kinetic_inductance / self.load_resistance

    @property
    def fall_tau(self) -> float:
        """Current-drop time constant L_k / (R_n + R_L)."""
        return self.kinetic_inductance / (self.hotspot_resistance + self.load_resistance)

    @property
    def resistive_branch_current(self) -> float:
        """Steady-state nanowire current while the hotspot persists."""
        return (
            self.bias_current
            * self.load_resistance
            / (self.hotspot_resistance + self.load_resistance)
        )

    @property
    def hotspot_end_current(self) -> float:
        """Nanowire current at the instant the hotspot heals."""
        i_ss = self.resistive_branch_current
        return i_ss + (self.bias_current - i_ss) * math.exp(
            -self.hotspot_duration / self.fall_tau
        )

    @property
    def settle_time(self) -> float:
        """Time after a click from which the float recovery law returns
        exactly I_b.

        The exponential term (I_b - I_end) * exp(-(t - t_hs)/tau) is then at
        most an eighth of ulp(I_b). I_b - term rounds back to I_b while the
        term is below half the float spacing just under I_b, which is a
        quarter ulp when I_b is a power of two; the factor two to spare
        absorbs the rounding of exp and of the product."""
        deficit = self.bias_current - self.hotspot_end_current
        eighth_ulp = 0.125 * math.ulp(self.bias_current)
        return self.hotspot_duration + self.recovery_tau * max(
            math.log(deficit / eighth_ulp), 0.0
        )

    @property
    def amplifier_gain(self) -> float:
        return 10.0 ** (self.amplifier_gain_db / 20.0)


@dataclass(frozen=True, eq=False)
class Waveform:
    """Uniformly sampled trace (volts or amperes)."""

    samples: np.ndarray
    sample_period: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_period <= 0:
            raise ConfigError("sample_period must be strictly positive")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ConfigError("samples must be a non-empty 1-D sequence")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size * self.sample_period

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.sample_period


def waveform_table(wave: Waveform):
    """Schema: time_s,value (full double precision)"""
    return "time_s,value", zip(wave.times, wave.samples)


def nanowire_current(params: CircuitParams, t):
    """Nanowire current at time `t` (seconds) after a click.

    Two-phase response: while the hotspot persists the current decays from
    I_b toward the resistive-branch value with the fall constant
    L_k/(R_n+R_L); afterwards it recovers toward I_b with tau = L_k/R_L.
    Accepts a scalar or an array; negative times are a domain error.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ConfigError("time since click must be non-negative")
    i_b = params.bias_current
    i_ss = params.resistive_branch_current
    t_hs = params.hotspot_duration
    falling = i_ss + (i_b - i_ss) * np.exp(-np.minimum(t, t_hs) / params.fall_tau)
    recovering = i_b - (i_b - params.hotspot_end_current) * np.exp(
        -np.maximum(t - t_hs, 0.0) / params.recovery_tau
    )
    out = np.where(t <= t_hs, falling, recovering)
    return float(out) if out.ndim == 0 else out


def _check_grid(params: CircuitParams, sample_period: float) -> None:
    required = params.fall_tau / 4.0
    if sample_period > required * _GRID_SLACK:
        raise PrecisionError(
            f"sample_period {sample_period:.3e} s does not resolve the current "
            f"fall time; need sample_period <= {required:.3e} s"
        )


def readout_pulse(
    params: CircuitParams,
    sample_period: float = DEFAULT_SAMPLE_PERIOD,
    duration: float = 2e-6,
    click_time: float = 0.0,
    cascade: "BiquadCascade | None" = None,
) -> Waveform:
    """The detection pulse as it appears at the discriminator.

    Negative-going (the observed polarity), amplified by the chain gain and
    optionally shaped by a band-pass cascade.
    """
    _check_grid(params, sample_period)
    if click_time < 0:
        raise ConfigError("click_time must be non-negative")
    t = np.arange(int(round(duration / sample_period))) * sample_period
    v = np.zeros_like(t)
    after = t >= click_time
    v[after] = -(
        params.bias_current - nanowire_current(params, t[after] - click_time)
    ) * params.load_resistance * params.amplifier_gain
    wave = Waveform(v, sample_period)
    if cascade is not None:
        wave = apply_filter(cascade, wave)
    return wave


@dataclass(frozen=True)
class FilterSpec:
    """Band-pass specification: even order, cascaded as biquad sections."""

    order: int
    passband_low: float       # Hz
    passband_high: float      # Hz

    def __post_init__(self):
        if self.order < 2 or self.order % 2 != 0:
            raise ConfigError("filter order must be even and >= 2")
        if not 0 < self.passband_low < self.passband_high:
            raise ConfigError("need 0 < passband_low < passband_high")


@dataclass(frozen=True, eq=False)
class BiquadCascade:
    """Discrete-time second-order sections tied to a design sample period."""

    sos: np.ndarray           # (n_sections, 6), rows (b0, b1, b2, 1, a1, a2)
    sample_period: float


def design_bandpass(spec: FilterSpec, sample_period: float) -> BiquadCascade:
    """Butterworth band-pass realized by bilinear transform with prewarped
    band edges, returned as cascaded second-order sections.

    The steps and their floating-point operations are those of SciPy's
    `signal.butter(spec.order // 2, band, "bandpass", output="sos", fs=...)`,
    so the sections equal SciPy's bit for bit (the tests check this).
    Poles are paired into sections by SciPy's default "nearest" rule: the
    pole nearest the unit circle is taken first, with its conjugate (a real
    pole with the real pole next nearest the unit circle), and given the
    nearest two of the remaining zeros; the first section pulled out comes
    last in the cascade, and the overall gain goes into the first.
    """
    if sample_period <= 0:
        raise ConfigError("sample_period must be strictly positive")
    nyquist = 0.5 / sample_period
    if spec.passband_high >= nyquist:
        raise ConfigError(
            f"passband_high {spec.passband_high:.3e} Hz is at or above the "
            f"Nyquist frequency {nyquist:.3e} Hz"
        )
    n = spec.order // 2
    fs = 1.0 / sample_period
    # prewarped band edges, for the bilinear transform at fs = 2
    band = np.array([spec.passband_low, spec.passband_high]) / (fs / 2)
    warped = 4.0 * np.tan(np.pi * band / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # analog low-pass prototype poles, shifted to +-wo (the band-pass
    # transform), which leaves n zeros at s = 0 and n at infinity
    prototype = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=np.float64) / (2 * n))
    p_lp = prototype * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    analog = np.concatenate((p_lp + root, p_lp - root))
    # bilinear transform at fs = 2, s -> 4 (z - 1) / (z + 1): the zeros at
    # s = 0 go to z = 1, those at infinity to z = -1
    gain = bw**n * np.real(4.0**n / np.prod(4.0 - analog))
    zeros = np.repeat([-1.0, 1.0], n)
    poles = np.concatenate(_conjugate_halves((4.0 + analog) / (4.0 - analog)))
    # Every zero is real, so SciPy's nearest zero and nearest real zero are
    # the same pick, and real poles come in pairs (both roots of one real
    # prototype pole, or a pair within the realness tolerance), so its
    # cases for a lone real pole or a lone real zero never arise.
    sos = np.zeros((n, 6))
    for section in range(n - 1, -1, -1):
        i = _nearest_unit_circle(poles)
        p1 = poles[i]
        poles = np.delete(poles, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(poles))
            j = real[_nearest_unit_circle(poles[real])]
            p2 = poles[j]
            poles = np.delete(poles, j)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            j = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[j])
            zeros = np.delete(zeros, j)
        sos[section, :3] = _poly(np.array(pair))
        sos[section, 3:] = _poly(np.array([p1, p2]))
    sos[0, :3] *= gain
    return BiquadCascade(sos, sample_period)


def _nearest_unit_circle(poles: np.ndarray) -> int:
    return int(np.argmin(np.abs(1 - np.abs(poles))))


def _conjugate_halves(z: np.ndarray):
    """SciPy's `_cplxreal`: the upper half of each conjugate pair (the pair
    averaged), sorted by real part and then imaginary part, and the real
    values (imaginary part within 100 eps of the modulus), sorted."""
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real = abs(z.imag) <= tol * abs(z)
    zr = z[real].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    # runs of (nearly) equal real part are sorted by imaginary part
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    edges = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(edges > 0)[0], np.nonzero(edges < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, zr


def _poly(roots: np.ndarray) -> np.ndarray:
    """Real polynomial coefficients of conjugate-closed roots, one
    convolution per root in the order SciPy's `zpk2tf` takes them."""
    coeffs = np.ones(1, dtype=roots.dtype)
    for root in roots:
        coeffs = np.convolve(coeffs, np.array([1, -root], dtype=roots.dtype))
    return coeffs.real


def apply_filter(cascade: BiquadCascade, wave: Waveform) -> Waveform:
    """Causal filtering from rest; output keeps the input's length and grid.

    Each section in turn runs over the whole signal in transposed direct
    form II, with the operations of SciPy's `sosfilt` in the same order, so
    the output equals it bit for bit.
    """
    if not math.isclose(cascade.sample_period, wave.sample_period, rel_tol=1e-9):
        raise ConfigError(
            f"waveform sample period {wave.sample_period:.3e} s does not match "
            f"the filter design period {cascade.sample_period:.3e} s"
        )
    x = wave.samples.tolist()
    for b0, b1, b2, _, a1, a2 in cascade.sos.tolist():
        y = []
        append = y.append
        s1 = s2 = 0.0
        for xn in x:
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            append(yn)
        x = y
    return Waveform(np.array(x), wave.sample_period)


@dataclass(frozen=True, eq=False)
class PerturbationKernel:
    """Additive bias-current transient following a click, sampled vs time
    since the click. Zero outside the sampled support."""

    samples: np.ndarray       # amperes
    sample_period: float

    def __post_init__(self):
        # a read-only copy: a model keeps tables built from the samples
        samples = np.array(self.samples, dtype=np.float64)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.sample_period <= 0:
            raise ConfigError("kernel sample_period must be strictly positive")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ConfigError("kernel needs at least two samples")

    @property
    def duration(self) -> float:
        return (self.samples.size - 1) * self.sample_period

    @property
    def peak(self) -> float:
        return float(np.max(self.samples, initial=0.0))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.sample_period

    def value(self, dt):
        """Kernel amplitude `dt` seconds after a click (0 outside support)."""
        return np.interp(dt, self.times, self.samples, left=0.0, right=0.0)

    def max_remaining(self) -> np.ndarray:
        """For each sample index i, max of the positive part over [i:].

        This table bounds future kernel contributions and only ever decays.
        `simulate` lifts the newest click's thinning envelope by it for each
        older live kernel.
        """
        positive = np.maximum(self.samples, 0.0)
        return np.maximum.accumulate(positive[::-1])[::-1]


MAX_KERNEL_DURATION = 2e-6


def gaussian_kernel(
    amplitude: float,
    center: float = 180e-9,
    width: float = 40e-9,
    sample_period: float = 1e-9,
    extent: float = 5.0,
) -> PerturbationKernel:
    """Parametric Gaussian bump peaking `center` seconds after a click."""
    if not 0.0 <= amplitude < math.inf:
        raise ConfigError(f"kernel amplitude must be finite and non-negative, got {amplitude!r}")
    if not (width > 0 and center >= 0):
        raise ConfigError("kernel width must be positive and center non-negative")
    span = min(center + extent * width, MAX_KERNEL_DURATION)
    n = max(int(round(span / sample_period)) + 1, 2)
    # math.exp per sample: NumPy's SIMD exp gives different bits at
    # different dispatch levels, and the engine reads these samples
    z = ((t - center) / width for t in (np.arange(n) * sample_period).tolist())
    return PerturbationKernel([amplitude * math.exp(-0.5 * (x * x)) for x in z], sample_period)


def overshoot_kernel(
    filtered_pulse: Waveform,
    peak_amplitude: float | None = None,
    amps_per_volt: float | None = None,
    time_offset: float = 0.0,
) -> PerturbationKernel:
    """Bias perturbation derived from a filtered detection pulse.

    Takes the pulse residual after its first zero crossing past the main
    (negative) lobe and converts volts to an equivalent bias current, either
    by pinning the residual peak to `peak_amplitude` or with an explicit
    `amps_per_volt` coupling. `time_offset` shifts the kernel to model the
    lag between the readout transient and the current in the wire; one that
    moves the residual's first sample before the click is refused.
    """
    if (peak_amplitude is None) == (amps_per_volt is None):
        raise ConfigError("give exactly one of peak_amplitude / amps_per_volt")
    if peak_amplitude is not None and peak_amplitude < 0:
        raise ConfigError("peak_amplitude must be non-negative")
    sp = filtered_pulse.sample_period
    v = filtered_pulse.samples
    imin = int(np.argmin(v))
    after = v[imin:]
    crossings = np.nonzero((after[:-1] < 0) & (after[1:] >= 0))[0]
    n_zero = max(int(round(MAX_KERNEL_DURATION / sp)) + 1, 2)
    if v[imin] >= 0 or len(crossings) == 0:
        return PerturbationKernel(np.zeros(n_zero), sp)
    start = imin + int(crossings[0]) + 1
    residual = after[int(crossings[0]) + 1 :]
    if peak_amplitude is not None:
        top = float(np.max(residual, initial=0.0))
        if top <= 0.0:
            return PerturbationKernel(np.zeros(n_zero), sp)
        scale = peak_amplitude / top
    else:
        scale = amps_per_volt
    lead = int(round((start * sp + time_offset) / sp))
    if lead < 0:
        raise ConfigError(f"time_offset {time_offset!r} s moves the kernel's first sample before the click")
    samples = np.concatenate([np.zeros(lead), residual * scale])
    if (samples.size - 1) * sp > MAX_KERNEL_DURATION:
        samples = samples[: int(round(MAX_KERNEL_DURATION / sp)) + 1]
    if samples.size < 2:
        samples = np.concatenate([samples, [0.0]])
    return PerturbationKernel(samples, sp)


def amplifier_kernel(
    params: CircuitParams,
    spec: FilterSpec,
    sample_period: float = DEFAULT_SAMPLE_PERIOD,
    pulse_duration: float = 2e-6,
    **scale,
) -> PerturbationKernel:
    """Bias perturbation of a click read out through the amplifier band
    `spec`: the readout pulse through the band-pass design of `spec`, then
    `overshoot_kernel(pulse, **scale)`."""
    cascade = design_bandpass(spec, sample_period)
    pulse = readout_pulse(params, sample_period, pulse_duration, cascade=cascade)
    return overshoot_kernel(pulse, **scale)
