"""Event-level click-stream simulation.

Dark counts follow an inhomogeneous Poisson process whose rate tracks the
effective bias current; laser pulses detect with a Poissonian photon model;
every click feeds a bias-perturbation kernel back into the effective bias,
which is what produces afterpulsing, and the current recovery after a click
is what produces the dead time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import MAX_KERNEL_DURATION, CircuitParams, PerturbationKernel, nanowire_current
from .errors import ConfigError, SimulationError, StreamValidationError

PS_PER_SECOND = 1e12
INT64_MAX = 2**63 - 1

MODE_NONE = "none"
MODE_PERIODIC = "periodic"
MODE_DOUBLE_PULSE = "double-pulse"

LATCH_NONE = "none"
LATCH_PERMANENT = "permanent-until-reset"

# deterministic work counters the engine reports under metadata["engine"]
ENGINE_COUNTERS = (
    "uniforms", "pulses_evaluated", "pulses_skipped", "coincidences_dropped", "crossings"
)

# the proposals a kernel segment may be expected to waste per click before
# the segment builder closes it: finer segments cost more crossings, coarser
# ones more proposals. The time per dark click at 25.0-25.2 uA is flat from
# 0.025 to 0.06, for the profile kernel and the band-pass ones alike
# (CPython 3.11, 2-core Xeon VM)
SEGMENT_WASTE = 0.04


@dataclass(frozen=True)
class RateModel:
    """Bias-dependent dark rate and detection efficiency.

    Both laws are exponentials in the bias current around `reference_bias`;
    efficiency saturates at `efficiency_max`.
    """

    dark_rate_ref: float         # counts/s at reference_bias
    dark_rate_slope: float       # 1/A
    efficiency_max: float
    efficiency_slope: float      # 1/A
    reference_bias: float        # A

    def __post_init__(self):
        if self.dark_rate_ref < 0:
            raise ConfigError("dark_rate_ref must be non-negative")
        if not 0.0 <= self.efficiency_max <= 1.0:
            raise ConfigError("efficiency_max must lie in [0, 1]")
        if self.dark_rate_slope < 0 or self.efficiency_slope < 0:
            raise ConfigError("rate slopes must be non-negative")
        if self.reference_bias <= 0:
            raise ConfigError("reference_bias must be strictly positive")

    def dark_rate(self, bias):
        return self.dark_rate_ref * np.exp(self.dark_rate_slope * (np.asarray(bias) - self.reference_bias))

    def efficiency(self, bias):
        raw = self.efficiency_max * np.exp(self.efficiency_slope * (np.asarray(bias) - self.reference_bias))
        return np.minimum(self.efficiency_max, raw)


@dataclass(frozen=True)
class DetectorModel:
    circuit: CircuitParams
    rates: RateModel
    kernel: PerturbationKernel | None = None
    shunt_enabled: bool = True
    latch_policy: str = LATCH_NONE

    def __post_init__(self):
        if self.latch_policy not in (LATCH_NONE, LATCH_PERMANENT):
            raise ConfigError(f"unknown latch_policy {self.latch_policy!r}")
        if self.kernel is not None and self.kernel.duration > MAX_KERNEL_DURATION * (1 + 1e-9):
            raise ConfigError("kernel duration must not exceed 2 us")

    @functools.cached_property
    def _tables(self) -> "_KernelTables | None":
        # the thinning tables are constants of the model, which is frozen,
        # so they are built on its first run and kept for every later one
        return _kernel_tables(self)

    @property
    def can_latch(self) -> bool:
        # the shunt diverts the current and prevents latching outright
        return self.latch_policy == LATCH_PERMANENT and not self.shunt_enabled

    def describe(self) -> dict:
        c, r = self.circuit, self.rates
        return {
            "bias_a": c.bias_current,
            "critical_a": c.critical_current,
            "kinetic_inductance_h": c.kinetic_inductance,
            "hotspot_resistance_ohm": c.hotspot_resistance,
            "load_resistance_ohm": c.load_resistance,
            "dark_rate_ref_cps": r.dark_rate_ref,
            "dark_rate_slope_per_a": r.dark_rate_slope,
            "efficiency_max": r.efficiency_max,
            "efficiency_slope_per_a": r.efficiency_slope,
            "reference_bias_a": r.reference_bias,
            "kernel_peak_a": 0.0 if self.kernel is None else self.kernel.peak,
            "shunt_enabled": self.shunt_enabled,
            "latch_policy": self.latch_policy,
        }


def whole_ps(ps: float, name: str) -> int:
    """The time `name`, in ps, rounded to whole ps: the package's one rounding
    rule from seconds. A time beyond int64 ps, or not finite, has no timestamp."""
    if not -INT64_MAX <= ps <= INT64_MAX:
        raise ConfigError(f"{name}: {ps!r} ps is beyond the int64 timestamp range")
    return round(ps)


@dataclass(frozen=True)
class StimulusConfig:
    mode: str = MODE_NONE
    rate: float = 0.0             # Hz, periodic mode
    mean_photons: float = 0.0     # photons per pulse
    separation: float = 0.0       # s, double-pulse mode
    window: float = 2e-6          # s, double-pulse frame length

    def __post_init__(self):
        if self.mode not in (MODE_NONE, MODE_PERIODIC, MODE_DOUBLE_PULSE):
            raise ConfigError(f"unknown stimulus mode {self.mode!r}")
        if self.mean_photons < 0:
            raise ConfigError("mean_photons must be non-negative")
        # pulse times are whole ps, so each time is checked once rounded
        if self.mode == MODE_PERIODIC and not (self.rate > 0 and self.period_ps >= 1):
            raise ConfigError(
                f"periodic stimulus needs a period of at least 1 ps, got rate {self.rate!r} Hz"
            )
        if self.mode == MODE_DOUBLE_PULSE:
            if self.window_ps < 1:
                raise ConfigError(f"double-pulse window must be at least 1 ps, got {self.window!r} s")
            if not 0 < self.separation_ps < self.window_ps:
                raise ConfigError(
                    f"double-pulse separation must round to 1 ps or more and stay below "
                    f"the {self.window_ps} ps window, got {self.separation!r} s"
                )

    @property
    def period_ps(self) -> int:
        return whole_ps(PS_PER_SECOND / self.rate, "pulse period")

    @property
    def window_ps(self) -> int:
        return whole_ps(self.window * PS_PER_SECOND, "window")

    @property
    def separation_ps(self) -> int:
        return whole_ps(self.separation * PS_PER_SECOND, "separation")

    @classmethod
    def none(cls) -> "StimulusConfig":
        return cls()

    @classmethod
    def periodic(cls, rate: float, mean_photons: float) -> "StimulusConfig":
        return cls(mode=MODE_PERIODIC, rate=rate, mean_photons=mean_photons)

    @classmethod
    def double_pulse(
        cls, separation: float, mean_photons: float, window: float = 2e-6
    ) -> "StimulusConfig":
        return cls(
            mode=MODE_DOUBLE_PULSE,
            separation=separation,
            mean_photons=mean_photons,
            window=window,
        )

    def describe(self) -> dict:
        out = {"stimulus_mode": self.mode}
        if self.mode == MODE_PERIODIC:
            out["rate_hz"] = self.rate
            out["mean_photons"] = self.mean_photons
        elif self.mode == MODE_DOUBLE_PULSE:
            out["separation_ps"] = self.separation_ps
            out["window_ps"] = self.window_ps
            out["mean_photons"] = self.mean_photons
        return out


@dataclass(frozen=True)
class StimulusTrain:
    """Optical pulse times plus the trigger reference channel, in ps.

    For double-pulse frames the sync channel carries only the first pulse of
    each pair, which is the time reference the window analyses expect.
    """

    pulse_times_ps: np.ndarray
    sync_times_ps: np.ndarray


def make_stimulus(config: StimulusConfig, duration_ps: int) -> StimulusTrain:
    empty = np.empty(0, dtype=np.int64)
    if config.mode == MODE_NONE or duration_ps <= 0:
        return StimulusTrain(empty, empty)
    if config.mode == MODE_PERIODIC:
        period_ps = config.period_ps
        n = (duration_ps + period_ps - 1) // period_ps
        times = np.arange(n, dtype=np.int64) * period_ps
        times = times[times < duration_ps]
        return StimulusTrain(times, times)
    # double-pulse frames
    n = duration_ps // config.window_ps
    starts = np.arange(n, dtype=np.int64) * config.window_ps
    pulses = np.empty(2 * n, dtype=np.int64)
    pulses[0::2] = starts
    pulses[1::2] = starts + config.separation_ps
    pulses = pulses[pulses < duration_ps]
    return StimulusTrain(pulses, starts[starts < duration_ps])


@dataclass(frozen=True, eq=False)
class TimeTagStream:
    """Click and sync timestamps in integer picoseconds."""

    detector_events: np.ndarray
    sync_events: np.ndarray
    duration_ps: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.duration_ps <= INT64_MAX:
            raise StreamValidationError(
                f"duration_ps must lie in [0, 2**63-1], got {self.duration_ps}"
            )
        for name in ("detector_events", "sync_events"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            if arr.size:
                if np.any(np.diff(arr) <= 0):
                    raise StreamValidationError(f"{name} must be strictly increasing")
                if arr[0] < 0 or arr[-1] > self.duration_ps:
                    raise StreamValidationError(f"{name} must lie within [0, duration]")

    def __eq__(self, other):
        if not isinstance(other, TimeTagStream):
            return NotImplemented
        return (
            self.duration_ps == other.duration_ps
            and np.array_equal(self.detector_events, other.detector_events)
            and np.array_equal(self.sync_events, other.sync_events)
            and self.metadata == other.metadata
        )

    @property
    def duration_seconds(self) -> float:
        return self.duration_ps / PS_PER_SECOND


def effective_bias(model: DetectorModel, t, click_history=()):
    """Effective bias current at time(s) `t` given past click times (seconds).

    Recovery is driven by the most recent click; every click inside the
    kernel support adds its perturbation on top.
    """
    t = np.asarray(t, dtype=np.float64)
    history = np.asarray(click_history, dtype=np.float64)
    if history.size == 0:
        out = np.full(t.shape, model.circuit.bias_current)
    else:
        out = nanowire_current(model.circuit, t - history[-1])
        out = np.asarray(out, dtype=np.float64).copy()
        if model.kernel is not None:
            for tc in history:
                out += model.kernel.value(t - tc)
    return float(out) if out.ndim == 0 else out


def branching_probability(
    model: DetectorModel, window: float = 1e-6, n_grid: int = 20_001
) -> float:
    """Probability that a click triggers at least one further click within
    `window` seconds, from the model's own post-click dark rate:
    1 - exp(-integral of dark_rate(I_recovery + kernel)).

    Under the branching picture this is the per-click afterpulse
    probability, so train lengths follow P(n) = p**(n-1) * (1-p).
    """
    s = np.linspace(0.0, window, n_grid)
    bias = effective_bias(model, s, [0.0])
    lam = model.rates.dark_rate(bias)
    return 1.0 - math.exp(-float(np.trapezoid(lam, s)))


class _BlockUniforms:
    """Draws uniforms from a Generator in blocks; sequential and deterministic."""

    __slots__ = ("_rng", "_block", "_i", "_n", "_blocks")

    def __init__(self, rng: np.random.Generator, block_size: int = 1 << 14):
        self._rng = rng
        self._n = block_size
        self._block = rng.random(block_size).tolist()
        self._i = 0
        self._blocks = 1

    def next(self) -> float:
        i = self._i
        if i == self._n:
            self._block = self._rng.random(self._n).tolist()
            self._blocks += 1
            i = 0
        self._i = i + 1
        return self._block[i]

    @property
    def drawn(self) -> int:
        """Uniforms handed out so far."""
        return (self._blocks - 1) * self._n + self._i


def simulate(
    model: DetectorModel,
    stimulus: StimulusConfig,
    duration: float,
    seed,
) -> TimeTagStream:
    """Generate a reproducible TimeTagStream for the given model and drive.

    The engine keeps the last click as an integer-ps epoch and every other
    time -- the proposals, the live kernels, the next pulse, the run end --
    as float seconds since it, so a realization does not depend on where
    it falls in time: shifting the start shifts every click by exactly as
    many ps. A pulse's time since the epoch comes from an integer ps
    difference. One path records every click, dark or laser, and re-bases
    the clock on it: a click `n` ps after the epoch is stamped `epoch + n`;
    with n <= 0 it lands on or before the previous click's ps, a sub-ps
    coincidence the tagger cannot resolve, and is dropped; one stamped
    past the run's last ps is not recorded. A click that is kept starts
    its kernel and, on an unshunted detector, the latch scan.

    Dark counts are thinned against a piecewise-constant envelope (Ogata's
    local bound). The kernel is split into index segments
    (`_kernel_segments`), and the envelope is dark_rate(I_b + sum of the
    current segment bounds of the live kernels). Recovery never exceeds
    I_b, so the envelope dominates the true rate by construction; a
    violation raises SimulationError. The envelope holds until the nearest
    segment end of any live kernel, or the next pulse. There the
    unit-exponential mass it used is subtracted and the rest carries over:
    exact by memorylessness, and neither a crossing nor a pulse draws a
    uniform. A mass that outlasts the one kernel live, which ends before
    the next pulse and the run end, crosses all its segment ends in one
    step, from a table of segment masses. Without a live kernel the
    envelope is dark_rate(I_b); a zero envelope proposes nothing. A dark
    proposal with no kernel live on a quiescent detector (see below) is
    accepted without a uniform: there the rate is dark_rate(I_b) bit for
    bit, so the thinning test cannot fail: a click with no other within
    that time takes one uniform, its proposal. The segment tables and the
    branching probability are constants of the model, built on its first
    run.

    A model with a live kernel whose click has a mean of one or more
    further clicks, -log(1 - branching_probability(model)) >= 1, is
    supercritical: its afterpulse trains never end, so it is refused with
    a ConfigError before every run.

    Laser pulses are evaluated one by one while the detector recovers from
    a click. Once it is quiescent -- last click at least
    `max(settle_time, kernel duration)` ago, or none yet, so that no kernel
    is live and the float recovery law returns exactly I_b -- every pulse
    clicks with the same probability p_q until the next click. The engine
    then draws the index of the next clicking pulse as one geometric
    variate and steps over the pulses before it. A dark click that lands
    first ends the stretch; evaluation resumes at the first pulse after it.
    This is exact: in a quiet stretch the pulse outcomes are independent of
    each other and of the dark process.

    `metadata["engine"]` carries deterministic work counters: uniforms
    drawn, pulses evaluated one by one, pulses stepped over by a geometric
    draw (the clicking pulse it lands on included), sub-ps coincident
    clicks dropped, and segment ends crossed.
    """
    if duration < 0:
        raise ConfigError(f"duration must be non-negative, got {duration!r} s")
    tables = model._tables
    # a mean of -log(1 - p) >= 1 further clicks per click
    if tables is not None and tables.branching >= 1.0 - math.exp(-1.0):
        raise ConfigError(
            f"supercritical model: a click is followed by another with probability "
            f"{tables.branching:.4g}, a mean of one or more further clicks per click"
        )
    duration_ps = whole_ps(duration * PS_PER_SECOND, "duration")
    train = make_stimulus(stimulus, duration_ps)
    metadata = _run_metadata(model, stimulus, duration_ps, seed)
    if duration_ps == 0:
        metadata["engine"] = dict.fromkeys(ENGINE_COUNTERS, 0)
        return TimeTagStream(
            np.empty(0, np.int64), np.empty(0, np.int64), 0, metadata
        )
    rng = np.random.default_rng(seed)
    detector, metadata["engine"] = _run_engine(model, stimulus, train, duration_ps, rng)
    return TimeTagStream(detector, train.sync_times_ps, duration_ps, metadata)


def _run_metadata(model, stimulus, duration_ps, seed) -> dict:
    desc = {"duration_ps": duration_ps, **model.describe(), **stimulus.describe()}
    digest = hashlib.sha256(
        json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    out = dict(desc)
    out["seed"] = _seed_label(seed)
    out["config_digest"] = digest
    return out


def _seed_label(seed) -> str:
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy if isinstance(seed.entropy, (list, tuple)) else (seed.entropy,)
        return ".".join(str(x) for x in (*entropy, *seed.spawn_key))
    return str(seed)


def _kernel_segments(samples: np.ndarray, g_dark: float, rate_dt: float, branching: float):
    """Split the kernel's sample indices into segments [a..b] that share
    their ends; bound each by the largest positive part of its samples,
    both ends included, so the interpolated kernel stays under the bound.
    Returns the bounds and the end index b of each.

    One greedy pass, linear in the samples. The slack at sample j wastes
    about rate_dt * (exp(g*bound) - exp(g*k_j)) proposals, `rate_dt` being
    the dark rate at I_b times the sample period, times the lift exp(g*k)
    of another kernel live then. An afterpulse mostly lands on the peak of
    its parent's kernel, so with the branching probability a click has a
    parent `peak` samples older and a child `peak` samples younger. A
    segment is closed once its expected waste passes SEGMENT_WASTE.
    """
    positive = np.maximum(samples, 0.0)
    lifts = np.exp(g_dark * positive)
    n, peak = lifts.size, int(np.argmax(lifts))
    other = np.ones(n)
    other[: n - peak] += branching * (lifts[peak:] - 1.0)  # the parent
    other[peak:] += branching * (lifts[: n - peak] - 1.0)  # the child
    weights = rate_dt * other
    weighted = (weights * lifts).tolist()
    weights = weights.tolist()
    lifts = lifts.tolist()
    positive = positive.tolist()
    bounds: list[float] = []
    ends: list[int] = []
    # top: index of the largest sample; the waste is lifts[top] * w - wl
    start, top, w, wl = 0, 0, weights[0], weighted[0]
    for j in range(1, n):
        if lifts[j] > lifts[top]:
            top = j
        w += weights[j]
        wl += weighted[j]
        if j - 1 > start and lifts[top] * w - wl > SEGMENT_WASTE:
            # close at j - 1, which also opens the next segment
            bounds.append(max(positive[start:j]))
            ends.append(j - 1)
            start = j - 1
            top = start if lifts[start] >= lifts[j] else j
            w = weights[start] + weights[j]
            wl = weighted[start] + weighted[j]
    bounds.append(max(positive[start:]))
    ends.append(n - 1)
    return bounds, ends


class _KernelTables(NamedTuple):
    """A live kernel's thinning tables: constants of the model."""

    branching: float        # branching_probability(model)
    samples: list           # the kernel samples, A
    sample_period: float    # s
    duration: float         # s from the click to the last sample
    bounds: list            # each segment's bound, A
    ends_s: list            # each segment's end, s after the click
    envs: list              # the envelope, 1/s, of one kernel alone in each segment
    tails: list             # the envelope mass of the segments after each


def _kernel_tables(model: DetectorModel) -> _KernelTables | None:
    """The thinning tables of the model's kernel; None without a kernel or
    with an identically zero one, which has no effect."""
    kernel = model.kernel
    if kernel is None or not np.any(kernel.samples):
        return None
    rates, i_b = model.rates, model.circuit.bias_current
    r_ref, g_dark, i_ref = rates.dark_rate_ref, rates.dark_rate_slope, rates.reference_bias
    rate_b = r_ref * math.exp(g_dark * (i_b - i_ref))
    branching = branching_probability(model)
    ksp = kernel.sample_period
    bounds, ends = _kernel_segments(kernel.samples, g_dark, rate_b * ksp, branching)
    # with one kernel alone live: its envelope in each segment (the float
    # operations of the engine's envelope_now, so the value is the same
    # either way) and the mass of the segments after each
    envs = [r_ref * math.exp(g_dark * (i_b + bound - i_ref)) for bound in bounds]
    tails = [0.0] * len(ends)
    for k in range(len(ends) - 2, -1, -1):
        tails[k] = tails[k + 1] + envs[k + 1] * ((ends[k + 1] - ends[k]) * ksp)
    samples = kernel.samples.tolist()
    return _KernelTables(
        branching, samples, ksp, (len(samples) - 1) * ksp,
        bounds, [b * ksp for b in ends], envs, tails,
    )


def _run_engine(
    model: DetectorModel,
    stimulus: StimulusConfig,
    train: StimulusTrain,
    end_ps: int,
    rng: np.random.Generator,
    start_ps: int = 0,
) -> tuple[np.ndarray, dict]:
    """One realization from `start_ps` to `end_ps`, in the ps of the pulse
    train; `simulate` starts every run at 0."""
    circ = model.circuit
    rates = model.rates
    i_b = circ.bias_current
    i_c = circ.critical_current
    i_ss = circ.resistive_branch_current
    i_end = circ.hotspot_end_current
    t_hs = circ.hotspot_duration
    tau_fall = circ.fall_tau
    tau_rec = circ.recovery_tau
    r_ref = rates.dark_rate_ref
    i_ref = rates.reference_bias
    g_dark = rates.dark_rate_slope
    eta_max = rates.efficiency_max
    g_eta = rates.efficiency_slope
    mu = stimulus.mean_photons

    exp = math.exp
    log = math.log

    tables = model._tables
    rate_b = r_ref * exp(g_dark * (i_b - i_ref))  # the dark rate with no kernel live
    if tables is not None:
        ksamp, ksp, kdur = tables.samples, tables.sample_period, tables.duration
        klast = len(ksamp) - 1
        seg_bound, seg_end_s, seg_env, tail = tables.bounds, tables.ends_s, tables.envs, tables.tails
        n_segs = len(seg_end_s)
    else:
        ksamp = None
        ksp = kdur = 0.0
        klast = 0
    # from this long after the last click the detector is quiescent: the
    # current is exactly I_b, and no kernel is live, as every click starts one
    t_quiet = max(circ.settle_time, kdur)

    can_latch = model.can_latch
    pulses_ps = train.pulse_times_ps
    n_pulses = pulses_ps.size

    uniforms = _BlockUniforms(rng)

    # the clock: `epoch` is the ps of the last click, or of the start before
    # the first. Every other time is float s since the epoch ("local")
    epoch = start_ps
    out_ps: list[int] = []
    # the live kernels: click time, current segment and that segment's end
    active: list[float] = []
    segs: list[int] = []
    seg_ends: list[float] = []
    quiet_at = 0.0                # quiescent from here; at once before any click
    t = 0.0
    end = (end_ps - epoch) / PS_PER_SECOND
    latched = False
    evaluated = dropped = crossings = 0

    def click_probability(bias: float) -> float:
        eta = eta_max * exp(g_eta * (bias - i_ref))
        if eta > eta_max:
            eta = eta_max
        return 1.0 - exp(-mu * eta) if mu > 0.0 else 0.0

    # a quiescent detector sits at exactly I_b, so every pulse of a quiet
    # stretch clicks with this one probability
    p_quiet = click_probability(i_b)
    log_miss = math.log1p(-p_quiet) if 0.0 < p_quiet < 1.0 else 0.0

    # the scalar form of the effective-bias law (circuit.nanowire_current
    # plus the kernels), the engine's only one. It stays scalar math.exp in
    # this operation order, as one NumPy call costs more than a whole
    # proposal. From `quiet_at` on the law returns exactly I_b
    # (CircuitParams.settle_time). The support test skips a kernel that has ended
    def bias_at(when: float) -> float:
        if when >= quiet_at:
            i = i_b
        elif when <= t_hs:
            i = i_ss + (i_b - i_ss) * exp(-when / tau_fall)
        else:
            i = i_b - (i_b - i_end) * exp(-(when - t_hs) / tau_rec)
        for tc in active:
            d = when - tc
            if 0.0 <= d < kdur:
                x = d / ksp
                j = int(x)
                f = x - j
                i += ksamp[j] * (1.0 - f) + ksamp[j + 1] * f
        return i

    # the thinning envelope: recovery never exceeds I_b, and each live
    # kernel contributes the bound of its current segment, up to the nearest
    # segment end `horizon`; one kernel alone reads it from `seg_env`
    def envelope_now() -> tuple[float, float]:
        if len(segs) == 1:
            return seg_env[segs[0]], seg_ends[0]
        i_env = i_b
        for k in segs:
            i_env += seg_bound[k]
        return r_ref * exp(g_dark * (i_env - i_ref)), min(seg_ends)

    envelope, horizon = rate_b, math.inf

    def pulse_time(idx: int) -> float:
        # an integer ps difference, so a pulse's local time is exact
        return (int(pulses_ps[idx]) - epoch) / PS_PER_SECOND if idx < n_pulses else math.inf

    # every click, dark or laser, is recorded here, `when_ps` ps after the
    # epoch, and the clock is re-based on it
    def click(when_ps: int) -> None:
        nonlocal epoch, quiet_at, t, nxt_s, end, latched, dropped, envelope, horizon
        # sub-ps coincidences cannot be resolved; drop them
        if when_ps <= 0 and out_ps:
            dropped += 1
            return
        stamp = epoch + when_ps
        if stamp > end_ps:
            return
        out_ps.append(stamp)
        epoch = stamp
        quiet_at = t_quiet
        t = 0.0
        if nxt < n_pulses:
            nxt_s = (int(pulses_ps[nxt]) - stamp) / PS_PER_SECOND
        end = (end_ps - stamp) / PS_PER_SECOND
        if tables is not None:
            active.append(0.0)
            segs.append(0)
            seg_ends.append(seg_end_s[0])
            if len(segs) == 1:
                envelope, horizon = seg_env[0], seg_end_s[0]
            else:
                # the kernels live before it now started that much earlier
                shift = when_ps / PS_PER_SECOND
                for idx in range(len(segs) - 1):
                    active[idx] -= shift
                    seg_ends[idx] = active[idx] + seg_end_s[segs[idx]]
                envelope, horizon = envelope_now()
            if can_latch:
                # scan the kernel horizon for the first crossing of I_c
                for j in range(klast + 1):
                    if bias_at(j * ksp) >= i_c:
                        latched = True
                        return

    next_uniform = uniforms.next
    # the pulse cursor: the next pulse to act on and its time. `landed`
    # marks a quiet stretch: a geometric draw put the cursor on the pulse
    # that clicks (or past the last pulse), and the pulses before it are
    # stepped over
    nxt = 0
    nxt_s = pulse_time(0)
    landed = False

    mass = 0.0  # unit-exponential mass not yet used; 0 draws afresh
    while not latched:
        if mass <= 0.0:
            mass = -log(1.0 - next_uniform())
        # a zero envelope proposes nothing: the next event is a pulse or the end
        gap = mass / envelope if envelope > 0.0 else math.inf
        if gap <= 0.0:
            mass = 0.0
            continue
        proposal = t + gap
        # at a segment end that comes before the proposal, the next pulse
        # and the run end, the mass the envelope used up to it is spent and
        # the rest carries over, which is exact by memorylessness
        while horizon < proposal and horizon < nxt_s and horizon < end:
            if len(segs) == 1:
                # one kernel alone: the mass of its remaining segments, in
                # time since its click. A mass that outlasts it, with the
                # kernel ending before the next pulse and the run end,
                # crosses all its segment ends in one step
                k = segs[0]
                tc = active[0]
                spent = envelope * (seg_end_s[k] - (t - tc)) + tail[k]
                if mass > spent and tc + kdur < nxt_s and tc + kdur < end:
                    mass -= spent
                    t = tc + kdur
                    crossings += n_segs - k
                    del active[0], segs[0], seg_ends[0]
                    envelope, horizon = rate_b, math.inf
                    proposal = t + mass / envelope if envelope > 0.0 else math.inf
                    break
            mass -= envelope * (horizon - t)
            if mass < 0.0:
                mass = 0.0  # rounding: the proposal is at the segment end
            t = horizon
            crossings += 1
            # one kernel moves on per crossing; a second one ending its
            # segment at the same time crosses next, at no cost in mass
            idx = seg_ends.index(t)
            k = segs[idx] + 1
            if k < n_segs:
                segs[idx] = k
                seg_ends[idx] = active[idx] + seg_end_s[k]
            else:
                del active[idx], segs[idx], seg_ends[idx]
            envelope, horizon = envelope_now() if segs else (rate_b, math.inf)
            proposal = t + mass / envelope if envelope > 0.0 else math.inf

        # past the last pulse, nxt_s is inf, and so is a proposal of a zero envelope
        if nxt_s <= proposal and nxt < n_pulses:
            # the mass the envelope used up to the pulse is spent and the
            # rest carries over, as at a segment end
            mass -= envelope * (nxt_s - t)
            t = nxt_s
            if not landed and t >= quiet_at:
                # quiescent: the number of quiet pulses before the next
                # one that clicks is geometric in p_quiet
                landed = True
                if p_quiet <= 0.0:
                    misses = math.inf
                elif p_quiet < 1.0:
                    misses = log(1.0 - next_uniform()) / log_miss
                else:
                    misses = 0.0
                if misses >= 1.0:
                    nxt = nxt + int(misses) if misses < n_pulses - nxt else n_pulses
                    nxt_s = pulse_time(nxt)
                    continue
            if landed:
                landed = False
                clicked = True
            else:
                evaluated += 1
                clicked = next_uniform() < click_probability(bias_at(t))
            if clicked:
                click(int(pulses_ps[nxt]) - epoch)
            nxt += 1
            nxt_s = pulse_time(nxt)
            continue

        if proposal >= end:
            break
        mass = 0.0
        t = proposal
        # with no kernel live on a quiescent detector the rate is the
        # envelope, rate_b, bit for bit: the proposal is a click
        if segs or t < quiet_at:
            rate = r_ref * exp(g_dark * (bias_at(t) - i_ref))
            if rate > envelope * (1.0 + 1e-9):
                raise SimulationError(
                    f"thinning envelope violated {t:.6e} s after ps {epoch}: "
                    f"rate {rate:.3e} > envelope {envelope:.3e}"
                )
            accepted = next_uniform() * envelope <= rate
        else:
            accepted = True
        if accepted:
            click(round(t * PS_PER_SECOND))
        if landed:
            # the quiet pulses up to this dark event did not click; the
            # ones after it are evaluated afresh from the new state
            nxt = int(np.searchsorted(pulses_ps, epoch + round(t * PS_PER_SECOND), side="right"))
            nxt_s = pulse_time(nxt)
            landed = False

    # every pulse before the cursor was evaluated or stepped over, and so
    # is every pulse after it when the run ends inside a quiet stretch
    skipped = (n_pulses if landed else nxt) - evaluated
    counters = dict(zip(ENGINE_COUNTERS, (uniforms.drawn, evaluated, skipped, dropped, crossings)))
    return np.asarray(out_ps, dtype=np.int64), counters
