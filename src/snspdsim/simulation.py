"""Event-level click-stream simulation.

Dark counts follow an inhomogeneous Poisson process whose rate tracks the
effective bias current; laser pulses detect with a Poissonian photon model;
every click feeds a bias-perturbation kernel back into the effective bias,
which is what produces afterpulsing, and the current recovery after a click
is what produces the dead time.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
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

# deterministic work counters the engine reports under metadata["engine"],
# beside latched_at_ps
ENGINE_COUNTERS = (
    "uniforms", "pulses_evaluated", "pulses_skipped", "coincidences_dropped", "crossings", "lone",
    "proposals",
)

# the most candidates that one chunk of the engine's first layer draws from
# a stream: memory stays bounded whatever the run's length
CANDIDATE_CHUNK = 1 << 14
# the resolver's lockstep lanes: the passes of its loop they take in NumPy
# before the scalar loop finishes a lane, the uniforms each lane draws in
# layer 1, and the older kernels a lane holds
LANE_STEPS = 4
LANE_DRAWS = 8
LANE_KERNELS = 2


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
    def _tables(self) -> "_KernelTables":
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
    """Optical pulse times, in ps, as one periodic pattern: with m =
    len(offsets_ps), pulse k is at origin_ps + (k // m) * period_ps +
    offsets_ps[k % m], for k < n_pulses. The offsets ascend from 0 and lie
    within the period.

    The sync channel is the trigger reference: the first pulse of each
    period, so for double-pulse frames only the first pulse of each pair,
    which is the time reference the window analyses expect.
    """

    period_ps: int
    offsets_ps: tuple
    n_pulses: int
    origin_ps: int = 0

    def time(self, k: int) -> int:
        """The time of pulse k."""
        q, r = divmod(k, len(self.offsets_ps))
        return self.origin_ps + q * self.period_ps + self.offsets_ps[r]

    def times(self, k: np.ndarray) -> np.ndarray:
        """The times of the pulses of index array k."""
        q, r = np.divmod(k, len(self.offsets_ps))
        return self.origin_ps + q * self.period_ps + np.array(self.offsets_ps, np.int64)[r]

    def count(self, t: np.ndarray) -> np.ndarray:
        """The number of pulses at or before each time of t."""
        q, r = np.divmod(np.asarray(t, np.int64) - self.origin_ps, self.period_ps)
        within = np.searchsorted(np.array(self.offsets_ps, np.int64), r, side="right")
        return np.clip(q * len(self.offsets_ps) + within, 0, self.n_pulses)

    @property
    def pulse_times_ps(self) -> np.ndarray:
        """Every pulse time, as an array; the engine reads the pattern."""
        return self.times(np.arange(self.n_pulses, dtype=np.int64))

    @property
    def sync_times_ps(self) -> np.ndarray:
        """The sync channel: pulses k = j * m, at origin_ps + j * period_ps."""
        # in one pass, to a stop half a period past the last sync, so that
        # arange's float count cannot drop it; the stop, a Python int, may
        # pass INT64_MAX
        stop = self.origin_ps + -(-self.n_pulses // len(self.offsets_ps)) * self.period_ps - self.period_ps // 2
        return np.arange(self.origin_ps, stop, self.period_ps, dtype=np.int64)


def make_stimulus(config: StimulusConfig, duration_ps: int) -> StimulusTrain:
    """The pulse train of `config` over [0, duration_ps)."""
    if config.mode == MODE_NONE or duration_ps <= 0:
        return StimulusTrain(1, (0,), 0)
    if config.mode == MODE_PERIODIC:
        period_ps = config.period_ps
        # the last is (n-1)*period < duration
        return StimulusTrain(period_ps, (0,), (duration_ps + period_ps - 1) // period_ps)
    # double-pulse frames, whole ones only: the last second pulse,
    # (n-1)*window + separation, lies before n*window <= duration
    window_ps = config.window_ps
    return StimulusTrain(window_ps, (0, config.separation_ps), 2 * (duration_ps // window_ps))


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
                if np.any(arr[1:] <= arr[:-1]):
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


def branching_probability(model: DetectorModel) -> float:
    """Probability that a click triggers at least one further click within
    1 us, from the model's own post-click dark rate: 1 - exp(-integral of
    dark_rate(I_recovery + kernel)), by the trapezoid rule on a 50 ps grid.

    Under the branching picture this is the per-click afterpulse
    probability, so train lengths follow P(n) = p**(n-1) * (1-p).
    """
    s = np.linspace(0.0, 1e-6, 20_001)
    bias = effective_bias(model, s, [0.0])
    lam = model.rates.dark_rate(bias)
    return 1.0 - math.exp(-float(np.trapezoid(lam, s)))


def simulate(
    model: DetectorModel,
    stimulus: StimulusConfig,
    duration: float,
    seed,
) -> TimeTagStream:
    """Generate a reproducible TimeTagStream for the given model and drive.

    Time. Every click is stamped in whole ps, and the engine keeps each
    time after the last click as float seconds since that click's ps (its
    epoch), so a realization does not depend on where it falls in time:
    shifting the start shifts every click by exactly as many ps. A click
    on or before the previous click's ps is a sub-ps coincidence the tagger
    cannot resolve: it is dropped and counted. Nothing past the run's last
    ps is recorded.

    Pulses. The stimulus is one periodic pattern (`StimulusTrain`): pulse k
    lies at (k // m) * period + offsets[k % m] ps, with m = 1 and offset 0
    for a periodic laser, and m = 2 and offsets (0, separation) for
    double-pulse frames of one window each. The engine asks the pattern for
    a pulse's time and for the number of pulses at or before a time, so its
    cost scales with candidates and clicks, not pulses; only the sync
    channel, the first pulse of each period, is built as an array.

    Exactness. From t_quiet = max(settle_time, kernel duration) after a
    click, rounded up to whole ps (quiet_ps; t_q in seconds), the detector
    is quiescent: the current is exactly I_b and no kernel is live. There
    the dark clicks are a Poisson process at rate_b = dark_rate(I_b) and
    every pulse clicks on its own with p_quiet = 1 - exp(-mu *
    efficiency(I_b)). So the run's clicks are a thinning (Lewis & Shedler
    1979) of candidates drawn as if the detector were always quiescent: one
    that falls where the detector is quiescent is a click, and one that
    falls within quiet_ps of a click is dropped, since there the true law
    decides. Where the detector turns quiescent is a stopping time, after
    which the candidates are independent of all drawn before, so the split
    is exact.

    Layer 1, in NumPy, draws the candidates in chunks, both streams as the
    trials that succeed among Bernoulli trials, by `Generator.geometric`
    skips (Devroye 1986) clamped to just past the last trial: dark ones on
    the run's ps at p_dark = 1 - exp(-rate_b * 1 ps), from the run
    generator's own draws, the exact ps image of the quiescent process, and
    laser ones on the pulses at p_quiet. The generator spawns five streams,
    laser, window, resolver, mass and spare, so a longer run's draws extend
    a shorter one's. The efficiency saturates at efficiency_max, so no pulse
    clicks with more than p_max = 1 - exp(-mu * efficiency_max), a constant
    of the run (0 without pulses): the pulses that may click are
    Bernoulli(p_max) trials, independent of the clicks (so a skip drawn
    before a click holds after it), and one that may clicks with its click
    probability / p_max, an exact discrete thinning (Devroye 1986). In time
    order, each candidate gets a unit-exponential mass E
    (`Generator.standard_exponential`) and, if p_max > 0, one
    `Generator.geometric` skip at p_max to its first pulse that may click. A
    candidate is lone when a click there has no further event before
    quiet_ps: E proposes nothing in its window (E/envs[0] > the sample
    period, E >= M and kdur + (E - M)/rate_b >= t_q, layer 2's own first
    bisection, M being the envelope mass of all the kernel's intervals;
    without a live kernel, no interval and M = 0), and its skip passes the
    window's pulses. Lone candidates from quiet_ps after the last kept click
    on are accepted in bulk. Every other one (on a model that can latch,
    every one) is a lane, with a block of LANE_DRAWS resolver uniforms drawn
    in candidate order.

    Layer 2 runs the true law from a lane's click until its next event lies
    quiet_ps or more after its last click; the candidates before that are
    dropped, as is a lane the detector does not reach. A lane starts at its
    candidate's first pulse that may click, so that the lone test and layer
    2 agree, and reads its block, then the spare stream in the order the
    trains are reached, so its train does not depend on the lanes before it.
    A NumPy lockstep takes all lanes of a chunk one pass of the loop per
    step, in the scalar loop's operation order with math.exp and math.log
    per lane, so its bits do not depend on the SIMD level; the scalar loop
    (`resolve`) reruns with the same draws a lane still live after
    LANE_STEPS steps, or holding more than LANE_KERNELS older kernels, and
    resolves, if the detector reaches it, every lane of a model that can
    latch, and one within quiet_ps after the candidate before it, which
    mostly lies in that one's train.
    Each pass evaluates the next pulse that may click, which leaves the
    proposal standing unless it clicks (a uniform u with u * p_max below its
    click probability), and draws the skip to the next one from a second
    uniform, by inversion with math.log; or it thins the next dark proposal
    of a piecewise-constant envelope (Ogata's local bound), whose mass used
    up to a step is spent and the rest carried over (memorylessness). The
    newest click is bounded over each of its kernel sample intervals k by
    envs[k], the dark rate at the larger recovery at the interval's ends
    (the recovery falls, then rises) plus the larger positive part of its
    two samples. Each older live kernel multiplies that by exp(g * its
    suffix maximum from its age on) (`lifts`), which can only fall, so one
    lift holds from the time it is taken. The interval masses find in one
    bisection where the mass, divided by the lift, runs out, up to the end
    of the interval that holds the oldest older kernel's end; past the
    newest kernel the envelope is rate_b. The lift is taken again only at
    times the mass drawn does not choose: at a click, at that interval end,
    and at a proposal that does not click (a stopping time). Recovery never
    exceeds I_b, so the envelope dominates the rate; a violation raises
    SimulationError. A click starts its kernel and, on an unshunted
    detector, the latch scan, which ends the run. The tables, lists for the
    scalar loop and arrays for the lockstep, and the branching probability
    are constants of the model, built on its first run.

    A model with a live kernel whose click has a mean of one or more
    further clicks, -log(1 - branching_probability(model)) >= 1, is
    supercritical: its afterpulse trains never end, so it is refused with
    a ConfigError before every run, as is one whose dark rate overflows a
    float or whose rate_b exceeds 1e12/s (a mean gap under the 1 ps stamp).

    `metadata["engine"]` carries deterministic work counters, each up to
    the latch of a latched run: `uniforms`, the variates read: 2 per
    candidate (its time and its mass), 3 if p_max > 0 (and its skip), and
    each kept lane's reads (a block's unread uniforms are not counted);
    `pulses_evaluated` by layer 2, the pulses that may click it reached;
    `pulses_skipped`, the rest, so the two sum to the pulses;
    `coincidences_dropped`; `crossings`, layer 2's envelope steps: one
    bisection past the end of the current interval, whatever the intervals
    it passes; `lone`, the clicks layer 1 accepted in bulk; and
    `proposals`, the dark proposals layer 2 thinned. `latched_at_ps` is the
    click a latched run ends with, None for a run that does not latch.
    """
    if duration < 0:
        raise ConfigError(f"duration must be non-negative, got {duration!r} s")
    try:
        tables, rate_b = model._tables, _quiet_dark_rate(model)
        if not math.isfinite(tables.masses[-1]):
            raise OverflowError
    except OverflowError:
        raise ConfigError(f"dark rate overflows a float: slope {model.rates.dark_rate_slope!r}/A") from None
    if rate_b > PS_PER_SECOND:
        raise ConfigError(f"dark rate {rate_b:.4g}/s at the bias is above 1e12/s, a mean gap under 1 ps")
    # a mean of -log(1 - p) >= 1 further clicks per click
    if tables.branching >= 1.0 - math.exp(-1.0):
        raise ConfigError(
            f"supercritical model: a click is followed by another with probability "
            f"{tables.branching:.4g}, a mean of one or more further clicks per click"
        )
    duration_ps = whole_ps(duration * PS_PER_SECOND, "duration")
    train = make_stimulus(stimulus, duration_ps)
    metadata = _run_metadata(model, stimulus, duration_ps, seed)
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


class _KernelTables(NamedTuple):
    """The kernel's thinning tables: constants of the model. The newest
    click is bounded over each kernel sample interval k by envs[k], which
    covers its recovery and its own kernel; each older live kernel lifts
    that by lifts[i], i being the interval of its age. A model without a
    live kernel has the empty table: no interval, masses [0.0] and no
    branching, as no kernel means no cascade. The scalar loop reads the
    lists, the lockstep the arrays."""

    branching: float        # branching_probability(model)
    samples: list           # the kernel samples, A
    sample_period: float    # s
    duration: float         # s from the click to the last sample
    envs: list              # the newest click's envelope, 1/s, in each sample interval
    masses: list            # the envelope mass of intervals 0..k-1, for k = 0..len(envs)
    lifts: list             # exp(g * PerturbationKernel.max_remaining()), by math.exp
    pairs: np.ndarray       # each interval's two end samples
    # per interval, and past the kernel (rate_b, no end): the mass before
    # it, its envelope, its start (the sample grid) and its end
    tab: np.ndarray
    lifts_x: np.ndarray     # the lifts, then the 1.0 a dead kernel lifts by


def _quiet_dark_rate(model: DetectorModel) -> float:
    """rate_b, the dark rate at I_b with no kernel live, by math.exp."""
    r = model.rates
    return r.dark_rate_ref * math.exp(r.dark_rate_slope * (model.circuit.bias_current - r.reference_bias))


def _kernel_tables(model: DetectorModel) -> _KernelTables:
    """The thinning tables of the model's kernel; empty, with no interval
    and no branching, without a kernel or with an identically zero one,
    which has no effect."""
    kernel, rate_b = model.kernel, _quiet_dark_rate(model)
    if kernel is None or not np.any(kernel.samples):
        return _KernelTables(0.0, [], 0.0, 0.0, [], [0.0], [], np.zeros((2, 0)),
                             np.array([[0.0], [rate_b], [0.0], [math.inf]]), np.ones(1))
    circ, rates = model.circuit, model.rates
    r_ref, g_dark, i_ref = rates.dark_rate_ref, rates.dark_rate_slope, rates.reference_bias
    samples, ksp = kernel.samples.tolist(), kernel.sample_period
    kdur = kernel.duration
    pairs = np.array([kernel.samples[:-1], kernel.samples[1:]])
    grid = np.arange(len(samples)) * ksp
    # over each sample interval [k, k+1] the recovery, which falls and then
    # rises, is largest at an end, and the interpolated kernel is at most
    # the larger positive part of its two samples. The recovery on the grid
    # is one lane_bias call with no kernel row, and the envelope takes
    # math.exp per interval, as the engine does, so its bits do not depend
    # on NumPy's SIMD level
    _, lane_bias = _scalar_law(circ, max(circ.settle_time, kdur), samples, pairs, ksp, kdur)
    recovered = lane_bias(grid, np.empty((0, 1)))
    top = np.maximum(recovered[:-1], recovered[1:]) + np.maximum(pairs.max(0), 0.0)
    envs = r_ref * _per_lane(math.exp, g_dark * (top - i_ref))
    masses = np.cumsum(np.append(0.0, envs * ksp))
    lifts = _per_lane(math.exp, g_dark * kernel.max_remaining())
    return _KernelTables(
        branching_probability(model), samples, ksp, kdur, envs.tolist(), masses.tolist(), lifts.tolist(), pairs,
        np.array([masses, np.append(envs, rate_b), grid, np.append(grid[1:], math.inf)]), np.append(lifts, 1.0),
    )


def _per_lane(f, v: np.ndarray) -> np.ndarray:
    """math.exp or another scalar f of each element: bits free of the SIMD level."""
    return np.fromiter(map(f, v.tolist()), float, v.size)


def _scalar_law(circ: CircuitParams, t_quiet: float, samples: list, pairs: np.ndarray, ksp: float, kdur: float):
    """The engine's two copies of the effective-bias law, in one operation
    order. bias_at(when, kernels) is circuit.nanowire_current `when` s
    after the last click plus the kernels of `samples` at their click times
    `kernels`, s since that click, in scalar math.exp: the scalar loop calls
    it once per proposal or pulse, where a NumPy call costs more than the
    whole proposal. From t_quiet on it is exactly I_b (settle_time).
    lane_bias is bias_at for an array of times, with the samples' interval
    ends `pairs` and math.exp per element, so its bits are bias_at's at
    every SIMD level: the lockstep, the tables and the latch scan call it."""
    i_b = circ.bias_current
    i_ss = circ.resistive_branch_current
    i_end = circ.hotspot_end_current
    t_hs = circ.hotspot_duration
    tau_fall = circ.fall_tau
    tau_rec = circ.recovery_tau
    exp = math.exp

    def bias_at(when: float, kernels) -> float:
        if when >= t_quiet:
            i = i_b
        elif when <= t_hs:
            i = i_ss + (i_b - i_ss) * exp(-when / tau_fall)
        else:
            i = i_b - (i_b - i_end) * exp(-(when - t_hs) / tau_rec)
        for tc in kernels:
            d = when - tc
            if 0.0 <= d < kdur:
                x = d / ksp
                j = int(x)
                f = x - j
                i += samples[j] * (1.0 - f) + samples[j + 1] * f
        return i

    def lane_bias(when: np.ndarray, kernels: np.ndarray) -> np.ndarray:
        # kernels: a row per kernel, oldest first, of each time's click
        # time (a column: one for all), NaN for none. The exponents are
        # bias_at's, bit for bit: -when / tau_fall is when / -tau_fall and
        # -(when - t_hs) the t_hs - when
        fall = when <= t_hs
        e = _per_lane(exp, np.where(fall, when / -tau_fall, (t_hs - when) / tau_rec))
        i = np.where(when < t_quiet, np.where(fall, i_ss + (i_b - i_ss) * e, i_b - (i_b - i_end) * e), i_b)
        if kdur > 0.0:
            d = when - kernels
            on = (0.0 <= d) & (d < kdur)
            x = np.where(on, d, 0.0) / ksp
            j = x.astype(np.int64)
            f = x - j
            s0, s1 = pairs.take(j, 1)
            for v in np.where(on, s0 * (1.0 - f) + s1 * f, 0.0):
                i += v
        return i

    return bias_at, lane_bias


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
    r_ref = rates.dark_rate_ref
    i_ref = rates.reference_bias
    g_dark = rates.dark_rate_slope
    eta_max = rates.efficiency_max
    g_eta = rates.efficiency_slope
    mu = stimulus.mean_photons

    exp = math.exp
    log = math.log
    inf = math.inf

    rate_b = _quiet_dark_rate(model)
    _, ksamp, ksp, kdur, envs, masses, lifts, pairs, tab, lifts_x = model._tables
    n_int = len(envs)
    # from t_quiet after a click the detector is quiescent: the current is
    # exactly I_b, and no kernel is live, as every click starts one
    t_quiet = max(circ.settle_time, kdur)
    quiet_ps = math.ceil(t_quiet * PS_PER_SECOND)
    quiet_s = quiet_ps / PS_PER_SECOND
    latching = model.can_latch and n_int > 0
    pulse_time = train.time
    n_pulses = train.n_pulses
    bias_at, lane_bias = _scalar_law(circ, t_quiet, ksamp, pairs, ksp, kdur)

    def click_probability(bias: float) -> float:
        eta = eta_max * exp(g_eta * (bias - i_ref))
        if eta > eta_max:
            eta = eta_max
        return 1.0 - exp(-mu * eta)

    # the efficiency saturates at eta_max, so no pulse clicks with more than
    # p_max: the pulses that may click are Bernoulli(p_max) trials, one
    # geometric skip apart, and one that may clicks with click_probability /
    # p_max. With p_max = 0 no skip is drawn and no pulse is evaluated
    p_max = 1.0 - exp(-mu * eta_max) if n_pulses else 0.0
    log_q = math.log1p(-p_max) if p_max < 1.0 else -inf

    def next_pulse(k: int, u: float) -> int:
        """The next pulse that may click after pulse k, from a uniform: one
        geometric skip on, by inversion; n_pulses if none is left."""
        skip = log(1.0 - u) / log_q
        return k + 1 + int(skip) if skip < n_pulses - k else n_pulses

    def lifted(older: list, t: float, k: int):
        """The older kernels still live at t; their lift from t on, the
        product of their lifts at their ages, which can only fall; and the
        masses index up to which it holds, the end of the interval (k or
        later) that holds the oldest one's end."""
        older = [tc for tc in older if t - tc < kdur]
        if not older:
            return older, 1.0, n_int
        lift = 1.0
        for tc in older:
            lift *= lifts[int((t - tc) / ksp)]
        return older, lift, max(int((older[0] + kdur) / ksp), k) + 1

    laser_rng, window_rng, resolver_rng, mass_rng, spare_rng = rng.spawn(5)
    # the uniforms a resolved train reads past its lane's block, drawn in
    # blocks behind a C-level `next`, in the order the trains are reached
    spare = itertools.chain.from_iterable(iter(lambda: spare_rng.random(1 << 10).tolist(), None))
    out: list[np.ndarray] = []
    # layer 2's work: uniforms drawn, pulses evaluated, coincidences
    # dropped, crossings and proposals
    totals = np.zeros(5, np.int64)
    n_lone = 0
    latched_at = None
    dark = r_ref > 0.0

    def resolve(epoch: int, mass: float, nxt: int, next_uniform, clicks: list) -> int:
        """Layer 2's scalar loop from a click at `epoch` ps, with its mass,
        its first pulse that may click and `next_uniform` for its draws;
        appends each click to `clicks` and returns the ps quiet_ps after the
        last. It makes no Python call per proposal but bias_at's, and
        lifted's while an older kernel is live."""
        nonlocal latched_at
        # its work, added to the totals once, on the way out
        drawn = evaluated = dropped = crossings = proposals = 0
        active: list[float] = []  # the kernels' click times, s since the epoch
        shift = 0.0               # the new click, s after the one before
        try:
            while True:
                clicks.append(epoch)
                end = (end_ps - epoch) / PS_PER_SECOND
                limit = quiet_s if quiet_s < end else end
                # t, s since the epoch, lies in the newest kernel's interval k;
                # the older kernels lift its envelope up to masses index hi
                t, k, lift, hi = 0.0, 0, 1.0, n_int
                older = [tc - shift for tc in active if shift - tc < kdur]
                active = older + [0.0]
                # scan the kernel horizon, the sample grid, for a crossing of I_c
                if latching and (lane_bias(tab[2], np.reshape(active, (-1, 1))) >= i_c).any():
                    latched_at = epoch
                    return end_ps + 1
                if older:
                    older, lift, hi = lifted(older, t, k)
                proposal = -1.0  # none drawn
                while True:
                    if proposal < 0.0 and not dark:
                        proposal = inf  # a zero dark rate proposes nothing
                    elif proposal < 0.0:
                        if mass <= 0.0:
                            mass = -log(1.0 - next_uniform())
                            drawn += 1
                        while k < n_int:
                            # the thinning envelope: the newest click's over its
                            # interval k, lifted by the older live kernels
                            envelope = lift * envs[k]
                            proposal = t + mass / envelope if envelope > 0.0 else inf
                            if proposal <= (k + 1) * ksp:
                                break
                            # past the interval's end the mass the envelope used
                            # up to it is spent and the rest carries over, which
                            # is exact by memorylessness: one bisection of the
                            # interval masses finds where it runs out, up to the
                            # end of the lift (index hi)
                            crossings += 1
                            target = masses[k] + envs[k] * (t - k * ksp) + mass / lift
                            i = bisect.bisect_right(masses, target, k + 1, hi + 1)
                            k = i - 1 if i > k + 1 else k + 1
                            mass = (target - masses[k]) * lift
                            if mass < 0.0:
                                mass = 0.0  # rounding: the proposal is at the interval's start
                            t = k * ksp
                            if k == hi and older:
                                # the oldest older kernel has ended, at a time
                                # fixed in advance: the lift falls there
                                older, lift, hi = lifted(older, t, k)
                        else:
                            # past the newest kernel, so past every one:
                            # recovery never exceeds I_b
                            envelope = rate_b
                            proposal = t + mass / rate_b if rate_b > 0.0 else inf
                        mass = 0.0
                    # a pulse that may click, before the proposal, leaves it
                    # standing unless it clicks
                    after = pulse_time(nxt) - epoch if nxt < n_pulses else quiet_ps
                    if after / PS_PER_SECOND <= proposal:
                        if after >= quiet_ps:
                            return epoch + quiet_ps
                        u = next_uniform()
                        nxt = next_pulse(nxt, next_uniform())
                        drawn += 2
                        evaluated += 1
                        if u * p_max < click_probability(bias_at(after / PS_PER_SECOND, active)):
                            # a click on the last one's ps is a sub-ps
                            # coincidence the tagger cannot resolve: dropped
                            if after > 0:
                                break
                            dropped += 1
                        continue
                    if proposal >= limit:
                        return epoch + quiet_ps
                    t = proposal
                    proposal = -1.0
                    proposals += 1
                    rate = r_ref * exp(g_dark * (bias_at(t, active) - i_ref))
                    if rate > envelope * (1.0 + 1e-9):
                        raise SimulationError(
                            f"thinning envelope violated {t:.6e} s after ps {epoch}: "
                            f"rate {rate:.3e} > envelope {envelope:.3e}"
                        )
                    drawn += 1
                    if next_uniform() * envelope <= rate:
                        after = round(t * PS_PER_SECOND)
                        if after > 0:
                            break
                        dropped += 1
                    if older:
                        # a proposal without a click is a stopping time: the
                        # lift falls to the older kernels' ages there
                        older, lift, hi = lifted(older, t, k)
                epoch += after
                shift = after / PS_PER_SECOND
        finally:
            totals[:] += (drawn, evaluated, dropped, crossings, proposals)

    def lockstep(x: np.ndarray, e: np.ndarray, u: np.ndarray, first: np.ndarray, taking: np.ndarray):
        """Layer 2 in lockstep (see `simulate`) for the lanes `taking`. Lane
        i is a click at x[i] ps with mass e[i] and first pulse that may click
        first[i]; row i of `u` is its block. A lane that could read past its
        block or would raise is left to the scalar loop, as are the others.
        Returns each lane's last click (-1 if left), each click's lane and
        ps, and each lane's drawn, evaluated, dropped, crossings and
        proposals."""
        n, width = taking.size, LANE_KERNELS
        last, work, u = np.full(x.size, -1, np.int64), np.zeros((5, x.size), np.int64), u.ravel()
        # a lane's state is a column of F and of I. F: its mass, envelope,
        # time since the epoch, lift and proposal (-1 for none), then its
        # kernels' click times, s since the epoch, oldest first, NaN for
        # none, the newest, its own click, at 0. I: its lane, epoch, next
        # pulse that may click, interval, lift end (masses index hi), next
        # uniform (its index in u's rows laid end to end), evaluated,
        # dropped, crossings and proposals
        F, I = np.zeros((6 + width, n)), np.zeros((10, n), np.int64)
        F[0], F[3:5], F[5:5 + width] = e[taking], [[1.0], [-1.0]], np.nan
        I[0], I[1], I[2], I[4], I[5] = taking, x[taking], first[taking], n_int, taking * LANE_DRAWS
        # a new click's time, lift and proposal, and its interval and lift end
        fresh, fresh_k = np.array([[0.0], [1.0], [-1.0]]), np.array([[0], [n_int]])
        old, trains, ended, depth = np.zeros(n, bool), [(taking, x[taking])], [I[:, :0]], 0

        def relift(r):
            # lifted() for the lanes r; the live older kernels are the
            # youngest ones, so one is live if the youngest is
            if r.any():
                older = F[5 + width - depth:5 + width]
                age = t - older
                live = age < kdur
                np.putmask(lift, r, np.multiply.reduce(lifts_x.take(np.where(live, age / ksp, len(lifts)).astype(np.int64)), 0))
                oldest = np.minimum.reduce(np.where(live, older, 0.0), 0)
                np.putmask(hi, r, np.where(live[-1], np.maximum(((oldest + kdur) / ksp).astype(np.int64), k) + 1, n_int))
                np.putmask(old, r, live[-1])

        def walk(w):
            # the interval walk of the lanes w to their proposals; a lane
            # that has found its proposal keeps its state, and so its proposal
            need, (m_k, e_k, s_k, end_k) = w, tab.take(k, 1)
            while True:
                ew = lift * e_k
                on = ew > 0.0
                p = t + np.where(on, mass, inf) / np.where(on, ew, 1.0)
                w = w & (p > end_k)
                if not w.any():
                    break
                np.add(crossings, w, out=crossings)
                # bisect_right(masses, target, k + 1, hi + 1) - 1, at least k + 1
                target = m_k + e_k * (t - s_k) + mass / lift
                np.putmask(k, w, np.minimum(np.maximum(tab[0, 1:].searchsorted(target, "right"), k + 1), hi))
                m_k, e_k, s_k, end_k = tab.take(k, 1)
                np.putmask(mass, w, np.maximum((target - m_k) * lift, 0.0))
                np.putmask(t, w, s_k)
                relift(w & (k == hi) & old)
            np.putmask(env, need, ew)
            np.putmask(prop, need, p)

        for step in range(LANE_STEPS):
            if not F.shape[1]:
                break
            # no lane holds more than `depth` older kernels
            mass, env, t, lift, prop, kernels = *F[:5], F[5 + width - depth:]
            ids, ep, nxt, k, hi, at, evaluated, dropped, crossings, proposals = I
            need = prop < 0.0
            if dark:
                d = need & (mass <= 0.0)
                mass[d] = -_per_lane(log, 1.0 - u.take(at[d]))
                at += d
                walk(need)
                np.putmask(mass, need, 0.0)
            else:
                np.putmask(prop, need, inf)
            lim = np.minimum(quiet_s, (end_ps - ep) / PS_PER_SECOND)
            if n_pulses:
                # a pulse that may click, before the proposal, leaves it
                # standing unless it clicks
                after = np.where(nxt < n_pulses, train.times(nxt) - ep, quiet_ps)
                pulse = after / PS_PER_SECOND <= prop
                done = np.where(pulse, after >= quiet_ps, prop >= lim)
                q = ~(pulse | done)
            else:
                after, done = np.zeros(ids.size, np.int64), prop >= lim
                q = ~done
            ended.append(I.compress(done, 1))
            if step == LANE_STEPS - 1:
                # whatever its pulse or proposal decides, a lane not done
                # after the last step is the scalar loop's
                break
            yes, eject = np.zeros(ids.size, bool), np.zeros(ids.size, bool)
            h = (~(q | done)).nonzero()[0]
            if h.size:
                pos = at.take(h)
                nxt.put(h, np.fromiter(map(next_pulse, nxt.take(h).tolist(), u.take(pos + 1).tolist()), np.int64, h.size))
                bias = lane_bias(after.take(h) / PS_PER_SECOND, kernels.take(h, 1))
                yes.put(h, u.take(pos) * p_max < _per_lane(click_probability, bias))
                # the pulse's draw and its skip, and one pulse evaluated
                I[5:7, h] += [[2], [1]]
            qi = q.nonzero()[0]
            if qi.size:
                t_q, env_q = prop.take(qi), env.take(qi)
                rate = r_ref * _per_lane(exp, g_dark * (lane_bias(t_q, kernels.take(qi, 1)) - i_ref))
                eject.put(qi, rate > env_q * (1.0 + 1e-9))
                yes.put(qi, u.take(at.take(qi)) * env_q <= rate)
                after.put(qi, np.rint(t_q * PS_PER_SECOND))
                t[qi], prop[qi] = t_q, -1.0
                at += q
                proposals += q
            # a click on the last one's ps is a sub-ps coincidence: dropped;
            # a proposal without a click is a stopping time for the lift
            c = yes & (after > 0)
            dropped += yes & ~c
            r = q & ~c & old
            if c.any():
                # a new click: its older kernels are the live ones; a lane
                # that would hold more than LANE_KERNELS leaves
                ep += after * c
                shift = after / PS_PER_SECOND
                live = shift - F[5:] < kdur
                eject |= c & live[0]
                F[5:5 + width] = np.where(c, np.where(live[1:], F[6:] - shift, np.nan), F[5:5 + width])
                depth = min(depth + 1, width)
                F[2:5] = np.where(c, fresh, F[2:5])
                I[3:5] = np.where(c, fresh_k, I[3:5])
                r |= c & live[-1]
                trains.append((ids[c], ep[c]))
            relift(r)
            # a step reads at most a mass and a thinning draw, or a mass, a
            # pulse's draw and its skip
            keep = (~(done | eject) & (at - ids * LANE_DRAWS <= LANE_DRAWS - 2 - (p_max > 0.0))).nonzero()[0]
            F, I, old = F.take(keep, 1), I.take(keep, 1), old.take(keep)
        ended = np.concatenate(ended, 1)
        ended[5] -= ended[0] * LANE_DRAWS
        last[ended[0]], work[:, ended[0]] = ended[1], ended[5:]
        return last, *(np.concatenate(v) for v in zip(*trains)), work

    # a quiescent detector sits at exactly I_b, so every pulse clicks with
    # this one probability, independently of the others and of the dark clicks
    p_quiet = click_probability(i_b)

    def accept(x: np.ndarray, free: int) -> int:
        """Layers 1 and 2 on one time-ordered batch of candidates: accepts
        the lone ones from `free` on in bulk and every other reached one's
        train; returns the new `free`."""
        nonlocal n_lone
        m = x.size
        e = mass_rng.standard_exponential(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the resolver's first bisection from a click with no older
            # kernel live, which lands past the kernel's end; without a
            # kernel it is e / rate_b >= t_q
            spent = masses[-1]
            lone = (e >= spent) & (kdur + (e - spent) / rate_b >= quiet_s)
            if n_int:
                lone &= e / envs[0] > ksp
        # the first pulse after x that may click, one skip on (n_pulses for
        # none), and no pulse in the window that may click, which lies past
        # the pulses before min(x + quiet_ps, end_ps); stamps are whole ps
        if p_max > 0.0:
            first = train.count(x)
            first += np.minimum(window_rng.geometric(p_max, m), n_pulses + 1 - first) - 1
            lone &= first >= train.count(np.minimum(x, end_ps - quiet_ps) + (quiet_ps - 1))
        else:
            first = np.full(m, n_pulses)
        # on a model that can latch every candidate is a lane, and the
        # scalar loop resolves each one the detector reaches
        lone &= not latching
        lanes = np.flatnonzero(~lone)
        u = resolver_rng.random((lanes.size, LANE_DRAWS))
        # a lane within quiet_ps after the candidate before it mostly lies in
        # that one's train, and every lane of a model that can latch is the
        # scalar loop's: it resolves them if they are reached
        close = np.diff(x) < quiet_ps
        taking = np.flatnonzero(~np.append(False, close)[lanes] & (not latching))
        ends, lane, ps, work = lockstep(x[lanes], e[lanes], u, first[lanes], taking)
        # a break: a candidate that is not lone, or has another in its
        # window, so the lone ones between two breaks each lie past the
        # window of the one before. A reached break's train ends at its last
        # click (-1: the scalar loop's), and the first candidate quiet_ps
        # after that is reached next
        breaks = np.flatnonzero(~lone | np.append(close, False))
        is_lane = ~lone[breaks]
        stop = x[breaks]
        stop[is_lane] = ends
        to = np.searchsorted(x - quiet_ps, stop)
        to_at, lane_at, succ = np.searchsorted(breaks, to), np.cumsum(is_lane) - 1, np.arange(1, breaks.size + 1)
        # the turns: the last break, and those after which the next one
        # reached is not the next one, or whose train the scalar loop
        # resolves. From a reached break, every one up to the next turn is
        # reached
        turns = np.flatnonzero((to_at != succ) | (stop < 0) | (succ == breaks.size))
        turn_at, turn_stop, turn_next = turns.tolist(), stop[turns].tolist(), to_at[turns].tolist()
        reached, scalar = np.zeros(breaks.size, bool), []
        runs = [int(x.searchsorted(free))]
        at = int(breaks.searchsorted(runs[0]))
        while at < breaks.size:
            i = bisect.bisect_left(turn_at, at)
            reached[at:turn_at[i] + 1] = True
            if turn_stop[i] < 0:
                c = int(breaks[turn_at[i]])
                free = resolve(int(x[c]), float(e[c]), int(first[c]),
                               itertools.chain(u[lane_at[turn_at[i]]].tolist(), spare).__next__, scalar)
                if latched_at is not None:
                    break
                to[turn_at[i]] = max(int(x.searchsorted(free)), c + 1)
                turn_next[i] = int(breaks.searchsorted(to[turn_at[i]]))
            else:
                free = turn_stop[i] + quiet_ps
            at = turn_next[i]
        # the runs start at the first candidate from free on and past the
        # train of each reached break but one the run latched on
        runs = np.append(runs, to[reached])[:np.count_nonzero(reached) + (latched_at is None)]
        if latched_at is None and runs[-1] < m:
            free = int(x[-1]) + quiet_ps
        # the lone candidates reached: the run from each reached candidate
        # to the next break, and the lone breaks; the lanes reached
        edges = np.zeros(m + 1, np.int64)
        edges[runs] += 1
        edges[np.append(breaks[reached], m)[:runs.size]] -= 1
        taken = np.cumsum(edges[:m]) > 0
        taken[breaks[reached & ~is_lane]] = True
        kept = reached[is_lane] & (ends >= 0)
        n_lone += int(np.count_nonzero(taken))
        out.append(np.sort(np.concatenate([x[taken], ps[kept[lane]], np.array(scalar, np.int64)]),
                           kind="stable"))
        totals[:] += work[:, kept].sum(1)
        return free

    def successes(gen: np.random.Generator, p: float, n: int, site):
        """The ps `site` of the trials, 1 to n, that succeed among n Bernoulli(p)
        trials, as geometric skips (Devroye 1986) in chunks of at most
        CANDIDATE_CHUNK, each with whether more may follow; none if p = 0."""
        at = 0
        while p > 0.0 and at < n:
            m = min(CANDIDATE_CHUNK, int(p * (n - at) * 1.1) + 16)
            # each skip clamped to n + 1, as is one NumPy saturated at
            # INT64_MAX, so the first sum past n is below 2**64 and the
            # uint64 sums are exact up to it
            skips = gen.geometric(p, m).astype(np.uint64)
            skips[skips >= min(n + 1, INT64_MAX)] = n + 1
            trials = np.cumsum(skips) + np.uint64(at)
            k = int(np.argmax(np.append(trials > n, True)))
            at = int(trials[-1]) if k == m else n
            yield site(trials[:k].astype(np.int64)), k == m

    # the candidates: a dark one on each ps of the run on which the
    # quiescent process has a point, from the run's own generator, and a
    # laser one on each pulse that clicks at p_quiet, from a spawned one.
    # Each stream is merged in time order up to the earlier of the last
    # drawn of those that may draw more
    p_dark = -math.expm1(-rate_b / PS_PER_SECOND)
    streams = [
        successes(rng, p_dark, end_ps - start_ps, lambda trials: start_ps + trials),
        successes(laser_rng, p_quiet, n_pulses, lambda trials: train.times(trials - 1)),
    ]
    pending = [(np.empty(0, np.int64), True)] * len(streams)
    free, n_candidates = start_ps, 0
    while latched_at is None and any(more for _, more in pending):
        pending = [next(draw, (x, False)) if more and not x.size else (x, more)
                   for draw, (x, more) in zip(streams, pending)]
        ends = [x[-1] for x, more in pending if more]
        cut = min(ends) if ends else INT64_MAX
        cuts = [int(np.searchsorted(x, cut, side="right")) for x, _ in pending]
        batch = np.sort(np.concatenate([x[:k] for (x, _), k in zip(pending, cuts)]), kind="stable")
        pending = [(x[k:], more) for (x, more), k in zip(pending, cuts)]
        if batch.size:
            free = accept(batch, free)
            # a latched run counts no candidate after its latch
            n_candidates += batch.size if latched_at is None else int(np.count_nonzero(batch <= latched_at))

    # every pulse up to the latch that the resolver did not evaluate was a
    # candidate, one that could not click, or decided with one (stepped over)
    pulses = n_pulses if latched_at is None else int(train.count(latched_at))
    drawn, evaluated, dropped, crossings, proposals = totals.tolist()
    # a candidate's time, its mass and, if a pulse can click, its skip
    uniforms = n_candidates * (2 + (p_max > 0.0)) + drawn
    counters = (uniforms, evaluated, pulses - evaluated, dropped, crossings, n_lone, proposals)
    clicks = np.concatenate(out) if out else np.empty(0, np.int64)
    return clicks, {**dict(zip(ENGINE_COUNTERS, counters)), "latched_at_ps": latched_at}
