"""Statistical procedures over time-tag streams.

Everything operates on integer picosecond timestamps, so results are exact,
shift-invariant and bit-reproducible; the tables convert to seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError
from .simulation import TimeTagStream

DEFAULT_WINDOW_PS = 1_000_000       # 1000 ns, the afterpulse horizon
PS = 1e-12


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned counts; bins are right-open, index = floor((t - origin)/width)."""

    bin_width_ps: int
    origin_ps: int
    counts: np.ndarray
    total_events: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.bin_width_ps <= 0:
            raise ConfigError("bin_width_ps must be positive")
        if np.any(self.counts < 0):
            raise ConfigError("counts must be non-negative")
        if int(self.counts.sum()) > self.total_events:
            raise ConfigError("sum(counts) cannot exceed total_events")

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bin_width_ps == other.bin_width_ps
            and self.origin_ps == other.origin_ps
            and self.total_events == other.total_events
            and np.array_equal(self.counts, other.counts)
        )

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def bin_starts_ps(self) -> np.ndarray:
        return self.origin_ps + np.arange(self.n_bins, dtype=np.int64) * self.bin_width_ps

    @property
    def bin_centers_seconds(self) -> np.ndarray:
        return (self.bin_starts_ps + 0.5 * self.bin_width_ps) * PS


def interarrival_histogram(events, bin_width_ps: int, max_time_ps: int) -> Histogram:
    """Histogram of consecutive click gaps.

    Gaps at or beyond `max_time_ps` count toward total_events but are not
    binned. Fewer than two events give an all-zero histogram.
    """
    events = np.asarray(events, dtype=np.int64)
    if bin_width_ps <= 0 or max_time_ps <= 0:
        raise ConfigError("bin_width_ps and max_time_ps must be positive")
    n_bins = -(-max_time_ps // bin_width_ps)  # ceil
    if events.size < 2:
        return Histogram(bin_width_ps, 0, np.zeros(n_bins, np.int64), 0)
    gaps = np.diff(events)
    binned = gaps[gaps < max_time_ps] // bin_width_ps
    counts = np.bincount(binned, minlength=n_bins)
    return Histogram(bin_width_ps, 0, counts, int(gaps.size))


@dataclass(frozen=True)
class ExpFit:
    """Exponential decay fitted to histogram counts.

    Weighted least squares of log(count) against the bin center, with the
    counts themselves as weights.
    """

    rate: float                 # 1/s
    amplitude: float            # counts per fitted bin at t = 0
    r_squared: float
    bins_used: tuple[int, int]  # [first, last+1) index range of used bins
    bin_width_s: float = field(repr=False, default=0.0)
    origin_s: float = field(repr=False, default=0.0)

    def predict_bins(self, n_bins: int) -> np.ndarray:
        """Extrapolated per-bin prediction for bins 0..n_bins-1."""
        centers = self.origin_s + (np.arange(n_bins) + 0.5) * self.bin_width_s
        return self.amplitude * np.exp(-self.rate * centers)

    def predict_interval(self, lo_s: float, hi_s: float) -> float:
        """Predicted count in an arbitrary interval [lo_s, hi_s).

        Converts the per-bin amplitude into the implied continuous density
        before integrating, so narrow bins are predicted consistently.
        """
        lam, width = self.rate, self.bin_width_s
        c = self.amplitude * math.exp(-lam * width / 2.0) / (1.0 - math.exp(-lam * width))
        return c * (math.exp(-lam * lo_s) - math.exp(-lam * hi_s))


def weighted_line_fit(x, y, w):
    """Least-squares line y = intercept + slope * x with weights w (1/sigma^2);
    returns slope, intercept and the weighted R^2."""
    x, y, w = (np.asarray(a, dtype=np.float64) for a in (x, y, w))
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(w))
    y_hat = intercept + slope * x
    y_bar = np.average(y, weights=w)
    ss_res = np.sum(w * (y - y_hat) ** 2)
    ss_tot = np.sum(w * (y - y_bar) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def fit_exponential(
    hist: Histogram, discard_first: int = 1, min_bin_count: int = 10
) -> ExpFit:
    """Fit A*exp(-rate*t) to histogram bins, skipping the first
    `discard_first` bins and every bin with fewer than `min_bin_count`
    counts (the sparse tail)."""
    if discard_first < 0:
        raise ConfigError(f"discard_first must be non-negative, got {discard_first}")
    if min_bin_count < 1:
        raise ConfigError(f"min_bin_count must be at least 1, got {min_bin_count}")
    counts = hist.counts
    idx = np.arange(counts.size)
    usable = (idx >= discard_first) & (counts >= min_bin_count)
    if usable.sum() < 5:
        raise FitError(
            f"only {int(usable.sum())} usable bins after discards; need at least 5"
        )
    slope, intercept, r2 = weighted_line_fit(
        hist.bin_centers_seconds[usable],
        np.log(counts[usable].astype(np.float64)),
        counts[usable].astype(np.float64),
    )
    if slope >= 0:
        raise FitError("histogram does not decay; fitted rate would be non-positive")
    used = idx[usable]
    return ExpFit(
        rate=-float(slope),
        amplitude=float(np.exp(intercept)),
        r_squared=float(r2),
        bins_used=(int(used[0]), int(used[-1]) + 1),
        bin_width_s=hist.bin_width_ps * PS,
        origin_s=hist.origin_ps * PS,
    )


def afterpulse_probability(events, window_ps: int = DEFAULT_WINDOW_PS):
    """Fraction of clicks whose predecessor lies within `window_ps`.

    Returns None for an empty stream (the quantity is undefined there).
    """
    if window_ps <= 0:
        raise ConfigError(f"afterpulse window must be positive, got {window_ps} ps")
    events = np.asarray(events, dtype=np.int64)
    if events.size == 0:
        return None
    if events.size == 1:
        return 0.0
    gaps = np.diff(events)
    return float(np.count_nonzero(gaps < window_ps) / events.size)


def corrected_dcr(events, duration_ps: int, window_ps: int = DEFAULT_WINDOW_PS):
    """(total_rate, corrected_rate) in counts/s.

    The corrected rate drops every click within `window_ps` of its
    predecessor, i.e. the afterpulses: it is total * (1 - p) with p from
    afterpulse_probability (0 for an empty stream).
    """
    if duration_ps <= 0:
        raise ConfigError("duration_ps must be positive")
    events = np.asarray(events, dtype=np.int64)
    total = events.size / (duration_ps * PS)
    p = afterpulse_probability(events, window_ps) or 0.0
    return total, total * (1.0 - p)


@dataclass(frozen=True, eq=False)
class TrainDistribution:
    """Counts of click trains by length; lengths >= 6 share one bucket."""

    counts_by_length: np.ndarray   # index n-1 holds trains of length n; [5] is "6 or more"
    gap_ps: int
    total_events: int

    def __post_init__(self):
        arr = np.asarray(self.counts_by_length, dtype=np.int64)
        if arr.shape != (6,):
            raise ConfigError("counts_by_length must have exactly 6 buckets")
        object.__setattr__(self, "counts_by_length", arr)

    def count(self, n: int) -> int:
        if not 1 <= n <= 6:
            raise ConfigError("train length bucket must be 1..6 (6 means '6 or more')")
        return int(self.counts_by_length[n - 1])

    @property
    def n_trains(self) -> int:
        return int(self.counts_by_length.sum())


def classify_trains(events, gap_ps: int = DEFAULT_WINDOW_PS) -> TrainDistribution:
    """Greedy left-to-right grouping into afterpulse trains.

    A train keeps absorbing the next click while it falls within `gap_ps`
    of the train's current last click; every click belongs to exactly one
    train.
    """
    if gap_ps <= 0:
        raise ConfigError(f"train gap must be positive, got {gap_ps} ps")
    events = np.asarray(events, dtype=np.int64)
    counts = np.zeros(6, dtype=np.int64)
    if events.size:
        breaks = np.diff(events) >= gap_ps
        # train lengths = run lengths between break positions
        edges = np.flatnonzero(breaks)
        lengths = np.diff(np.concatenate([[-1], edges, [events.size - 1]]))
        counts = np.bincount(np.minimum(lengths, 6), minlength=7)[1:]
    return TrainDistribution(counts, gap_ps, int(events.size))


def conditional_histogram(
    stream: TimeTagStream,
    window_ps: int = 2_000_000,
    bin_ps: int = 20_000,
) -> Histogram:
    """Histogram of detector-click delays after a sync trigger, keeping only
    windows where the trigger itself produced a click in the first bin.

    Every histogrammed event lands in a bin, so total_events equals
    sum(counts); the count of first-pulse detections is counts[0].

    Cost, with C clicks, T triggers and A kept windows: O(T log C) to find
    each trigger's first click if clicks are at least as many as triggers,
    else O(C log T + A) to find the kept triggers of each click (double-pulse
    frames); then O(A log C), one search per kept window, plus its clicks.
    """
    if stream.sync_events.size == 0:
        raise ConfigError("conditional histogram needs a non-empty sync channel")
    if bin_ps <= 0 or window_ps <= 0 or window_ps < bin_ps:
        raise ConfigError("need 0 < bin_ps <= window_ps")
    det = stream.detector_events
    sync = stream.sync_events
    # complete windows only, as a view: no trigger + window_ps can overflow
    sync = sync[: np.searchsorted(sync, stream.duration_ps - window_ps, side="right")]
    n_bins = -(-window_ps // bin_ps)
    if det.size == 0:
        return Histogram(bin_ps, 0, np.zeros(n_bins, np.int64), 0)
    # a window is kept when its trigger's first click, at or after it, lies
    # in the first bin; only the kept ones are searched for their end
    if det.size >= sync.size:
        # a trigger after the last click is kept too (take clips to that
        # click), but its window holds no click: lo = hi = det.size
        lo = np.searchsorted(det, sync)
        accepted = det.take(lo, mode="clip") - sync < bin_ps
        lo, anchors = lo[accepted], sync[accepted]
    else:
        # click i is the first at or after the triggers in (det[i-1], det[i]],
        # and keeps those in (det[i] - bin_ps, det[i]]: one slice of triggers
        floor = det - bin_ps
        floor[1:] = np.maximum(floor[1:], det[:-1])
        first = np.searchsorted(sync, floor, side="right")
        kept = np.searchsorted(sync, det, side="right") - first
        lo = np.repeat(np.arange(det.size), kept)
        anchors = sync[np.arange(lo.size) + np.repeat(first - (np.cumsum(kept) - kept), kept)]
    hi = np.searchsorted(det, anchors + window_ps)
    per_window = hi - lo
    total = int(per_window.sum())
    if total == 0:
        return Histogram(bin_ps, 0, np.zeros(n_bins, np.int64), 0)
    # flatten [lo_w, hi_w) index ranges into one event-index array
    offsets = np.arange(total) - np.repeat(np.cumsum(per_window) - per_window, per_window)
    ev = det[np.repeat(lo, per_window) + offsets]
    dt = ev - np.repeat(anchors, per_window)
    counts = np.bincount(dt // bin_ps, minlength=n_bins)
    return Histogram(bin_ps, 0, counts, total)


@dataclass(frozen=True, eq=False)
class RecoveryCurve:
    """Second-pulse detection probability vs pulse separation."""

    separations_ps: np.ndarray
    efficiency: np.ndarray
    stat_error: np.ndarray       # +-3*sqrt(N) counting statistics

    def __post_init__(self):
        sep = np.asarray(self.separations_ps, dtype=np.int64)
        object.__setattr__(self, "separations_ps", sep)
        object.__setattr__(self, "efficiency", np.asarray(self.efficiency, float))
        object.__setattr__(self, "stat_error", np.asarray(self.stat_error, float))
        if sep.size and np.any(np.diff(sep) <= 0):
            raise ConfigError("separations must be strictly increasing")


def second_pulse_efficiency(
    hist: Histogram,
    separation_ps: int,
    neighbors_per_side: int = 2,
    ratio: str = "first-detected",
):
    """Afterpulse-corrected second-pulse efficiency from one conditional
    histogram whose bin width is the acceptance bin.

    The afterpulse background under the second-pulse bin is estimated as
    the mean of `neighbors_per_side` bins on each side and subtracted; the
    result is divided by the number of first-pulse detections, which is the
    histogram's t = 0 bin (or, with ratio="first-only", by the windows
    where only the first pulse fired).
    """
    bin_ps = hist.bin_width_ps
    if separation_ps < 2 * bin_ps:
        raise ConfigError(
            f"separation {separation_ps} ps collides with the first-pulse bin "
            f"(acceptance bin {bin_ps} ps)"
        )
    if neighbors_per_side < 1:
        raise ConfigError("neighbors_per_side must be >= 1")
    if ratio not in ("first-detected", "first-only"):
        raise ConfigError(f"unknown ratio mode {ratio!r}")
    idx = separation_ps // bin_ps
    sides = [idx - k for k in range(1, neighbors_per_side + 1)]
    sides += [idx + k for k in range(1, neighbors_per_side + 1)]
    if min(sides) <= 0 or max(sides) >= hist.n_bins:
        raise ConfigError("background bins fall outside the histogram")
    neighbors = hist.counts[sides].astype(float)
    background = float(neighbors.mean())
    raw = float(hist.counts[idx])
    signal = raw - background
    n_first = int(hist.counts[0])
    if n_first == 0:
        raise ConfigError("no first-pulse detections to normalize by")
    denom = n_first if ratio == "first-detected" else n_first - signal
    if denom <= 0:
        raise ConfigError("no windows with only the first pulse detected")
    eta = max(signal / denom, 0.0)
    err = 3.0 * math.sqrt(raw + neighbors.sum() / len(sides) ** 2) / denom
    return eta, err


def recovery_curve(
    runs, acceptance_bin_ps: int = 4_000, window_ps: int | None = None, **efficiency_options
) -> RecoveryCurve:
    """Double-pulse efficiency-recovery estimator.

    `runs` is an iterable of (separation_ps, TimeTagStream) pairs, one run
    per pulse separation. `window_ps` (None: `conditional_histogram`'s) and
    `efficiency_options` (for `second_pulse_efficiency`) default in the callee.
    """
    if acceptance_bin_ps > 5_000:
        raise ConfigError("acceptance bin must be at most 5 ns")
    window = {} if window_ps is None else {"window_ps": window_ps}
    points = []
    for separation_ps, stream in runs:
        hist = conditional_histogram(stream, bin_ps=acceptance_bin_ps, **window)
        eta, err = second_pulse_efficiency(hist, int(separation_ps), **efficiency_options)
        points.append((int(separation_ps), eta, err))
    points.sort(key=lambda p: p[0])
    sep, eta, err = zip(*points) if points else ((), (), ())
    return RecoveryCurve(np.array(sep, np.int64), np.array(eta), np.array(err))


# ---------------------------------------------------------------------------
# plot-ready tables: (header, rows) pairs for `tables.write_csv`; the rows
# are one-pass iterators, so a large histogram is never held as tuples


def histogram_table(hist: Histogram):
    """Schema: bin_start_s,count"""
    return "bin_start_s,count", zip(hist.bin_starts_ps * PS, hist.counts)


def expfit_table(hist: Histogram, fit: ExpFit):
    """Schema: bin_start_s,count,fit (the fit's extrapolated count per bin)"""
    rows = zip(hist.bin_starts_ps * PS, hist.counts, fit.predict_bins(hist.n_bins))
    return "bin_start_s,count,fit", rows


def recovery_table(curve: RecoveryCurve):
    """Schema: separation_s,efficiency,err"""
    rows = zip(curve.separations_ps * PS, curve.efficiency, curve.stat_error)
    return "separation_s,efficiency,err", rows


def trains_table(dist: TrainDistribution):
    """Schema: n,count (n = 6 means "6 or more")"""
    return "n,count", [(n, dist.count(n)) for n in range(1, 7)]
