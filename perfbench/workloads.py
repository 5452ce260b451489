"""The three benchmark workloads.

Each workload is built once per process from the seed (its inputs, models
and per-iteration seeds) and then runs `iteration(k, tracer, checks)` as
often as the run lasts, at least until `enough()` holds. Every call into the
package goes through `tracer.call("<layer>.<operation>", fn, ...)`, so the
traced run can time each layer without touching the package itself. An
iteration returns its work counts; `items` is the unit its throughput is
quoted in. `finish(checks)` judges, once per run, the physics checks whose
counts are pooled over all iterations: one iteration holds too few counts
to tell a right model from a wrong one.
"""

from __future__ import annotations

import math
import os

import numpy as np

from snspdsim import (
    Histogram,
    StimulusConfig,
    TimeTagStream,
    afterpulse_probability,
    branching_probability,
    classify_trains,
    conditional_histogram,
    corrected_dcr,
    fit_exponential,
    interarrival_histogram,
    read_stream,
    recovery_curve,
    simulate,
    write_stream,
    write_stream_csv,
)
from snspdsim import presets
from snspdsim.analysis import second_pulse_efficiency

TRAIN_GAP_PS = 1_000_000          # analysis default: the 1000 ns afterpulse horizon
ACCEPTANCE_BIN_PS = 4_000         # recovery_curve default acceptance bin
CONDITIONAL_WINDOW_PS = 2_000_000
DOUBLE_PULSE_WINDOW_S = 2e-6

# workload sizes at --scale 1
DARK_BIAS = 25.2e-6
DARK_COUNTS = 5_000               # primary dark counts; afterpulses add ~18%
DOUBLE_BIAS = 24.9e-6
DOUBLE_SEPARATIONS_NS = (80, 180, 1000)   # dead time, overshoot, settled
DOUBLE_WINDOWS = 100_000          # frames per separation
# pooled second-pulse detections a recovered detector would give at each
# separation before the recovery checks are judged: at 100 the 5-sigma
# band is half of nominal, so eta = 0 or eta = nominal at 80 ns fails
DOUBLE_MIN_EXPECTED_SECOND = 100
TAG_SLOTS = 880_000               # ~1.07M detector events, 220k sync records


class Checks:
    """Correctness checks of one run; each one counts as attempted."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, passed, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, passed, _ in self.results if not passed)


class Workload:
    def enough(self) -> bool:
        """Whether enough has been pooled for the checks judged in finish()."""
        return True

    def finish(self, checks: Checks) -> None:
        """Judge the checks on counts pooled over the run's iterations."""


def _round_trip(tracer, stream, path, write_name, write_fn, read_name):
    """Write, read back and return (stream read, records, bytes written)."""
    tracer.call(write_name, write_fn, stream, path)
    back = tracer.call(read_name, read_stream, path)
    records = stream.detector_events.size + stream.sync_events.size
    return back, records, os.path.getsize(path)


class DarkAfterpulse(Workload):
    """Dark counts with the perturbation kernel at 25.2 uA (the fig4 regime).

    Kernel thinning is the engine's worst path, and no laser pulse is sent.
    """

    name = "dark-afterpulse"

    def __init__(self, seed: int, scale: float, work_dir):
        self.seed = seed
        self.model = presets.profile_model(DARK_BIAS)
        target = max(int(DARK_COUNTS * scale), 1)
        self.duration = target / float(self.model.rates.dark_rate(DARK_BIAS))
        self.path = os.path.join(work_dir, "dark.nptt")
        self.sizes = {"bias_a": DARK_BIAS, "duration_s": self.duration, "primary_dark_counts": target}
        self.branching = branching_probability(self.model)
        self.clicks = self.close = 0
        self.pooled_k = set()   # a traced run repeats each k; pool it once

    def finish(self, checks: Checks) -> None:
        # each click has a further click within 1 us with the model's
        # branching probability, so the pooled fraction of clicks with a
        # close predecessor is binomial around it; 5 sigma
        if self.clicks == 0:
            return
        p, p_model = self.close / self.clicks, self.branching
        sigma = math.sqrt(p_model * (1.0 - p_model) / self.clicks)
        checks.expect(
            "dark/afterpulse-fraction-vs-model",
            abs(p - p_model) <= 5 * sigma,
            f"{p:.5f} vs branching probability {p_model:.5f} +- {sigma:.2g} over {self.clicks} clicks",
        )

    def iteration(self, k: int, tracer, checks: Checks) -> dict:
        stream = tracer.call(
            "simulation.simulate", simulate, self.model, StimulusConfig.none(),
            self.duration, presets.subseed(self.seed, 1, k),
        )
        back, records, nbytes = _round_trip(
            tracer, stream, self.path, "timetags.write_nptt", write_stream, "timetags.read_nptt"
        )
        checks.expect("dark/nptt-round-trip", back == stream)
        events = back.detector_events
        fine = tracer.call("analysis.interarrival_histogram", interarrival_histogram, events, 4_000, 500_000)
        coarse = tracer.call(
            "analysis.interarrival_histogram", interarrival_histogram, events, 100_000_000, 2_500_000_000
        )
        fit = tracer.call("analysis.fit_exponential", fit_exponential, coarse, 1, 10)
        p = tracer.call("analysis.afterpulse_probability", afterpulse_probability, events)
        total, corrected = tracer.call("analysis.corrected_dcr", corrected_dcr, events, back.duration_ps)
        trains = tracer.call("analysis.classify_trains", classify_trains, events)

        peak_ns = (int(np.argmax(fine.counts)) + 0.5) * 4
        checks.expect("dark/afterpulse-peak-140-220ns", 140 <= peak_ns <= 220, f"peak at {peak_ns} ns")
        checks.expect("dark/fit-decays", fit.rate > 0, f"rate {fit.rate:.4g}/s")
        # regression checks: they restate the package's own formulas, so
        # they catch a change of those formulas, not a wrong simulation
        checks.expect("dark/corrected-dcr-identity", corrected == total * (1.0 - p))
        close = int(np.count_nonzero(np.diff(events) < TRAIN_GAP_PS))
        checks.expect("dark/trains-partition-clicks", trains.n_trains == events.size - close)
        n = int(events.size)
        if k not in self.pooled_k:
            self.pooled_k.add(k)
            self.clicks += n
            self.close += close
        return {"items": n, "clicks": n, "pulses": 0, "records": records, "bytes": nbytes}


class DoublePulse(Workload):
    """Double-pulse frames at 24.9 uA, mu = 1 (the fig10 regime).

    Almost every pulse meets a recovered detector, so the pulse loop
    dominates and dark thinning does almost nothing.
    """

    name = "double-pulse"

    def __init__(self, seed: int, scale: float, work_dir):
        self.seed = seed
        self.model = presets.profile_model(DOUBLE_BIAS)
        self.windows = max(int(DOUBLE_WINDOWS * scale), 1)
        self.duration = self.windows * DOUBLE_PULSE_WINDOW_S
        self.nominal = presets.nominal_detection_probability(DOUBLE_BIAS, 1.0)
        self.frames = 0
        self.pooled = {}        # separation in ns -> conditional histogram counts
        self.pooled_k = set()   # a traced run repeats each k; pool it once
        self.sizes = {
            "bias_a": DOUBLE_BIAS,
            "separations_ns": list(DOUBLE_SEPARATIONS_NS),
            "windows_per_separation": self.windows,
        }

    def enough(self) -> bool:
        return self.frames * self.nominal ** 2 >= DOUBLE_MIN_EXPECTED_SECOND

    def recovery(self):
        """eta and its 3-sigma error per separation, from the conditional
        histograms pooled over every iteration so far."""
        out = {}
        for sep_ns, counts in self.pooled.items():
            hist = Histogram(ACCEPTANCE_BIN_PS, 0, counts, int(counts.sum()))
            out[sep_ns] = second_pulse_efficiency(hist, sep_ns * 1000)
        return out

    def finish(self, checks: Checks) -> None:
        if not self.pooled:
            return
        judge_recovery(self.recovery(), self.nominal, checks)

    def iteration(self, k: int, tracer, checks: Checks) -> dict:
        runs = []
        clicks = pulses = 0
        new = k not in self.pooled_k
        self.pooled_k.add(k)
        for j, sep_ns in enumerate(DOUBLE_SEPARATIONS_NS):
            stimulus = StimulusConfig.double_pulse(sep_ns * 1e-9, 1.0, DOUBLE_PULSE_WINDOW_S)
            stream = tracer.call(
                "simulation.simulate", simulate, self.model, stimulus,
                self.duration, presets.subseed(self.seed, 2, k, j),
            )
            runs.append((sep_ns * 1000, stream))
            clicks += stream.detector_events.size
            pulses += 2 * stream.sync_events.size
            hist = tracer.call(
                "analysis.conditional_histogram", conditional_histogram,
                stream, CONDITIONAL_WINDOW_PS, ACCEPTANCE_BIN_PS,
            )
            # first-pulse detections: binomial in the frames (~750), 5 sigma
            n1, expected = int(hist.counts[0]), stream.sync_events.size * self.nominal
            checks.expect(
                f"double/first-pulse-count-{sep_ns}ns",
                abs(n1 - expected) <= 5 * math.sqrt(expected),
                f"{n1} vs {expected:.1f}",
            )
            if new:
                pooled = self.pooled.get(sep_ns)
                self.pooled[sep_ns] = hist.counts.copy() if pooled is None else pooled + hist.counts
        if new:
            self.frames += self.windows
        curve = tracer.call("analysis.recovery_curve", recovery_curve, runs, ACCEPTANCE_BIN_PS)
        checks.expect(
            "double/recovery-curve-separations",
            curve.separations_ps.tolist() == [s * 1000 for s in DOUBLE_SEPARATIONS_NS],
        )
        return {"items": pulses, "clicks": clicks, "pulses": pulses, "records": 0, "bytes": 0}


def judge_recovery(recovery: dict, nominal: float, checks: Checks) -> None:
    """The recovery signature on pooled counts: dead at 80 ns, back to
    nominal at 1000 ns. `recovery` maps separation (ns) to eta and its
    3-sigma error (the package's second_pulse_efficiency)."""
    eta, err = recovery[80]
    checks.expect(
        "double/dead-at-80ns",
        eta - err < 0.1 * nominal,
        f"eta(80 ns) {eta:.3g} +- {err:.2g} (3 sigma) vs nominal {nominal:.4g}",
    )
    eta, err = recovery[1000]
    checks.expect(
        "double/settled-at-1000ns",
        abs(eta - nominal) <= 5 / 3 * err,
        f"eta(1000 ns) {eta:.4g} +- {err:.2g} (3 sigma) vs nominal {nominal:.4g}",
    )


def make_tagstream(seed: int, slots: int):
    """A synthetic detector + sync stream with planted structure.

    Time is cut into 5 us slots; every fourth slot starts with a sync
    trigger (a 20 us period). A sync slot holds, with probability 1/2, an
    anchored click in the first 4 ns after its trigger, followed with
    probability 0.3 by a second click at 80, 180 or 1000 ns in the
    acceptance bin of that separation. Every slot without an anchored
    click holds, with probability 0.9, an afterpulse train: a head 0.2-1.2
    us into the slot and up to 7 followers at 40-380 ns gaps (truncated
    exponential). Slots
    are laid out so that any two events of different slots are at least
    1 us apart, so the train and window structure is known exactly.

    Returns the stream and the counts the analyses must reproduce.
    """
    slot_ps, sync_every = 5_000_000, 4
    slots = max(sync_every, slots - slots % sync_every)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    starts = np.arange(slots, dtype=np.int64) * slot_ps
    is_sync = np.arange(slots) % sync_every == 0
    anchored = is_sync & (rng.random(slots) < 0.5)
    train = ~anchored & (rng.random(slots) < 0.9)

    lengths = np.minimum(rng.geometric(0.75, int(train.sum())), 8)
    heads = starts[train] + 200_000 + rng.integers(0, 1_000_000, lengths.size)
    gaps = 40_000 + (rng.exponential(120_000.0, int(lengths.sum())) % 340_000).astype(np.int64)
    first = np.cumsum(lengths) - lengths
    gaps[first] = 0
    within = np.cumsum(gaps)
    within -= np.repeat(within[first], lengths)
    train_events = np.repeat(heads, lengths) + within

    anchor_starts = starts[anchored]
    delta = rng.integers(0, ACCEPTANCE_BIN_PS, anchor_starts.size)
    has_second = rng.random(anchor_starts.size) < 0.3
    separations = np.array(DOUBLE_SEPARATIONS_NS, dtype=np.int64) * 1000
    which = rng.integers(0, separations.size, anchor_starts.size)
    # at 1000 ns the second click must not join the anchor's train: keep
    # its gap at or above 1000 ns by drawing its offset at or after delta
    low = np.where(separations[which] >= TRAIN_GAP_PS, delta, 0)
    delta2 = rng.integers(low, ACCEPTANCE_BIN_PS)
    second_events = (anchor_starts + separations[which] + delta2)[has_second]

    detector = np.sort(np.concatenate([train_events, anchor_starts + delta, second_events]))
    stream = TimeTagStream(
        detector, starts[is_sync], slots * slot_ps, {"generator": "perfbench-tagstream", "seed": seed}
    )

    seconds = which[has_second]
    per_sep = {int(s): int(np.count_nonzero(seconds == i)) for i, s in enumerate(separations)}
    joined = sum(n for s, n in per_sep.items() if s < TRAIN_GAP_PS)
    n_anchored = int(anchor_starts.size)
    # train lengths: each planted train, anchored clicks alone or joined
    # with a close second click, and far second clicks on their own
    all_lengths = np.concatenate(
        [lengths, np.ones(n_anchored - joined + per_sep[TRAIN_GAP_PS], np.int64), np.full(joined, 2)]
    )
    close = int((lengths - 1).sum()) + joined
    planted = {
        "events": int(detector.size),
        "anchored": n_anchored,
        "second_by_separation_ps": per_sep,
        "train_counts": [int(np.count_nonzero(np.minimum(all_lengths, 6) == n)) for n in range(1, 7)],
        "close_pairs": close,
    }
    return stream, planted


class Tagstream(Workload):
    """At least 1M detector events plus a periodic sync channel, generated
    with NumPy; the engine and the circuit do no work, so I/O dominates."""

    name = "tagstream"

    def __init__(self, seed: int, scale: float, work_dir):
        self.stream, self.planted = make_tagstream(seed, max(int(TAG_SLOTS * scale), 4))
        self.nptt = os.path.join(work_dir, "tags.nptt")
        self.csv = os.path.join(work_dir, "tags.csv")
        self.sizes = {
            "detector_events": self.planted["events"],
            "sync_events": int(self.stream.sync_events.size),
            "duration_ps": self.stream.duration_ps,
        }

    def iteration(self, k: int, tracer, checks: Checks) -> dict:
        stream, planted = self.stream, self.planted
        from_nptt, rec_nptt, bytes_nptt = _round_trip(
            tracer, stream, self.nptt, "timetags.write_nptt", write_stream, "timetags.read_nptt"
        )
        checks.expect("tags/nptt-round-trip", from_nptt == stream)
        from_csv, rec_csv, bytes_csv = _round_trip(
            tracer, stream, self.csv, "timetags.write_csv", write_stream_csv, "timetags.read_csv"
        )
        checks.expect("tags/csv-round-trip", from_csv == stream)

        events = from_nptt.detector_events
        n = int(events.size)
        hist = tracer.call("analysis.interarrival_histogram", interarrival_histogram, events, 4_000, TRAIN_GAP_PS)
        checks.expect(
            "tags/interarrival-counts",
            hist.total_events == n - 1 and int(hist.counts.sum()) == planted["close_pairs"],
        )
        fit = tracer.call("analysis.fit_exponential", fit_exponential, hist, 1, 10)
        checks.expect("tags/fit-decays", fit.rate > 0, f"rate {fit.rate:.4g}/s")
        p = tracer.call("analysis.afterpulse_probability", afterpulse_probability, events, TRAIN_GAP_PS)
        checks.expect("tags/afterpulse-fraction", p == planted["close_pairs"] / n, f"{p!r}")
        total, corrected = tracer.call(
            "analysis.corrected_dcr", corrected_dcr, events, from_nptt.duration_ps, TRAIN_GAP_PS
        )
        checks.expect(
            "tags/corrected-dcr",
            total == n / (from_nptt.duration_ps * 1e-12) and corrected == total * (1.0 - p),
        )
        trains = tracer.call("analysis.classify_trains", classify_trains, events, TRAIN_GAP_PS)
        checks.expect(
            "tags/train-counts",
            trains.counts_by_length.tolist() == planted["train_counts"],
            f"{trains.counts_by_length.tolist()} vs planted {planted['train_counts']}",
        )
        cond = tracer.call(
            "analysis.conditional_histogram", conditional_histogram,
            from_nptt, CONDITIONAL_WINDOW_PS, ACCEPTANCE_BIN_PS,
        )
        seconds = planted["second_by_separation_ps"]
        expected_bins = {0: planted["anchored"]}
        expected_bins.update({s // ACCEPTANCE_BIN_PS: c for s, c in seconds.items()})
        checks.expect(
            "tags/anchored-bins",
            all(int(cond.counts[b]) == c for b, c in expected_bins.items())
            and cond.total_events == sum(expected_bins.values()),
        )
        curve = tracer.call(
            "analysis.recovery_curve", recovery_curve,
            [(s, from_nptt) for s in seconds], ACCEPTANCE_BIN_PS, CONDITIONAL_WINDOW_PS,
        )
        expected_eta = [seconds[s] / planted["anchored"] for s in sorted(seconds)]
        checks.expect("tags/recovery-efficiency", curve.efficiency.tolist() == expected_eta)
        return {
            "items": rec_nptt, "clicks": 0, "pulses": 0,
            "records": rec_nptt + rec_csv, "bytes": bytes_nptt + bytes_csv,
        }


WORKLOADS = {w.name: w for w in (DarkAfterpulse, DoublePulse, Tagstream)}
