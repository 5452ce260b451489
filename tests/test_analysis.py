"""Analysis tests: worked examples with hand-computed oracles, property
tests, and exact agreement with the naive references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snspdsim import presets
from snspdsim.analysis import (
    Histogram,
    afterpulse_probability,
    classify_trains,
    conditional_histogram,
    corrected_dcr,
    fit_exponential,
    interarrival_histogram,
    recovery_curve,
    second_pulse_efficiency,
    weighted_line_fit,
)
from snspdsim.errors import ConfigError, FitError
from snspdsim.simulation import INT64_MAX, StimulusConfig, TimeTagStream, simulate

from reference_impls import (
    naive_afterpulse_probability,
    naive_classify_trains,
    naive_conditional_histogram,
    naive_corrected_dcr,
    naive_interarrival_histogram,
)

MS = 1_000_000_000_000 // 1000  # 1 ms in ps
US = 1_000_000


def sorted_stream(draw_gaps):
    return np.cumsum(np.asarray(draw_gaps, dtype=np.int64))


event_streams = st.lists(
    st.integers(min_value=1, max_value=3 * US), min_size=0, max_size=300
).map(sorted_stream)


class TestInterarrivalHistogram:
    def test_gap_placement(self):
        # two 0.95 ms gaps land in the [0.9, 1.0) ms bin
        events = np.array([0, 950 * US, 1900 * US])
        hist = interarrival_histogram(events, 100 * US, 1500 * US)
        assert hist.counts[9] == 2
        assert hist.counts.sum() == 2
        assert hist.total_events == 2

    def test_right_open_bins(self):
        # an exact 1.0 ms gap belongs to [1.0, 1.1) ms, not [0.9, 1.0) ms
        hist = interarrival_histogram(np.array([0, 1000 * US]), 100 * US, 1500 * US)
        assert hist.counts[10] == 1
        assert hist.counts[9] == 0

    def test_poisson_first_bin_expectation(self):
        rng = np.random.default_rng(99)
        n = 10_000
        gaps = rng.exponential(1 / 3200.0, size=n - 1)
        events = np.cumsum(np.round(gaps * 1e12).astype(np.int64))
        hist = interarrival_histogram(events, 100 * US, 1500 * US)
        p = 1 - math.exp(-3200 * 1e-4)
        expected = (n - 1) * p
        assert expected == pytest.approx(2739, abs=2)
        sigma = math.sqrt((n - 1) * p * (1 - p))
        assert abs(hist.counts[0] - expected) < 4 * sigma

    def test_single_event_all_zero(self):
        hist = interarrival_histogram(np.array([123]), 100 * US, 1000 * US)
        assert np.all(hist.counts == 0)
        assert hist.total_events == 0

    def test_long_gaps_counted_but_not_binned(self):
        events = np.array([0, 10 * MS])
        hist = interarrival_histogram(events, 100 * US, 1500 * US)
        assert hist.counts.sum() == 0
        assert hist.total_events == 1

    @given(event_streams)
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, events):
        hist = interarrival_histogram(events, 40_000, 1_000_000)
        counts, total = naive_interarrival_histogram(events, 40_000, 1_000_000)
        assert hist.counts.tolist() == counts
        assert hist.total_events == total


class TestWeightedLineFit:
    def test_matches_normal_equations(self):
        # a fig6-like sweep: bias in amps against a noisy log-probability
        rng = np.random.default_rng(2)
        x = 23.0e-6 + 0.2e-6 * np.arange(12)
        y = -6.0 + 2.1e6 * (x - 23.0e-6) + rng.normal(0, 0.05, x.size)
        w = rng.uniform(50, 400, x.size)
        slope, intercept, r2 = weighted_line_fit(x, y, w)
        sw, sx, sy = w.sum(), (w * x).sum(), (w * y).sum()
        sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
        delta = sw * sxx - sx**2
        assert slope == pytest.approx((sw * sxy - sx * sy) / delta, rel=1e-6)
        assert intercept == pytest.approx((sxx * sy - sx * sxy) / delta, rel=1e-6)
        ss_res = (w * (y - intercept - slope * x) ** 2).sum()
        ss_tot = (w * (y - sy / sw) ** 2).sum()
        assert r2 == pytest.approx(1 - ss_res / ss_tot, rel=1e-9)

    def test_exact_line(self):
        slope, intercept, r2 = weighted_line_fit([0, 1, 2, 3], [1, 3, 5, 7], [1, 2, 3, 4])
        assert (slope, intercept, r2) == (pytest.approx(2.0), pytest.approx(1.0), pytest.approx(1.0))


class TestFitExponential:
    def synthetic(self, rate=3200.0, amplitude=1e9, n_bins=15, bin_ps=100 * US):
        centers = (np.arange(n_bins) + 0.5) * bin_ps * 1e-12
        counts = np.round(amplitude * np.exp(-rate * centers)).astype(np.int64)
        return Histogram(bin_ps, 0, counts, int(counts.sum()))

    def test_noiseless_recovery(self):
        fit = fit_exponential(self.synthetic(), discard_first=0, min_bin_count=1)
        assert fit.rate == pytest.approx(3200.0, rel=1e-9)
        assert fit.r_squared > 1 - 1e-12

    def test_seeded_poisson_rate_recovery(self):
        rng = np.random.default_rng(4)
        n = 10_000
        gaps = rng.exponential(1 / 3200.0, size=n)
        events = np.cumsum(np.round(gaps * 1e12).astype(np.int64))
        hist = interarrival_histogram(events, 100 * US, 1500 * US)
        fit = fit_exponential(hist)
        assert abs(fit.rate - 3200) < 3 * 3200 / math.sqrt(n)

    def test_afterpulsing_inflates_first_bin(self):
        stream = simulate(presets.profile_model(25.0e-6), StimulusConfig.none(), 3.0, 6)
        hist = interarrival_histogram(stream.detector_events, 100 * US, 1500 * US)
        fit = fit_exponential(hist)
        prediction = fit.predict_bins(1)[0]
        assert hist.counts[0] > prediction + 3 * math.sqrt(prediction)

    def test_prediction_is_extrapolation(self):
        fit = fit_exponential(self.synthetic(), discard_first=0, min_bin_count=1)
        pred = fit.predict_bins(3)
        centers = (np.arange(3) + 0.5) * 1e-4
        assert pred == pytest.approx(fit.amplitude * np.exp(-fit.rate * centers))

    def test_interval_prediction_consistent_with_bins(self):
        fit = fit_exponential(self.synthetic(), discard_first=0, min_bin_count=1)
        by_bin = fit.predict_bins(5)[4]
        by_interval = fit.predict_interval(4 * 1e-4, 5 * 1e-4)
        assert by_interval == pytest.approx(by_bin, rel=1e-9)

    def test_too_few_bins_rejected(self):
        hist = Histogram(100 * US, 0, np.array([50, 40, 30, 20]), 140)
        with pytest.raises(FitError):
            fit_exponential(hist, discard_first=1, min_bin_count=10)

    @pytest.mark.parametrize("discard_first, min_bin_count", [(-1, 10), (1, 0), (1, -3)])
    def test_arguments_out_of_range_rejected(self, discard_first, min_bin_count):
        with pytest.raises(ConfigError):
            fit_exponential(self.synthetic(), discard_first, min_bin_count)

    def test_growing_histogram_rejected(self):
        counts = np.array([10, 20, 40, 80, 160, 320, 640])
        with pytest.raises(FitError):
            fit_exponential(Histogram(100 * US, 0, counts, 1270), discard_first=0, min_bin_count=1)


class TestAfterpulseProbability:
    def test_worked_example(self):
        events = np.array([0, 180_000, 1 * MS, 2 * MS])
        assert afterpulse_probability(events) == 0.25

    def test_all_gaps_long(self):
        events = np.arange(5, dtype=np.int64) * 2 * MS
        assert afterpulse_probability(events) == 0.0

    def test_empty_is_undefined(self):
        assert afterpulse_probability(np.array([], dtype=np.int64)) is None

    def test_single_event(self):
        assert afterpulse_probability(np.array([7])) == 0.0

    @pytest.mark.parametrize("window_ps", [0, -1_000])
    @pytest.mark.parametrize("events", [[], [0, 180_000, 1 * MS]], ids=["empty", "three"])
    def test_window_must_be_positive(self, events, window_ps):
        # a window of no length would count no afterpulse at all
        events = np.array(events, dtype=np.int64)
        with pytest.raises(ConfigError, match="window"):
            afterpulse_probability(events, window_ps)
        with pytest.raises(ConfigError, match="window"):
            corrected_dcr(events, 2 * MS, window_ps)

    @given(event_streams)
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, events):
        assert afterpulse_probability(events) == naive_afterpulse_probability(events)


class TestCorrectedDcr:
    def synthetic_counts(self):
        # 3000 well-separated clicks plus 200 afterpulses 0.5 us after their
        # parents: exactly 200 events sit within the 1000 ns window
        primaries = np.arange(3000, dtype=np.int64) * 333_333_333
        extras = primaries[:200] + 500_000
        return np.sort(np.concatenate([primaries, extras]))

    def test_worked_example(self):
        total, corrected = corrected_dcr(self.synthetic_counts(), 10**12)
        assert total == 3200.0
        assert corrected == 3000.0

    def test_null_stream_coincidence_level(self):
        rng = np.random.default_rng(12)
        n = 50_000
        rate = 3200.0
        gaps = rng.exponential(1 / rate, size=n)
        events = np.cumsum(np.round(gaps * 1e12).astype(np.int64))
        duration = int(events[-1]) + 1
        total, corrected = corrected_dcr(events, duration)
        p_coincidence = 1 - math.exp(-rate * 1e-6)
        expected_excluded = (n - 1) * p_coincidence
        excluded = (total - corrected) * duration * 1e-12
        assert abs(excluded - expected_excluded) < 4 * math.sqrt(expected_excluded)

    def test_identity_with_afterpulse_probability(self):
        events = self.synthetic_counts()
        total, corrected = corrected_dcr(events, 10**12)
        # bit-exact by construction
        assert corrected == total * (1.0 - afterpulse_probability(events))
        assert corrected / total == pytest.approx(
            1.0 - afterpulse_probability(events), rel=1e-15
        )

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            corrected_dcr(np.array([1, 2]), 0)

    @given(event_streams)
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_and_identity(self, events):
        duration = int(events[-1]) + 1 if events.size else 1
        got = corrected_dcr(events, duration)
        assert got == naive_corrected_dcr(events, duration)
        if events.size:
            assert got[1] == got[0] * (1.0 - afterpulse_probability(events))


class TestTrains:
    def test_chained_clicks_form_one_train(self):
        events = np.array([0, 180_000, 360_000])
        dist = classify_trains(events)
        assert dist.count(3) == 1
        assert dist.n_trains == 1

    def test_isolated_clicks_are_singletons(self):
        events = np.arange(10, dtype=np.int64) * 2 * MS
        dist = classify_trains(events)
        assert dist.count(1) == 10

    def test_overflow_bucket(self):
        events = np.arange(9, dtype=np.int64) * 180_000
        dist = classify_trains(events)
        assert dist.count(6) == 1  # "6 or more"
        assert dist.total_events == 9

    def test_boundary_gap_breaks_train(self):
        # a gap of exactly the window starts a new train
        dist = classify_trains(np.array([0, 1_000_000]))
        assert dist.count(1) == 2

    @pytest.mark.parametrize("gap_ps", [0, -1_000])
    def test_gap_must_be_positive(self, gap_ps):
        # with no gap every click would be a train of its own
        with pytest.raises(ConfigError, match="gap"):
            classify_trains(np.array([0, 180_000, 360_000]), gap_ps)

    @given(event_streams)
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_and_conserves_events(self, events):
        dist = classify_trains(events)
        naive = naive_classify_trains(events)
        assert {n: dist.count(n) for n in range(1, 7)} == naive
        short = sum(n * dist.count(n) for n in range(1, 6))
        assert short + 6 * dist.count(6) <= dist.total_events == events.size


class TestConditionalHistogram:
    def stream(self, det, sync, duration):
        return TimeTagStream(
            np.asarray(det, np.int64), np.asarray(sync, np.int64), duration
        )

    def test_clicks_at_sync_give_zero_bin_spike(self):
        sync = np.arange(10, dtype=np.int64) * 2 * US
        s = self.stream(sync.copy(), sync, 40 * US)
        hist = conditional_histogram(s)
        assert hist.counts[0] == 10
        assert hist.counts[1:].sum() == 0

    def test_windows_without_anchor_are_skipped(self):
        s = self.stream([2 * US + 500_000], [0, 2 * US], 10 * US)
        hist = conditional_histogram(s)
        # the 500 ns click cannot anchor its window, and window 0 is empty
        assert hist.counts.sum() == 0

    def test_empty_detector_channel(self):
        s = self.stream([], np.arange(5, dtype=np.int64) * 2 * US, 20 * US)
        hist = conditional_histogram(s)
        assert np.all(hist.counts == 0)

    def test_missing_sync_rejected(self):
        s = self.stream([100], [], 10 * US)
        with pytest.raises(ConfigError):
            conditional_histogram(s)

    @given(
        st.lists(st.integers(0, 20 * US - 1), max_size=60),
        st.lists(st.integers(0, 18 * US), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, det, sync):
        det = np.unique(np.asarray(det, np.int64))
        sync = np.unique(np.asarray(sync, np.int64))
        s = self.stream(det, sync, 20 * US)
        hist = conditional_histogram(s, 2 * US, 20_000)
        counts, total = naive_conditional_histogram(det, sync, 20 * US, 2 * US, 20_000)
        assert hist.counts.tolist() == counts
        assert hist.total_events == total

    @given(
        st.lists(st.integers(0, 20 * US), min_size=1, max_size=200),
        st.lists(
            st.tuples(st.integers(0, 199), st.integers(0, 10_000) | st.integers(0, 3 * US)),
            max_size=10,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_with_triggers_outnumbering_clicks(self, sync, delays):
        # the double-pulse regime: most triggers have no click in their window;
        # each click lies a drawn delay after a drawn trigger
        sync = np.unique(np.asarray(sync, np.int64))
        det = [min(int(sync[i % sync.size]) + d, 20 * US) for i, d in delays]
        det = np.unique(np.asarray(det, np.int64))
        s = self.stream(det, sync, 20 * US)
        hist = conditional_histogram(s, 2 * US, 4_000)
        counts, total = naive_conditional_histogram(det, sync, 20 * US, 2 * US, 4_000)
        assert hist.counts.tolist() == counts
        assert hist.total_events == total

    def test_windows_ending_at_int64_max(self):
        # a trigger + window past INT64_MAX must not wrap into a kept window
        m = INT64_MAX
        times = np.array([m - 5_000_000, m - 1_000_000], np.int64)
        hist = conditional_histogram(self.stream(times, times, m), 2 * US, 20_000)
        counts, total = naive_conditional_histogram(times, times, m, 2 * US, 20_000)
        assert (hist.counts.tolist(), hist.total_events) == (counts, total)
        assert total == 1

    @given(
        st.lists(st.integers(0, 10**6), max_size=40),
        st.lists(st.integers(0, 10**6), max_size=40),
        st.lists(st.integers(0, 10**6), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_either_search_matches_naive(self, det, sync, shared):
        # equal stamps across channels, either channel the longer, or no
        # clicks; a bin wider than the trigger spacing keeps several
        # triggers of one click, one narrower keeps some of them
        det = np.unique(np.asarray(det + shared, np.int64))
        sync = np.unique(np.asarray(sync + shared, np.int64))
        for d, s in ((det, sync), (sync, det), (det[:0], sync)):
            if not s.size:
                continue
            for window_ps, bin_ps in ((200_000, 4_000), (300_000, 100_000), (10**6, 10**6)):
                hist = conditional_histogram(self.stream(d, s, 10**6), window_ps, bin_ps)
                counts, total = naive_conditional_histogram(d, s, 10**6, window_ps, bin_ps)
                assert (hist.counts.tolist(), hist.total_events) == (counts, total)

    @pytest.mark.parametrize(
        "det, sync, anchored",
        [
            # 2 us windows on triggers 0.5 us apart: a click lies in up to
            # four windows, and anchors the one of its own trigger only
            ([0, 300_000, 500_000, 1_510_000, 2_000_000, 2_900_000, 4_019_999],
             [0, 500_000, 1_000_000, 1_500_000, 2_000_000, 4_000_000], 5),
            # a click exactly one bin after its trigger is in bin 1: it cannot
            # anchor, while one a ps earlier can
            ([3 * US + 20_000, 5 * US + 19_999, 5 * US + 20_000], [3 * US, 5 * US], 1),
        ],
        ids=["windows-wider-than-spacing", "click-at-first-bin-end"],
    )
    def test_edge_cases_match_naive(self, det, sync, anchored):
        s = self.stream(det, sync, 20 * US)
        hist = conditional_histogram(s, 2 * US, 20_000)
        counts, total = naive_conditional_histogram(det, sync, 20 * US, 2 * US, 20_000)
        assert hist.counts.tolist() == counts
        assert hist.total_events == total
        assert hist.counts[0] == anchored


class TestRecovery:
    def worked_histogram(self, one_sided=False):
        counts = np.zeros(500, dtype=np.int64)
        counts[0] = 400_000
        counts[45] = 10_000
        if one_sided:
            counts[44], counts[46] = 180, 220
        else:
            counts[43], counts[44] = 180, 180
            counts[46], counts[47] = 220, 220
        return Histogram(4_000, 0, counts, int(counts.sum()))

    def test_worked_example_two_bin_background(self):
        eta, err = second_pulse_efficiency(
            self.worked_histogram(one_sided=True), 180_000, neighbors_per_side=1
        )
        assert eta == (10_000 - 200) / 400_000 == 0.0245
        assert err == pytest.approx(3 * math.sqrt(10_000 + 400 / 4) / 400_000)

    def test_default_four_bin_background(self):
        eta, _ = second_pulse_efficiency(self.worked_histogram(), 180_000)
        assert eta == (10_000 - 200) / 400_000

    def test_first_only_ratio_variant(self):
        eta, _ = second_pulse_efficiency(
            self.worked_histogram(), 180_000, ratio="first-only"
        )
        assert eta == pytest.approx(9800 / (400_000 - 9800))

    def test_background_clamp(self):
        counts = np.zeros(500, dtype=np.int64)
        counts[0] = 1000
        counts[44], counts[46] = 50, 50
        hist = Histogram(4_000, 0, counts, 1100)
        eta, _ = second_pulse_efficiency(hist, 180_000, neighbors_per_side=1)
        assert eta == 0.0  # subtraction cannot go negative

    def test_separation_collision_rejected(self):
        with pytest.raises(ConfigError):
            second_pulse_efficiency(self.worked_histogram(), 4_000)

    def test_acceptance_bin_limit(self):
        with pytest.raises(ConfigError):
            recovery_curve([], acceptance_bin_ps=6_000)

    def test_curve_orders_separations(self):
        det = np.arange(8, dtype=np.int64) * 2 * US
        stream = TimeTagStream(det.copy(), det.copy(), 20 * US)
        curve = recovery_curve([(300_000, stream), (100_000, stream)])
        assert curve.separations_ps.tolist() == [100_000, 300_000]

    def test_estimator_unbiased_at_null(self):
        # kernel off, separation past the recovery: the pooled estimate over
        # 20 seeds must sit on the configured per-pulse click probability
        model = presets.profile_model(24.9e-6, kernel_amplitude=0.0)
        stimulus = StimulusConfig.double_pulse(600e-9, 1.0)
        nominal = 1 - math.exp(-float(model.rates.efficiency(24.9e-6)))
        estimates, errors = [], []
        for k in range(20):
            stream = simulate(model, stimulus, 0.2, presets.subseed(3, 2000, k))
            curve = recovery_curve([(600_000, stream)])
            estimates.append(curve.efficiency[0])
            errors.append(curve.stat_error[0] / 3.0)  # back to 1 sigma
        pooled = float(np.mean(estimates))
        pooled_sigma = float(np.hypot.reduce(errors)) / len(errors)
        assert abs(pooled - nominal) <= 3 * pooled_sigma


class TestShiftInvariance:
    @given(event_streams, st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_all_outputs_unchanged(self, events, offset):
        shifted = events + offset
        a = interarrival_histogram(events, 40_000, 1_000_000)
        b = interarrival_histogram(shifted, 40_000, 1_000_000)
        assert a == b
        assert afterpulse_probability(events) == afterpulse_probability(shifted)
        da = classify_trains(events)
        db = classify_trains(shifted)
        assert np.array_equal(da.counts_by_length, db.counts_by_length)

    @given(
        st.lists(st.integers(0, 18 * US), min_size=1, max_size=20),
        st.integers(0, 10**6) | st.integers(INT64_MAX - 20 * US - 10**6, INT64_MAX - 20 * US),
    )
    @settings(max_examples=30, deadline=None)
    def test_conditional_histogram_shifts_with_both_channels(self, sync, offset):
        rng = np.random.default_rng(0)
        sync = np.unique(np.asarray(sync, np.int64))
        det = np.unique(rng.integers(0, 20 * US, size=40).astype(np.int64))
        a = conditional_histogram(TimeTagStream(det, sync, 20 * US), 2 * US, 20_000)
        b = conditional_histogram(
            TimeTagStream(det + offset, sync + offset, 20 * US + offset), 2 * US, 20_000
        )
        assert a == b
