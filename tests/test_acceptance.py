"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Expensive simulations are shared through module-scoped fixtures;
each timed criterion counts the runtime of its own simulations.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from snspdsim import presets
from snspdsim.analysis import (
    afterpulse_probability,
    classify_trains,
    conditional_histogram,
    corrected_dcr,
    fit_exponential,
    interarrival_histogram,
    recovery_curve,
)
from snspdsim.circuit import (
    DEFAULT_SAMPLE_PERIOD,
    FilterSpec,
    design_bandpass,
    nanowire_current,
    overshoot_kernel,
    readout_pulse,
)
from snspdsim.simulation import (
    DetectorModel,
    StimulusConfig,
    simulate,
)

from reference_impls import (
    cascade_magnitude_db,
    naive_afterpulse_probability,
    naive_classify_trains,
    naive_conditional_histogram,
    naive_corrected_dcr,
    naive_interarrival_histogram,
)

US = 1_000_000  # ps


@contextmanager
def criterion(number, title):
    label = f"criterion {number:2d} ({title})"
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}", flush=True)
        raise
    print(f"[PASS] {label}", flush=True)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def quadrature_branching_probability(bias, window=1e-6):
    """Test-local oracle for the per-click afterpulse probability."""
    circ = presets.profile_circuit(bias)
    kernel = presets.profile_kernel()
    s = np.linspace(0.0, window, 200_001)
    current = nanowire_current(circ, s) + kernel.value(s)
    lam = presets.profile_rates().dark_rate(current)
    return 1.0 - math.exp(-float(np.trapezoid(lam, s)))


def weighted_log_fit(x, y_counts, n_events):
    """ln(p) vs x with binomial weights; returns slope, stderr, R^2."""
    x = np.asarray(x, float)
    p = np.asarray(y_counts, float) / np.asarray(n_events, float)
    keep = p > 0
    x, p, n = x[keep], p[keep], np.asarray(n_events, float)[keep]
    y = np.log(p)
    sigma = np.sqrt((1 - p) / (p * n))
    w = 1.0 / sigma**2
    sw, sx, sy = w.sum(), (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    delta = sw * sxx - sx**2
    slope = (sw * sxy - sx * sy) / delta
    stderr = math.sqrt(sw / delta)
    intercept = (sxx * sy - sx * sxy) / delta
    resid = y - (intercept + slope * x)
    r2 = 1.0 - (w * resid**2).sum() / (w * (y - sy / sw) ** 2).sum()
    return slope, stderr, r2


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def null_streams():
    def build():
        out = []
        for k in range(20):
            model = presets.profile_model(25.0e-6, kernel_amplitude=0.0)
            out.append(simulate(model, StimulusConfig.none(), 3.2, presets.subseed(3, 300, k)))
        return out

    return timed(build)


@pytest.fixture(scope="module")
def high_bias_stream():
    def build():
        duration = 100_000 / float(presets.profile_rates().dark_rate(25.2e-6))
        return simulate(presets.profile_model(25.2e-6), StimulusConfig.none(), duration, presets.subseed(3, 4))

    return timed(build)


@pytest.fixture(scope="module")
def sweep_streams():
    def build():
        out = []
        for k, bias in enumerate(presets.BIAS_SWEEP):
            duration = 10_000 / float(presets.profile_rates().dark_rate(bias))
            out.append(
                (bias, simulate(presets.profile_model(bias), StimulusConfig.none(), duration, presets.subseed(3, 5, k)))
            )
        return out

    return timed(build)


@pytest.fixture(scope="module")
def train_sweep_streams():
    def build():
        out = []
        for k, bias in enumerate(presets.BIAS_SWEEP):
            duration = 30_000 / float(presets.profile_rates().dark_rate(bias))
            out.append(
                (bias, simulate(presets.profile_model(bias), StimulusConfig.none(), duration, presets.subseed(3, 8, k)))
            )
        return out

    return timed(build)


@pytest.fixture(scope="module")
def laser_stream():
    def build():
        return simulate(
            presets.profile_model(25.0e-6),
            StimulusConfig.periodic(0.5e6, 10.0),
            2.0,
            presets.subseed(3, 9),
        )

    return timed(build)


@pytest.fixture(scope="module")
def recovery_runs():
    return timed(lambda: presets.run_double_pulse_sweep(presets.FIG10_SEPARATIONS_NS, seed=3))


NULL_SEPARATIONS_NS = (80, 140, 200, 300, 500, 700, 1000)


@pytest.fixture(scope="module")
def recovery_null_runs():
    return timed(
        lambda: presets.run_double_pulse_sweep(
            NULL_SEPARATIONS_NS, kernel_amplitude=0.0, seed=3, seed_tag=1000
        )
    )


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_circuit_time_constants():
    with criterion(1, "circuit time constants"):
        def check():
            params = presets.profile_circuit()
            assert params.recovery_tau == pytest.approx(20e-9, rel=1e-12)
            assert params.fall_tau == pytest.approx(0.0995e-9, rel=1e-3)
            assert params.fall_tau == pytest.approx(500e-9 / 5025.0, rel=1e-12)
            i3 = nanowire_current(params, params.hotspot_duration + 3 * params.recovery_tau)
            normalized = (i3 - params.hotspot_end_current) / (
                params.bias_current - params.hotspot_end_current
            )
            assert normalized == pytest.approx(1 - math.exp(-3), rel=1e-6)
            assert i3 / params.bias_current == pytest.approx(0.9502, abs=1e-3)

        _, elapsed = timed(check)
        assert elapsed < 1.0


def test_criterion_2_filter_behavior():
    with criterion(2, "band-pass filter behavior"):
        def check():
            spec = FilterSpec(4, 15e6, 580e6)
            sp = DEFAULT_SAMPLE_PERIOD
            cascade = design_bandpass(spec, sp)
            f = np.geomspace(7.5e6, min(2 * 580e6, 0.45 / sp), 400)
            w = (f**2 - 15e6 * 580e6) / (f * (580e6 - 15e6))
            analytic_db = -10.0 * np.log10(1.0 + w**4)
            assert np.max(np.abs(cascade_magnitude_db(cascade, f) - analytic_db)) < 0.2
            plain = readout_pulse(presets.profile_circuit(), sp, 2e-6)
            shaped = readout_pulse(presets.profile_circuit(), sp, 2e-6, cascade=cascade)
            assert plain.samples.max() <= 0.0
            trough = int(np.argmin(shaped.samples))
            assert shaped.samples[trough:].max() > 0.0

        _, elapsed = timed(check)
        assert elapsed < 1.0


def test_criterion_3_null_model_exponentiality(null_streams):
    streams, sim_elapsed = null_streams
    with criterion(3, "null-model exponentiality"):
        def check():
            ks_passes = 0
            for stream in streams:
                gaps = np.diff(stream.detector_events) * 1e-12
                tail = gaps[gaps > 200e-9] - 200e-9
                _, p_value = stats.kstest(tail, "expon", args=(0.0, tail.mean()))
                ks_passes += p_value > 0.01
            assert ks_passes >= 18

            stream = streams[0]
            n = stream.detector_events.size
            assert 9_000 <= n <= 11_000
            hist = interarrival_histogram(stream.detector_events, 100 * US, 1500 * US)
            fit = fit_exponential(hist)
            assert abs(fit.rate - 3200.0) <= 3 * 3200.0 / math.sqrt(n)
            pred = fit.predict_bins(1)[0]
            assert abs(hist.counts[0] - pred) <= 3 * math.sqrt(pred)

        _, elapsed = timed(check)
        assert sim_elapsed + elapsed < 10.0


def test_criterion_4_afterpulse_peak(high_bias_stream):
    stream, sim_elapsed = high_bias_stream
    with criterion(4, "afterpulse peak near 180 ns"):
        def check():
            assert stream.detector_events.size >= 100_000
            fine = interarrival_histogram(stream.detector_events, 4_000, 500_000)
            coarse = interarrival_histogram(stream.detector_events, 100 * US, 2500 * US)
            fit = fit_exponential(coarse)
            peak = int(np.argmax(fine.counts))
            center_ns = (peak + 0.5) * 4
            assert 140 <= center_ns <= 220
            baseline = fit.predict_interval(peak * 4e-9, (peak + 1) * 4e-9)
            assert fine.counts[peak] > baseline + 5 * math.sqrt(baseline)

        _, elapsed = timed(check)
        assert sim_elapsed + elapsed < 60.0


def test_criterion_5_corrected_dcr(sweep_streams):
    runs, sim_elapsed = sweep_streams
    with criterion(5, "corrected vs total DCR across bias"):
        def check():
            deviations = []
            corrected_rates = []
            sigmas = []
            for bias, stream in runs:
                total, corrected = corrected_dcr(stream.detector_events, stream.duration_ps)
                deviations.append((total - corrected) / total)
                corrected_rates.append(corrected)
                sigmas.append(corrected / math.sqrt(stream.detector_events.size))
            assert deviations[0] < 0.01
            assert deviations[-1] > 0.10
            for i in range(len(corrected_rates) - 1):
                slack = 3 * math.hypot(sigmas[i], sigmas[i + 1])
                assert corrected_rates[i + 1] >= corrected_rates[i] - slack

        _, elapsed = timed(check)
        assert sim_elapsed + elapsed < 120.0


def test_criterion_6_afterpulse_probability_trend(sweep_streams):
    runs, _ = sweep_streams
    with criterion(6, "exponential afterpulse-probability trend"):
        biases, counts, totals = [], [], []
        for bias, stream in runs:
            gaps = np.diff(stream.detector_events)
            biases.append(bias)
            counts.append(int(np.count_nonzero(gaps < 1_000_000)))
            totals.append(stream.detector_events.size)
        slope, stderr, r2 = weighted_log_fit(biases, counts, totals)
        assert slope > 0
        assert r2 > 0.95


def test_criterion_7_train_statistics(train_sweep_streams, sweep_streams):
    train_runs, _ = train_sweep_streams
    with criterion(7, "afterpulse train statistics"):
        # n2/n1 against the model's branching probability
        ratio_points = []
        for bias, stream in train_runs:
            dist = classify_trains(stream.detector_events)
            n1, n2 = dist.count(1), dist.count(2)
            if n2 >= 100:
                ratio = n2 / n1
                sigma = ratio * math.sqrt(1 / n1 + 1 / n2)
                p_model = quadrature_branching_probability(bias)
                assert abs(ratio - p_model) <= 3 * sigma, f"bias {bias*1e6:.1f} uA"
        # geometric law at the literal mid-sweep bias (24.2 uA, index 6)
        bias, stream = train_runs[6]
        dist = classify_trains(stream.detector_events)
        p = quadrature_branching_probability(bias)
        n_trains = dist.n_trains
        for n in range(1, 5):
            expected = n_trains * p ** (n - 1) * (1 - p)
            tolerance = 3 * math.sqrt(max(expected, 1.0))
            assert abs(dist.count(n) - expected) <= tolerance, f"n={n}"
        # the n2/n1 trend shares the slope of the afterpulse probability
        biases, n2s, n1s = [], [], []
        for bias, stream in train_runs:
            dist = classify_trains(stream.detector_events)
            if dist.count(2) >= 10:
                biases.append(bias)
                n2s.append(dist.count(2))
                n1s.append(dist.count(1))
        slope_trains, err_trains, _ = weighted_log_fit(biases, n2s, n1s)

        sweep_runs, _ = sweep_streams
        b6, c6, t6 = [], [], []
        for bias, stream in sweep_runs:
            gaps = np.diff(stream.detector_events)
            b6.append(bias)
            c6.append(int(np.count_nonzero(gaps < 1_000_000)))
            t6.append(stream.detector_events.size)
        slope_prob, err_prob, _ = weighted_log_fit(b6, c6, t6)
        assert abs(slope_trains - slope_prob) <= 3 * math.hypot(err_trains, err_prob)


def test_fig8_checks_are_chosen_by_the_model(monkeypatch):
    # a tenth of the counts: most points realize far fewer than 100
    # two-click trains, but the model still expects 100 or more at
    # 23.4 uA and above, so fig8 checks the same points at every seed
    sweep = presets._sweep_runs
    monkeypatch.setattr(
        presets, "_sweep_runs", lambda biases, seed, tag, n: sweep(biases, seed, tag, n // 10)
    )
    _, checks = presets.fig8(3)
    names = [c.name for c in checks if c.name.startswith("branching-")]
    assert names == [f"branching-{bias*1e6:.1f}uA" for bias in presets.BIAS_SWEEP[2:]]


@pytest.mark.parametrize("mu", np.geomspace(0.5, 50.0, 11).tolist())
def test_poisson_upper_tail_matches_scipy(mu):
    # k = 0, k around mu, and k at 10x mu, where the tail is down to 1e-306
    assert presets.poisson_upper_tail(0, mu) == 1.0
    for k in (1, math.floor(mu), math.ceil(mu) + 1, math.ceil(10 * mu)):
        expected = stats.poisson.sf(k - 1, mu)
        assert presets.poisson_upper_tail(k, mu) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_criterion_8_conditional_histogram(laser_stream):
    stream, sim_elapsed = laser_stream
    with criterion(8, "sync-conditioned histogram with laser on"):
        def check():
            assert stream.sync_events.size >= 1_000_000
            hist = conditional_histogram(stream, 2_000_000, 20_000)
            counts = hist.counts
            assert int(np.argmax(counts)) == 0
            sec = int(np.argmax(counts[5:50])) + 5
            assert 140 <= (sec + 0.5) * 20 <= 220
            n_anchored = int(counts[0])
            p = quadrature_branching_probability(25.0e-6)
            expected = n_anchored * 3200.0 / (1 - p) * 20e-9 * counts[75:].size
            observed = int(counts[75:].sum())
            assert abs(observed - expected) <= 3 * math.sqrt(expected)

        _, elapsed = timed(check)
        assert sim_elapsed + elapsed < 300.0


def test_criterion_9_recovery_curve(recovery_runs, recovery_null_runs):
    runs, _ = recovery_runs
    null_runs, _ = recovery_null_runs
    with criterion(9, "detection-efficiency recovery"):
        nominal = presets.nominal_detection_probability()
        curve = recovery_curve(runs)
        sep_ns = curve.separations_ps // 1000
        eta, err = curve.efficiency, curve.stat_error
        i80 = int(np.nonzero(sep_ns == 80)[0][0])
        ilast = int(np.nonzero(sep_ns == 1000)[0][0])
        assert eta[i80] < 0.1 * nominal
        ipeak = int(np.argmax(eta))
        assert 140 <= sep_ns[ipeak] <= 220
        assert eta[ipeak] - eta[ilast] > math.hypot(err[ipeak], err[ilast])
        assert abs(eta[ilast] - nominal) <= err[ilast]
        # estimator null test: no overshoot without the kernel
        null_curve = recovery_curve(null_runs)
        n_eta, n_err = null_curve.efficiency, null_curve.stat_error
        assert np.all(n_eta <= nominal + n_err)
        for i in range(n_eta.size - 1):
            assert n_eta[i + 1] >= n_eta[i] - math.hypot(n_err[i], n_err[i + 1])
        assert abs(n_eta[-1] - nominal) <= n_err[-1]


def test_criterion_10_amplifier_swap():
    with criterion(10, "wide-band amplifier removes afterpulsing"):
        amps_per_volt, offset = presets.overshoot_coupling()
        sp = DEFAULT_SAMPLE_PERIOD
        wide = design_bandpass(FilterSpec(4, 1e3, 1000e6), sp)
        pulse = readout_pulse(presets.profile_circuit(25.2e-6), sp, 2e-6, cascade=wide)
        kernel = overshoot_kernel(pulse, amps_per_volt=amps_per_volt, time_offset=offset)
        assert kernel.peak < 0.01 * presets.KERNEL_AMPLITUDE
        model = DetectorModel(
            circuit=presets.profile_circuit(25.2e-6), rates=presets.profile_rates(), kernel=kernel
        )
        duration = 105_000 / float(presets.profile_rates().dark_rate(25.2e-6))
        stream = simulate(model, StimulusConfig.none(), duration, presets.subseed(3, 11))
        assert stream.detector_events.size >= 100_000
        fine = interarrival_histogram(stream.detector_events, 4_000, 500_000)
        fit = fit_exponential(interarrival_histogram(stream.detector_events, 100 * US, 2500 * US))
        # fig11's check: no 4 ns bin in 80-500 ns above the fitted
        # exponential, by exact Poisson tails at a family-wise 1%. Each bin
        # predicts 2-10 counts, where a 3-sigma Gaussian bound per bin fails
        # a correct model at most seeds
        check = presets._no_peak_check(fine, fit)
        assert check.passed, check.detail


def test_criterion_11_oracle_equivalence():
    with criterion(11, "streaming analyses equal brute force exactly"):
        rng = np.random.default_rng(2024)
        # a clustered stream: random base gaps plus short-gap companions
        base = np.cumsum(rng.integers(1, 600_000, size=100_000, dtype=np.int64))
        companions = base[rng.random(base.size) < 0.15] + 180_000
        events = np.unique(np.concatenate([base, companions]))
        assert events.size >= 100_000
        duration = int(events[-1]) + 1

        hist = interarrival_histogram(events, 40_000, 1_000_000)
        counts, total = naive_interarrival_histogram(events, 40_000, 1_000_000)
        assert hist.counts.tolist() == counts and hist.total_events == total

        p = afterpulse_probability(events)
        assert p == naive_afterpulse_probability(events)

        rates = corrected_dcr(events, duration)
        assert rates == naive_corrected_dcr(events, duration)
        assert rates[1] == rates[0] * (1.0 - p)  # exact identity

        dist = classify_trains(events)
        assert {n: dist.count(n) for n in range(1, 7)} == naive_classify_trains(events)

        # conditional histogram on a synthetic two-channel stream
        sync = np.arange(0, duration - 2 * US, 25 * US, dtype=np.int64)
        from snspdsim.simulation import TimeTagStream

        stream = TimeTagStream(events, sync, duration)
        hist = conditional_histogram(stream, 2 * US, 20_000)
        counts, total = naive_conditional_histogram(events, sync, duration, 2 * US, 20_000)
        assert hist.counts.tolist() == counts and hist.total_events == total


def test_criterion_12_reproducibility(tmp_path):
    with criterion(12, "presets are byte-for-byte reproducible"):
        for figure, runner in presets.FIGURES.items():
            dir_a = tmp_path / f"{figure}_a"
            dir_b = tmp_path / f"{figure}_b"
            report_a = runner(dir_a)
            report_b = runner(dir_b)
            assert report_a.passed, f"{figure} checks failed"
            assert report_b.passed
            files_a = sorted(p.name for p in dir_a.iterdir())
            files_b = sorted(p.name for p in dir_b.iterdir())
            assert files_a == files_b
            for name in files_a:
                assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (
                    f"{figure}/{name} differs between identical runs"
                )
