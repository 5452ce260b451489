"""Point-process engine tests: stimulus generation, effective bias,
determinism, dead time, latching and the branching statistics."""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from law_oracle import TEST_ALPHA
from snspdsim import presets, simulation
from snspdsim.circuit import (
    CircuitParams,
    PerturbationKernel,
    amplifier_kernel,
    gaussian_kernel,
    nanowire_current,
)
from snspdsim.errors import ConfigError, StreamValidationError
from snspdsim.simulation import (
    INT64_MAX,
    PS_PER_SECOND,
    DetectorModel,
    RateModel,
    StimulusConfig,
    StimulusTrain,
    TimeTagStream,
    _kernel_tables,
    _run_engine,
    branching_probability,
    effective_bias,
    make_stimulus,
    simulate,
    whole_ps,
)


def model_at(bias, kernel_amplitude=presets.KERNEL_AMPLITUDE):
    return presets.profile_model(bias, kernel_amplitude)


class TestRateModel:
    def test_laws(self):
        r = presets.profile_rates()
        assert r.dark_rate(25.0e-6) == pytest.approx(3200.0)
        assert r.dark_rate(25.2e-6) > r.dark_rate(25.0e-6)
        assert r.efficiency(25.0e-6) == pytest.approx(0.025)
        # capped above the reference bias
        assert r.efficiency(25.2e-6) == pytest.approx(0.025)
        assert r.efficiency(24.0e-6) < 0.025

    def test_validation(self):
        with pytest.raises(ConfigError):
            RateModel(-1.0, 1e6, 0.025, 1e6, 25e-6)
        with pytest.raises(ConfigError):
            RateModel(3200.0, 1e6, 1.5, 1e6, 25e-6)
        with pytest.raises(ConfigError):
            RateModel(3200.0, -1e6, 0.025, 1e6, 25e-6)


class TestStimulus:
    def test_periodic_spacing(self):
        train = make_stimulus(StimulusConfig.periodic(0.5e6, 10.0), 100_000_000_000)
        assert train.sync_times_ps.size == 50_000
        assert np.all(np.diff(train.sync_times_ps) == 2_000_000)
        assert np.array_equal(train.pulse_times_ps, train.sync_times_ps)

    def test_double_pulse_pairs(self):
        train = make_stimulus(StimulusConfig.double_pulse(180e-9, 1.0), 10_000_000)
        assert train.sync_times_ps.size == 5
        assert train.pulse_times_ps.size == 10
        assert np.all(train.pulse_times_ps[1::2] - train.pulse_times_ps[0::2] == 180_000)
        # the sync channel references only the first pulse of each pair
        assert np.array_equal(train.sync_times_ps, train.pulse_times_ps[0::2])

    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_pulse_counts_at_whole_periods_and_windows(self, k, nudge):
        # a duration of exactly k periods or windows, and one ps either side
        duration = k * 2_000_000 + nudge
        periodic = make_stimulus(StimulusConfig.periodic(0.5e6, 1.0), duration)
        assert periodic.pulse_times_ps.size == -(-duration // 2_000_000)
        double = make_stimulus(StimulusConfig.double_pulse(1999e-9, 1.0), duration)
        assert double.sync_times_ps.size == duration // 2_000_000
        assert double.pulse_times_ps.size == 2 * (duration // 2_000_000)
        for times in (periodic.pulse_times_ps, double.pulse_times_ps):
            assert times.size == 0 or times[-1] < duration

    def test_zero_duration_empty(self):
        train = make_stimulus(StimulusConfig.periodic(1e6, 1.0), 0)
        assert train.pulse_times_ps.size == 0

    @pytest.mark.parametrize("train", [
        StimulusTrain(1, (0,), 0, 123),
        StimulusTrain(2_000_000, (0,), 50, 123),
        StimulusTrain(1, (0,), 7, 5),
        StimulusTrain(2_000_000, (0, 180_000), 10, 7),
        StimulusTrain(2_000_000, (0, 180_000), 9, 7),
        # the last sync at INT64_MAX: the stop lies past it
        StimulusTrain(1_000, (0,), 5, INT64_MAX - 4_000),
        StimulusTrain(3, (0, 1), 8, INT64_MAX - 9),
        # 1e5 periods of 1 s: a stop one ps past the last sync would give
        # arange a float count that rounds the last one away
        StimulusTrain(10**12, (0,), 100_001, 0),
    ], ids=["none", "periodic", "1ps", "double", "double-odd", "int64-max", "double-int64-max", "1e5-seconds"])
    def test_sync_is_every_periods_first_pulse(self, train):
        sync = train.sync_times_ps
        assert sync.dtype == np.int64
        assert np.array_equal(sync, train.times(np.arange(0, train.n_pulses, len(train.offsets_ps))))

    @given(
        st.integers(1, 10**7),
        st.booleans(),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 10**15),
        st.one_of(st.just(0), st.floats(0.0, 1.0, exclude_max=True), st.floats(1.0, 40.0)),
        st.lists(st.integers(-(10**8), 10**9), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_pattern_matches_materialised_train(self, period, double, split, origin, frames, probes):
        # the pattern's times and counts against indexing and searchsorted
        # on the train built as an array: every partial last frame, a
        # duration under one period and a duration of 0
        if double:
            period += 1  # a window holds its separation
            separation = 1 + int(split * (period - 1))
            config = StimulusConfig.double_pulse(separation * 1e-12, 1.0, period * 1e-12)
            assert (config.window_ps, config.separation_ps) == (period, separation)
        else:
            config = StimulusConfig.periodic(PS_PER_SECOND / period, 1.0)
            assert config.period_ps == period
        duration = int(frames * period)
        train = dataclasses.replace(make_stimulus(config, duration), origin_ps=origin)
        if double:
            starts = origin + np.arange(duration // period, dtype=np.int64) * period
            expected = np.stack([starts, starts + separation], axis=1).ravel()
        else:
            starts = expected = origin + np.arange(-(-duration // period), dtype=np.int64) * period
        assert np.array_equal(train.pulse_times_ps, expected)
        assert np.array_equal(train.sync_times_ps, starts)
        assert train.n_pulses == expected.size
        assert [train.time(k) for k in range(min(expected.size, 5))] == expected[:5].tolist()
        k = np.arange(expected.size, dtype=np.int64)[::7]
        assert np.array_equal(train.times(k), expected[k])
        # each pulse, a ps either side of it, and times before, between and past
        t = np.concatenate([expected[:20, None] + [-1, 0, 1], origin + np.array(probes, np.int64)[:, None]], axis=None)
        assert np.array_equal(train.count(t), np.searchsorted(expected, t, side="right"))
        assert np.array_equal(train.count(t - 1), np.searchsorted(expected, t))

    def test_separation_must_fit_window(self):
        with pytest.raises(ConfigError):
            StimulusConfig.double_pulse(2.5e-6, 1.0, window=2e-6)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StimulusConfig.periodic(3e12, 1.0),
            lambda: StimulusConfig.periodic(1e-300, 1.0),
            lambda: StimulusConfig.periodic(1e-12, 1.0),
            lambda: StimulusConfig.double_pulse(0.2e-12, 1.0, window=0.4e-12),
            lambda: StimulusConfig.double_pulse(0.4e-12, 1.0),
            lambda: StimulusConfig.double_pulse(0.6e-12, 1.0, window=1e-12),
        ],
        ids=["period-0.33ps", "period-beyond-float", "period-beyond-int64", "window-0.4ps",
             "separation-0.4ps", "separation-rounds-onto-window"],
    )
    def test_times_are_checked_in_whole_ps(self, make):
        # pulse times are whole int64 ps: a period or window under 1 ps or
        # beyond int64 ps, or a separation that rounds to 0 ps or onto the
        # window, has no train
        with pytest.raises(ConfigError):
            make()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            StimulusConfig(mode="strobe")

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ConfigError):
            StimulusConfig.periodic(1e6, -1.0)


class TestEffectiveBias:
    def test_empty_history_is_exactly_bias(self):
        m = model_at(25.0e-6)
        assert effective_bias(m, 1e-3) == m.circuit.bias_current

    def test_single_click_at_kernel_peak(self):
        m = DetectorModel(
            circuit=presets.profile_circuit(25.0e-6),
            rates=presets.profile_rates(),
            kernel=gaussian_kernel(0.4e-6, 180e-9, 40e-9),
        )
        from snspdsim.circuit import nanowire_current

        got = effective_bias(m, 180e-9, [0.0])
        expected = nanowire_current(m.circuit, 180e-9) + 0.4e-6
        assert got == pytest.approx(expected, rel=1e-12)

    def test_two_click_superposition(self):
        # direct summation oracle with explicit Gaussian terms
        from snspdsim.circuit import nanowire_current

        amp, center, width = 0.4e-6, 180e-9, 40e-9
        m = DetectorModel(
            circuit=presets.profile_circuit(25.0e-6),
            rates=presets.profile_rates(),
            kernel=gaussian_kernel(amp, center, width),
        )
        t = 360e-9
        history = [0.0, 180e-9]

        def bump(dt):
            return amp * math.exp(-0.5 * ((dt - center) / width) ** 2)

        expected = nanowire_current(m.circuit, t - history[-1]) + bump(t) + bump(t - 180e-9)
        assert effective_bias(m, t, history) == pytest.approx(expected, rel=1e-9)

    def test_vectorized_evaluation(self):
        m = model_at(25.0e-6)
        t = np.array([100e-9, 200e-9, 400e-9])
        out = effective_bias(m, t, [0.0])
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))


class TestSimulate:
    def test_bit_identical_reruns(self):
        m = model_at(25.0e-6)
        a = simulate(m, StimulusConfig.none(), 0.3, 1234)
        b = simulate(m, StimulusConfig.none(), 0.3, 1234)
        assert a == b

    def test_seed_changes_stream(self):
        m = model_at(25.0e-6)
        a = simulate(m, StimulusConfig.none(), 0.3, 1)
        b = simulate(m, StimulusConfig.none(), 0.3, 2)
        assert not np.array_equal(a.detector_events, b.detector_events)

    def test_zero_duration_empty_stream(self):
        s = simulate(model_at(25.0e-6), StimulusConfig.none(), 0.0, 1)
        assert s.detector_events.size == 0
        assert s.duration_ps == 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_stream_invariants(self, seed):
        s = simulate(model_at(25.2e-6), StimulusConfig.none(), 0.02, seed)
        ev = s.detector_events
        if ev.size:
            assert np.all(np.diff(ev) > 0)
            assert ev[0] >= 0 and ev[-1] <= s.duration_ps

    def test_null_kernel_rate_and_exponentiality(self):
        m = model_at(25.0e-6, kernel_amplitude=0.0)
        s = simulate(m, StimulusConfig.none(), 3.0, 77)
        n = s.detector_events.size
        assert n == pytest.approx(3200 * 3.0, abs=4 * math.sqrt(3200 * 3.0))
        # beyond the recovery region the gaps must look exponential
        gaps = np.diff(s.detector_events) * 1e-12
        tail = gaps[gaps > 200e-9] - 200e-9
        _, p_value = stats.kstest(tail, "expon", args=(0.0, tail.mean()))
        assert p_value > 0.01

    def test_dead_time(self):
        # recovery suppresses close pairs. The bound comes from the model's
        # own law: while the current falls from I_b in the hotspot phase a
        # click can follow within 1-6 ps (in about one run in 16), but
        # from the hotspot's end on, the expected number of gaps below
        # `dead_ps` stays under 0.01 even if every click sat on the peak of
        # a parent's kernel
        m = model_at(25.2e-6)
        s = simulate(m, StimulusConfig.none(), 6.0, 5)
        gaps = np.diff(s.detector_events)
        assert s.detector_events.size > 30_000
        circuit = m.circuit
        t = np.linspace(circuit.hotspot_duration, 100e-9, 99_001)
        rate = m.rates.dark_rate(nanowire_current(circuit, t) + m.kernel.peak)
        expected = gaps.size * np.concatenate([[0.0], np.cumsum((rate[1:] + rate[:-1]) / 2 * np.diff(t))])
        dead_ps = whole_ps(t[np.searchsorted(expected, 0.01)] * PS_PER_SECOND, "dead time")
        hotspot_ps = whole_ps(circuit.hotspot_duration * PS_PER_SECOND, "hotspot")
        assert 20_000 < dead_ps < 60_000  # 32 ns
        assert not np.any((gaps >= hotspot_ps) & (gaps < dead_ps))
        assert np.count_nonzero(gaps < 80_000) <= 5

    def test_zero_photon_pulses_never_detect(self):
        m = model_at(25.0e-6)
        s = simulate(m, StimulusConfig.periodic(0.5e6, 0.0), 1.0, 11)
        expected_dark = 3200 / (1 - branching_probability(m))
        assert s.sync_events.size == 500_000
        assert s.detector_events.size == pytest.approx(
            expected_dark, abs=4 * math.sqrt(expected_dark)
        )

    def test_mean_photons_drive_detections(self):
        m = model_at(25.0e-6)
        s = simulate(m, StimulusConfig.periodic(0.5e6, 10.0), 0.1, 11)
        p_click = 1 - math.exp(-10 * 0.025)
        # laser clicks plus darks, amplified by the afterpulse cascade
        primaries = 50_000 * p_click + 3200 * 0.1
        expected = primaries / (1 - branching_probability(m))
        assert s.detector_events.size == pytest.approx(expected, abs=5 * math.sqrt(expected))


class TestLatching:
    def latch_model(self, shunt, policy):
        return DetectorModel(
            circuit=presets.profile_circuit(25.2e-6),
            rates=presets.profile_rates(),
            kernel=presets.profile_kernel(),
            shunt_enabled=shunt,
            latch_policy=policy,
        )

    def test_unshunted_detector_latches_on_first_click(self):
        # the kernel pushes I_eff past I_c, so the first click is the last
        m = self.latch_model(False, "permanent-until-reset")
        s = simulate(m, StimulusConfig.none(), 5.0, 9)
        assert s.detector_events.size == 1

    def test_unshunted_detector_clicks_once_at_the_quiet_rate(self):
        # the first click latches, and before it the detector is quiescent:
        # one click a run, at an Exp(rate_b) time (the unshunted-dark-24.0uA
        # pin holds such a run's bits)
        m = self.latch_model(False, "permanent-until-reset")
        rate_b = float(m.rates.dark_rate(m.circuit.bias_current))
        runs = [simulate(m, StimulusConfig.none(), 1500 / rate_b, seed).detector_events for seed in range(300)]
        assert {r.size for r in runs} == {1}
        assert stats.kstest([r[0] / PS_PER_SECOND * rate_b for r in runs], "expon").pvalue > TEST_ALPHA

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    @pytest.mark.parametrize("case", ["unshunted-latching"])
    def test_dark_streams_byte_identical(self, case, seed):
        # latching ends the run and changes nothing before it: the latched
        # run is, byte for byte, the first click of the same seed's run
        # without the latch policy
        m = self.latch_model(False, "permanent-until-reset")
        duration = 1500 / float(m.rates.dark_rate(m.circuit.bias_current))
        got = simulate(m, StimulusConfig.none(), duration, seed).detector_events
        free = simulate(dataclasses.replace(m, latch_policy="none"), StimulusConfig.none(), duration, seed)
        assert got.size == 1
        assert free.detector_events.size > 1
        assert got.tobytes() == free.detector_events[:1].tobytes()

    def test_shunt_prevents_latching(self):
        m = self.latch_model(True, "permanent-until-reset")
        s = simulate(m, StimulusConfig.none(), 1.0, 9)
        assert s.detector_events.size > 1000

    def test_latch_policy_none_never_latches(self):
        m = self.latch_model(False, "none")
        s = simulate(m, StimulusConfig.none(), 1.0, 9)
        assert s.detector_events.size > 1000

    def test_null_kernel_never_latches(self):
        # only a kernel lifts the current past I_b, so an unshunted detector
        # without one never latches, and layer 1 accepts its lone clicks
        m = dataclasses.replace(model_at(25.0e-6, kernel_amplitude=0.0), shunt_enabled=False,
                                latch_policy="permanent-until-reset")
        s = simulate(m, StimulusConfig.none(), 1.0, 9)
        assert s.detector_events.size > 1000
        assert s.metadata["engine"]["lone"] > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            self.latch_model(True, "sticky")


class TestBranching:
    def test_probability_matches_independent_quadrature(self):
        # oracle built from scratch: closed-form current, explicit Gaussian
        bias, amp, center, width = 25.0e-6, presets.KERNEL_AMPLITUDE, 180e-9, 15e-9
        lk, rn, rl, ths = 500e-9, 5000.0, 25.0, 1e-9
        i_ss = bias * rl / (rn + rl)
        i_end = i_ss + (bias - i_ss) * math.exp(-ths / (lk / (rn + rl)))
        s = np.linspace(0.0, 1e-6, 400_001)
        current = np.where(
            s <= ths,
            i_ss + (bias - i_ss) * np.exp(-s / (lk / (rn + rl))),
            bias - (bias - i_end) * np.exp(-(s - ths) / (lk / rl)),
        )
        kernel = amp * np.exp(-0.5 * ((s - center) / width) ** 2)
        lam = 3200.0 * np.exp(presets.DARK_RATE_SLOPE * (current + kernel - 25.0e-6))
        expected = 1.0 - math.exp(-float(np.trapezoid(lam, s)))
        got = branching_probability(model_at(bias))
        # the model carries a sampled kernel table, the oracle the exact
        # Gaussian; 1 ns sampling leaves a few-permille discrepancy
        assert got == pytest.approx(expected, rel=5e-3)

    def test_afterpulse_chains_are_memoryless(self):
        # P(another click within the window) must not depend on whether the
        # parent click was itself an afterpulse
        s = simulate(model_at(25.0e-6), StimulusConfig.none(), 30.0, 21)
        ev = s.detector_events
        gaps = np.diff(ev)
        is_afterpulse = np.concatenate([[False], gaps < 1_000_000])
        spawns = np.concatenate([gaps <= 1_000_000, [False]])
        parents_original = spawns[~is_afterpulse]
        parents_afterpulse = spawns[is_afterpulse]
        p1, n1 = parents_original.mean(), parents_original.size
        p2, n2 = parents_afterpulse.mean(), parents_afterpulse.size
        pooled = (parents_original.sum() + parents_afterpulse.sum()) / (n1 + n2)
        sigma = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        assert abs(p1 - p2) <= 3 * sigma

    def test_supercritical_model_is_refused(self):
        # 25.2 uA at 1e5/s: a click has about 5 further clicks on average, so
        # its trains never end and a 100 us run does not finish in minutes
        m = high_dark_rate(25.2e-6)
        assert -math.log1p(-branching_probability(m)) > 1.0
        with pytest.raises(ConfigError, match="supercritical"):
            simulate(m, StimulusConfig.none(), 1e-5, 1)

    def test_dark_rate_monotone_in_bias(self):
        rates = []
        for k, bias in enumerate([23.0e-6, 23.6e-6, 24.2e-6, 24.8e-6, 25.2e-6]):
            duration = 5000 / float(presets.profile_rates().dark_rate(bias))
            s = simulate(model_at(bias), StimulusConfig.none(), duration, 100 + k)
            rates.append(s.detector_events.size / s.duration_seconds)
        sigmas = [r / math.sqrt(r * d) for r, d in zip(rates, [5000 / r for r in rates])]
        for lo, hi, s_lo, s_hi in zip(rates, rates[1:], sigmas, sigmas[1:]):
            assert hi >= lo - 3 * math.hypot(s_lo, s_hi)


class TestTimeTagStream:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TimeTagStream(np.array([5, 4]), np.array([], np.int64), 10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TimeTagStream(np.array([4, 4]), np.array([], np.int64), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TimeTagStream(np.array([11]), np.array([], np.int64), 10)

    def test_rejects_duration_beyond_int64(self):
        with pytest.raises(StreamValidationError, match="duration_ps"):
            TimeTagStream(np.array([5]), np.array([], np.int64), 2**63)
        assert TimeTagStream(np.array([5]), np.array([], np.int64), 2**63 - 1).duration_ps == 2**63 - 1

    def test_metadata_records_config(self):
        s = simulate(model_at(25.0e-6), StimulusConfig.none(), 0.01, 42)
        assert s.metadata["seed"] == "42"
        assert "config_digest" in s.metadata
        assert s.metadata["bias_a"] == pytest.approx(25.0e-6)


class TestQuiescentSkip:
    @pytest.mark.parametrize("bias", presets.BIAS_SWEEP)
    def test_settle_time_against_current_law(self, bias):
        c = presets.profile_circuit(bias)
        settle = c.settle_time
        later = settle + np.array([0.0, 1e-12, 1e-9, 0.1e-6, 1e-6, 1e-3])
        assert np.all(nanowire_current(c, later) == bias)
        # and it is not loose: two recovery constants earlier the
        # exponential term still shows in the float current
        assert nanowire_current(c, settle - 2 * c.recovery_tau) < bias
        assert 700e-9 < settle < 800e-9

    def test_no_skip_while_kernel_live(self):
        # a faint 2 us kernel outlives the 1 us pulse period while the
        # current settles in ~0.77 us; 1e4 photons make every pulse click
        # that comes 97 ns or more after a click (p > 1 - 1e-9 on the
        # recovery law), so only a dark click just before a pulse hides it
        circuit = presets.profile_circuit(25.0e-6)
        stimulus = StimulusConfig.periodic(1e6, 1e4)

        def run(kernel):
            model = DetectorModel(circuit, presets.profile_rates(), kernel)
            s = simulate(model, stimulus, 2e-3, 5)
            events = s.detector_events
            dark = ~np.isin(events, s.sync_events)
            # a missed pulse follows a dark click by less than 100 ns
            missed = s.sync_events[~np.isin(s.sync_events, events)]
            before = np.searchsorted(events, missed) - 1
            assert np.all(dark[before]) and np.all(missed - events[before] < 100_000)
            return s.metadata["engine"], int(np.count_nonzero(dark))

        assert circuit.settle_time < 1e-6
        long_kernel = gaussian_kernel(1e-9, center=1e-6, width=0.2e-6)
        assert long_kernel.duration > 1e-6
        # only the first pulse meets a quiescent detector
        engine, _ = run(long_kernel)
        assert engine["pulses_skipped"] == 1
        assert engine["pulses_evaluated"] == 1999
        # with a kernel that dies before the next pulse, only a pulse in the
        # recovery after a dark click is evaluated
        short_kernel = gaussian_kernel(1e-9, center=0.2e-6, width=0.05e-6)
        assert short_kernel.duration < 1e-6
        engine, dark_clicks = run(short_kernel)
        assert engine["pulses_evaluated"] <= dark_clicks
        assert engine["pulses_skipped"] + engine["pulses_evaluated"] == 2000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_faint_pulses_without_dark_counts_give_no_click(self, seed):
        # at 23.0 uA one photon clicks with p ~ 1e-12, so 50,000 pulses give
        # no click but with p ~ 5e-8: every laser skip is past the last
        # pulse, the clamped ones too
        model = model_at(23.0e-6)
        model = dataclasses.replace(model, rates=dataclasses.replace(model.rates, dark_rate_ref=0.0))
        s = simulate(model, StimulusConfig.periodic(0.5e6, 1.0), 0.1, seed)
        assert s.sync_events.size == 50_000
        assert s.detector_events.size == 0

    def test_a_dark_rate_far_below_one_click_per_run_gives_none(self):
        # 5e-6 clicks are expected over 5e6 s: every dark skip is past the
        # run's last ps, the clamped ones too, as a clamp short of the run's
        # length would put a click at it
        model = model_at(25.0e-6, kernel_amplitude=0.0)
        model = dataclasses.replace(model, rates=dataclasses.replace(model.rates, dark_rate_ref=1e-12))
        s = simulate(model, StimulusConfig.none(), 5e6, 1)
        assert s.detector_events.size == 0

    @pytest.mark.parametrize("mu", [1e-300, 4e-23])
    def test_int64_trials_end_at_the_first_skip_past_them(self, mu):
        # 2**63 - 2 pulses and 2**63 - 1 ps, each with a chance of ~1e-302
        # to ~1e-24 (p_quiet is 0 at mu = 1e-300, and that stream draws
        # nothing): a skip clamped to one past the last trial ends each
        # stream at its first draw, whose uint64 sum is exact
        model = model_at(25.0e-6, kernel_amplitude=0.0)
        model = dataclasses.replace(model, rates=dataclasses.replace(model.rates, dark_rate_ref=1e-290))
        train = StimulusTrain(1, (0,), 2**63 - 2)
        began = time.perf_counter()
        out, engine = _run_engine(model, StimulusConfig.periodic(1e12, mu), train, INT64_MAX,
                                  np.random.default_rng(1))
        assert time.perf_counter() - began < 1.0
        assert out.size == 0 and engine["uniforms"] == 0


class TestEngineCounters:
    def test_counters_repeat_exactly(self):
        m = model_at(24.9e-6)
        stimulus = StimulusConfig.double_pulse(180e-9, 1.0)
        a = simulate(m, stimulus, 0.05, 8).metadata["engine"]
        b = simulate(m, stimulus, 0.05, 8).metadata["engine"]
        assert a == b
        assert a["uniforms"] > 0

    @pytest.mark.parametrize(
        "stimulus",
        [
            StimulusConfig.double_pulse(80e-9, 1.0),
            StimulusConfig.double_pulse(1000e-9, 20.0),
            StimulusConfig.periodic(0.5e6, 10.0),
            StimulusConfig.periodic(0.5e6, 0.0),
        ],
        ids=["double-80ns", "double-1000ns-mu20", "periodic-mu10", "periodic-mu0"],
    )
    def test_every_pulse_evaluated_or_skipped(self, stimulus):
        s = simulate(model_at(24.9e-6), stimulus, 0.05, 12)
        engine = s.metadata["engine"]
        n_pulses = make_stimulus(stimulus, 50_000_000_000).pulse_times_ps.size
        assert engine["pulses_evaluated"] + engine["pulses_skipped"] == n_pulses
        # a recovered detector is the rule, so skipping is too
        assert engine["pulses_skipped"] > 0.9 * n_pulses

    def test_zero_photons_draw_nothing_for_quiet_pulses(self):
        m = model_at(25.0e-6, kernel_amplitude=0.0)
        lit = simulate(m, StimulusConfig.periodic(0.5e6, 0.0), 0.05, 3)
        # p_q = 0: quiet pulses cost no uniform, and no pulse may click
        engine = lit.metadata["engine"]
        assert engine["pulses_evaluated"] <= lit.detector_events.size
        assert engine["uniforms"] < 0.1 * lit.sync_events.size

    def test_zero_photons_evaluate_no_pulse(self):
        # p_max = 0: no pulse may click, so no candidate draws a skip and
        # the resolver, which resolves the dark trains, evaluates no pulse
        s = simulate(model_at(24.9e-6), StimulusConfig.periodic(0.5e6, 0.0), 0.05, 1)
        engine = s.metadata["engine"]
        assert 0 < engine["lone"] < s.detector_events.size
        assert engine["pulses_evaluated"] == 0 and engine["pulses_skipped"] == s.sync_events.size

    @pytest.mark.parametrize("seed", [81, 82])
    def test_dense_train_evaluates_few_pulses_per_click(self, seed):
        # at 1 GHz and mu = 1 a window holds about 773 pulses, and one may
        # click with p_max = 0.0247: the resolver evaluates only those,
        # about 3 per click
        s = simulate(model_at(25.0e-6), StimulusConfig.periodic(1e9, 1.0), 20e-6, seed)
        assert s.metadata["engine"]["pulses_evaluated"] < 10 * s.detector_events.size

    def test_a_dense_window_can_be_lone(self):
        # at 1 GHz and mu = 1e-3 none of a window's 773 pulses may click
        # with probability (1 - 2.5e-5)**773 = 0.98, so most clicks are lone
        s = simulate(model_at(25.0e-6), StimulusConfig.periodic(1e9, 1e-3), 2e-3, 81)
        assert s.metadata["engine"]["lone"] > 0

    def test_dark_only_counts_no_pulses(self):
        s = simulate(model_at(25.2e-6), StimulusConfig.none(), 0.02, 4)
        engine = s.metadata["engine"]
        assert engine["pulses_evaluated"] == engine["pulses_skipped"] == 0
        # a candidate costs two draws, its time and its window's mass, and a
        # lone one nothing more; a resolved window thins its proposals, so
        # at 25.2 uA a click costs under 3 uniforms (216 for 108 clicks)
        clicks = s.detector_events.size
        assert 0 < engine["lone"] < clicks
        assert 2 * engine["lone"] < engine["uniforms"] <= 3 * clicks

    def test_sub_ps_coincidences_counted(self):
        # a detector with no dead time and a flat 1e12/s dark rate: every
        # proposal is accepted, about 1 ps apart, and those that round onto
        # the previous click's picosecond are dropped
        circuit = CircuitParams(
            kinetic_inductance=1e-15,
            hotspot_resistance=5000.0,
            load_resistance=25.0,
            bias_current=25e-6,
            critical_current=25.3e-6,
            hotspot_duration=1e-15,
        )
        m = DetectorModel(circuit, RateModel(1e12, 0.0, 0.025, 0.0, 25e-6))
        s = simulate(m, StimulusConfig.none(), 2e-9, 1)
        engine = s.metadata["engine"]
        accepted = s.detector_events.size + engine["coincidences_dropped"]
        assert engine["coincidences_dropped"] > 0.2 * accepted
        # the detector is busy for 1 ps (settle_time, 2.5 fs, in whole ps)
        # after a click, so only the resolver sees a coincidence. About 2000
        # candidates cost two draws each (their time and their window's
        # mass); a resolved click or coincidence at most two more (a mass
        # and its thinning draw)
        resolved = s.detector_events.size - engine["lone"] + engine["coincidences_dropped"]
        assert 0 < engine["lone"] < s.detector_events.size
        assert engine["uniforms"] <= 2 * (2000 + 4 * math.sqrt(2000)) + 2 * resolved

    def test_null_kernel_crosses_no_segment_end(self):
        s = simulate(model_at(25.2e-6, kernel_amplitude=0.0), StimulusConfig.periodic(0.5e6, 1.0),
                     0.02, 6)
        assert s.detector_events.size > 0
        assert s.metadata["engine"]["crossings"] == 0

    def test_segment_envelope_draws_few_uniforms_per_click(self):
        # the fig4 regime: an afterpulse on the peak of the earlier kernel
        # used to cost ~39 proposals against the sum of remaining maxima
        m = model_at(25.2e-6)
        s = simulate(m, StimulusConfig.none(), 3000 / float(m.rates.dark_rate(25.2e-6)), 7)
        engine, clicks = s.metadata["engine"], s.detector_events.size
        assert clicks > 3000
        assert engine["uniforms"] <= 3 * clicks
        # a window of clicks ends at one with no other in the quiet_ps after
        # it; a lone click is a window alone, and every other window is the
        # resolver's, whose envelope crosses at least its last kernel's end
        # (the run's last window perhaps after the run ends)
        quiet_ps = math.ceil(max(m.circuit.settle_time, m.kernel.duration) * PS_PER_SECOND)
        windows = np.count_nonzero(np.diff(s.detector_events) >= quiet_ps) + 1
        assert engine["crossings"] >= windows - engine["lone"] - 1

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "stimulus",
        [StimulusConfig.none(), StimulusConfig.periodic(0.5e6, 10.0),
         StimulusConfig.double_pulse(180e-9, 1.0)],
        ids=["dark", "periodic", "double-180ns"],
    )
    def test_longer_run_keeps_the_prefix(self, stimulus, seed):
        # a longer run keeps the clicks of a shorter one before it ends (a
        # pulse at exactly its end exists only in the longer run)
        m = model_at(25.2e-6)
        short = simulate(m, stimulus, 0.05, seed)
        longer = simulate(m, stimulus, 0.1, seed)
        cut = short.duration_ps
        a, b = short.detector_events, longer.detector_events
        assert a.size > 100
        assert np.array_equal(a[a < cut], b[b < cut])

    @pytest.mark.parametrize("chunk", [17, 64])
    @pytest.mark.parametrize(
        "stimulus",
        [StimulusConfig.none(), StimulusConfig.periodic(0.5e6, 10.0),
         StimulusConfig.double_pulse(180e-9, 1.0)],
        ids=["dark", "periodic", "double-180ns"],
    )
    def test_chunk_seams_leave_the_run_unchanged(self, monkeypatch, stimulus, chunk):
        # both candidate streams draw in sequence whatever their chunks, and
        # the merge keeps time order across the seams; a chunk of 17 or 64
        # draws holds up to 17 or 64 candidates
        m = model_at(25.2e-6)
        whole = simulate(m, stimulus, 0.05, 1)
        monkeypatch.setattr(simulation, "CANDIDATE_CHUNK", chunk)
        seamed = simulate(m, stimulus, 0.05, 1)
        assert whole.detector_events.size > 100
        assert seamed.detector_events.tobytes() == whole.detector_events.tobytes()
        assert seamed.metadata["engine"] == whole.metadata["engine"]

    def test_run_end_inside_a_kernel_stops_its_crossings(self):
        # a run that ends 1 ns before an isolated click's kernel ends keeps
        # the click and does the same work as one that ends 1 ns after it
        m = model_at(25.2e-6)
        kdur_ps = round(m.kernel.duration * 1e12)
        events = simulate(m, StimulusConfig.none(), 0.005, 3).detector_events
        gaps = np.diff(events)
        isolated = events[1:-1][(gaps[:-1] > kdur_ps + 10_000) & (gaps[1:] > kdur_ps + 10_000)][:5]
        assert isolated.size == 5
        for click in isolated.tolist():
            inside = simulate(m, StimulusConfig.none(), (click + kdur_ps - 1000) * 1e-12, 3)
            past = simulate(m, StimulusConfig.none(), (click + kdur_ps + 1000) * 1e-12, 3)
            assert inside.detector_events[-1] == past.detector_events[-1] == click
            # the lone test ignores the run end, and the resolver stops at
            # it after the same draws and crossings
            assert inside.metadata["engine"] == past.metadata["engine"]

    def test_zero_dark_rate_laser_only(self):
        m = model_at(25.0e-6)
        m = dataclasses.replace(m, rates=dataclasses.replace(m.rates, dark_rate_ref=0.0))
        s = simulate(m, StimulusConfig.periodic(1e6, 1.0), 0.001, 1)
        # no dark proposal: every click is a laser click, on a pulse
        assert s.detector_events.size > 0
        assert np.isin(s.detector_events, s.sync_events).all()
        assert s.metadata["engine"]["pulses_skipped"] > 0

    def test_zero_dark_rate_carries_the_mass_across_pulses(self):
        # a zero envelope proposes nothing, so no window holds a dark
        # proposal and, with no pulse inside 773 ns at 1 MHz, every click is
        # a lone laser candidate: its geometric draw, its mass and the skip
        # to its first pulse that may click, and no resolver work
        m = model_at(25.0e-6)
        m = dataclasses.replace(m, rates=dataclasses.replace(m.rates, dark_rate_ref=0.0))
        s = simulate(m, StimulusConfig.periodic(1e6, 1.0), 0.01, 1)
        clicks = s.detector_events.size
        engine = s.metadata["engine"]
        assert clicks == 241
        assert engine["lone"] == clicks and engine["pulses_evaluated"] == 0
        assert engine["uniforms"] == 3 * clicks

    def test_zero_dark_rate_dark_only_is_empty(self):
        m = model_at(25.0e-6)
        m = dataclasses.replace(m, rates=dataclasses.replace(m.rates, dark_rate_ref=0.0))
        s = simulate(m, StimulusConfig.none(), 0.001, 1)
        assert s.detector_events.size == 0
        assert s.duration_ps == 1_000_000_000

    def test_zero_duration_counters(self):
        s = simulate(model_at(25.0e-6), StimulusConfig.periodic(1e6, 1.0), 0.0, 1)
        engine = dict(s.metadata["engine"])
        assert engine.pop("latched_at_ps") is None
        assert set(engine) == set(simulation.ENGINE_COUNTERS)
        assert set(engine.values()) == {0}


class TestEpochClock:
    @pytest.mark.parametrize("offset_s", [1e5, 3e6])
    @pytest.mark.parametrize(
        "stimulus",
        [StimulusConfig.none(), StimulusConfig.periodic(0.5e6, 10.0),
         StimulusConfig.double_pulse(180e-9, 1.0)],
        ids=["dark", "periodic", "double-180ns"],
    )
    def test_start_offset_shifts_every_click_exactly(self, stimulus, offset_s):
        # the engine keeps time since the last click, so a realization
        # started 1e5 s or 35 days later, with its pulses, is the same one
        # shifted by exactly as many ps. Absolute float seconds would move
        # its clicks: their spacing is 15 ps at 1e5 s and 470 ps at 35 days
        m = model_at(25.2e-6)
        duration_ps = whole_ps(0.05 * PS_PER_SECOND, "duration")
        offset = whole_ps(offset_s * PS_PER_SECOND, "offset")
        train = make_stimulus(stimulus, duration_ps)
        later = dataclasses.replace(train, origin_ps=offset)
        base, counters = _run_engine(m, stimulus, train, duration_ps, np.random.default_rng(5))
        shifted, shifted_counters = _run_engine(
            m, stimulus, later, duration_ps + offset, np.random.default_rng(5), start_ps=offset
        )
        assert base.size > 100
        assert np.array_equal(shifted, base + offset)
        assert shifted_counters == counters


class TestModelTables:
    def test_tables_are_built_once_per_model(self):
        # the thinning tables are kept on the frozen model: a second run of
        # the model, and a run of a copy that builds its own, are the same
        m = model_at(25.2e-6)
        stimulus = StimulusConfig.double_pulse(180e-9, 1.0)
        first = simulate(m, stimulus, 0.02, 5)
        tables = m._tables
        second = simulate(m, stimulus, 0.02, 5)
        copy = dataclasses.replace(m)
        third = simulate(copy, stimulus, 0.02, 5)
        assert m._tables is tables
        assert copy._tables is not tables
        assert same_tables(copy._tables, _kernel_tables(m)) and same_tables(copy._tables, tables)
        assert first.detector_events.size > 0
        assert first == second == third

    def test_kernel_samples_are_read_only(self):
        # the tables are built from the samples once, so they cannot change
        source = np.array([0.0, 1e-7, 0.0])
        kernel = gaussian_kernel(presets.KERNEL_AMPLITUDE)
        with pytest.raises(ValueError, match="read-only"):
            kernel.samples[0] = 1.0
        copied = dataclasses.replace(kernel, samples=source)
        source[1] = 1.0
        assert copied.samples[1] == 1e-7

    def test_supercritical_model_is_refused_on_every_call(self):
        m = high_dark_rate(25.2e-6)
        for _ in range(2):
            with pytest.raises(ConfigError, match="supercritical"):
                simulate(m, StimulusConfig.none(), 1e-5, 1)

    @pytest.mark.parametrize("kernel_amplitude", [presets.KERNEL_AMPLITUDE, 0.0], ids=["kernel", "null-kernel"])
    def test_overflowing_dark_rate_is_refused(self, kernel_amplitude):
        # a slope of 1e12/A at 25.2 uA puts 2e5 into math.exp, in the tables
        # or, without a kernel, in rate_b
        m = model_at(25.2e-6, kernel_amplitude)
        m = dataclasses.replace(m, rates=dataclasses.replace(m.rates, dark_rate_slope=1e12))
        with pytest.raises(ConfigError, match="overflows"):
            simulate(m, StimulusConfig.none(), 1e-6, 1)

    @pytest.mark.parametrize("rate", [1.000001e12, 1e13, 1e15])
    def test_mean_dark_gap_under_a_ps_is_refused(self, rate):
        # nearly every gap would round to 0 ps, and the run would not end;
        # exactly 1e12/s runs (test_sub_ps_coincidences_counted)
        m = model_at(25.0e-6, kernel_amplitude=0.0)
        m = dataclasses.replace(m, rates=dataclasses.replace(m.rates, dark_rate_ref=rate))
        with pytest.raises(ConfigError, match="above 1e12/s"):
            simulate(m, StimulusConfig.none(), 1e-6, 1)

    @pytest.mark.parametrize("bias_ua", [23.0, 25.2])
    @pytest.mark.parametrize("kernel", ["profile", "wide-band", "signed"])
    def test_one_kernel_envelope_bounds_the_law_in_each_interval(self, kernel, bias_ua):
        # a click with no older kernel live is thinned per sample interval
        # against the larger recovery at the interval's ends plus the larger
        # positive part of its two samples: at least the array law's dark
        # rate on a grid inside every interval, both ends included, to the
        # engine's own 1e-9 check
        m = table_model(kernel, bias_ua * 1e-6)
        envs, ksp = np.array(m._tables.envs), m._tables.sample_period
        assert envs.size == m.kernel.samples.size - 1 == len(m._tables.masses) - 1
        d = (np.arange(envs.size)[:, None] + np.linspace(0.0, 1.0, 9)) * ksp
        law = m.rates.dark_rate(effective_bias(m, d, [0.0]))
        assert np.all(envs[:, None] * (1.0 + 1e-9) >= law)

    @pytest.mark.parametrize("bias_ua", [23.0, 25.2])
    @pytest.mark.parametrize("kernel", ["profile", "wide-band", "signed"])
    def test_lifted_envelope_bounds_an_older_kernel(self, kernel, bias_ua):
        # an older kernel clicked `age` before the newest lifts the newest's
        # envelope by exp(g * its suffix maximum at its age), the lifts
        # table's entry for the interval of its age. The tightest
        # lift, taken at the time itself, must bound the array law of both
        # clicks on a grid inside every interval while the older one is
        # live; a lift taken earlier is larger. Ages 1-230 ns cover a child
        # on the rise, the peak and the fall of its parent's bump (every
        # 10 ns on the wide-band kernel's 80,000 intervals)
        m = table_model(kernel, bias_ua * 1e-6)
        tables = m._tables
        envs, lifts, ksp = np.array(tables.envs), np.array(tables.lifts), tables.sample_period
        k = np.repeat(np.arange(envs.size), 9)
        d = (k + np.tile(np.linspace(0.0, 1.0, 9), envs.size)) * ksp
        for age in np.arange(1, 231, 10 if kernel == "wide-band" else 1) * 1e-9:
            live = d + age < m.kernel.duration
            t = d[live]
            lift = lifts[((t + age) / ksp).astype(np.int64)]
            law = m.rates.dark_rate(effective_bias(m, t, [-age, 0.0]))
            assert np.all(lift * envs[k[live]] * (1.0 + 1e-9) >= law), f"older kernel at {age:.0e} s"

    @pytest.mark.parametrize("bias_ua", [23.0, 24.0, 24.9, 25.0, 25.2])
    def test_one_kernel_window_mass_is_close_to_the_law(self, bias_ua):
        # the envelope mass of a lone kernel, which the lone test compares
        # with a candidate's window mass, is within 10% of the array law's
        # quadrature: a candidate is sent to the resolver for a proposal
        # the law would give, seldom for one it thins away
        m = model_at(bias_ua * 1e-6)
        mass = m._tables.masses[-1]
        s = np.linspace(0.0, m.kernel.duration, len(m._tables.envs) * 64 + 1)
        law = np.trapezoid(m.rates.dark_rate(effective_bias(m, s, [0.0])), s)
        assert law < mass < 1.10 * law

    @pytest.mark.parametrize("kernel", ["profile", "wide-band", "signed"])
    def test_one_kernel_tables_match_the_loop(self, kernel):
        # the envelopes in math.exp per interval, from the recovery law in
        # math.exp at the interval ends, and the masses as a running sum,
        # bit for bit; the lifts are exp(g * the kernel's own suffix maxima).
        # The lockstep's arrays hold the same values, past the kernel rate_b
        # and a lift of 1.0
        m = table_model(kernel, 25.2e-6)
        tables, rates, c = m._tables, m.rates, m.circuit
        samples, ksp = m.kernel.samples.tolist(), tables.sample_period
        i_b, i_ss, t_hs = c.bias_current, c.resistive_branch_current, c.hotspot_duration
        t_quiet = max(c.settle_time, m.kernel.duration)

        def recovery(s):
            if s >= t_quiet:
                return i_b
            if s <= t_hs:
                return i_ss + (i_b - i_ss) * math.exp(-s / c.fall_tau)
            return i_b - (i_b - c.hotspot_end_current) * math.exp(-(s - t_hs) / c.recovery_tau)

        envs, masses = [], [0.0]
        for k, (a, b) in enumerate(zip(samples, samples[1:])):
            top = max(recovery(k * ksp), recovery((k + 1) * ksp)) + max(a, b, 0.0)
            envs.append(rates.dark_rate_ref * math.exp(rates.dark_rate_slope * (top - rates.reference_bias)))
            masses.append(masses[-1] + envs[-1] * ksp)
        assert tables.envs == envs
        assert tables.masses == masses
        assert tables.lifts == [math.exp(rates.dark_rate_slope * s) for s in m.kernel.max_remaining().tolist()]
        starts = [k * ksp for k in range(len(samples))]
        rate_b = rates.dark_rate_ref * math.exp(rates.dark_rate_slope * (i_b - rates.reference_bias))
        assert tables.tab.tolist() == [masses, envs + [rate_b], starts, starts[1:] + [math.inf]]
        assert tables.lifts_x.tolist() == tables.lifts + [1.0]
        assert tables.pairs.tolist() == [samples[:-1], samples[1:]]

    @pytest.mark.parametrize("live", [1, 3, 6])
    @pytest.mark.parametrize("kernel", ["profile", "wide-band"])
    def test_lane_bias_is_bias_at_on_the_grid(self, kernel, live):
        # the latch scan passes every active kernel as a row of lane_bias,
        # up to six here, more than the lockstep's default LANE_STEPS: on
        # the kernel's sample grid it is bias_at bit for bit, with kernels
        # clicked at assorted ages before the newest at 0.0, on and off the
        # grid, live and dead
        m = table_model(kernel, 25.2e-6)
        tables, c = m._tables, m.circuit
        ksp, kdur = tables.sample_period, tables.duration
        bias_at, lane_bias = simulation._scalar_law(
            c, max(c.settle_time, kdur), tables.samples, tables.pairs, ksp, kdur
        )
        ages = [1.25 * kdur, 0.73 * kdur, 117 * ksp, 40.5 * ksp, 3.3e-9, 0.0][-live:]
        active = [-age for age in ages]
        grid = tables.tab[2]
        assert grid.size == len(tables.samples)
        lanes = lane_bias(grid, np.reshape(active, (-1, 1)))
        assert lanes.tolist() == [bias_at(when, active) for when in grid.tolist()]

    def test_zero_kernel_has_the_empty_tables(self):
        # an identically zero kernel has no effect: its tables are those of
        # a model without a kernel, with no interval and no branching
        m = DetectorModel(presets.profile_circuit(25.0e-6), presets.profile_rates(),
                          gaussian_kernel(0.0))
        empty = model_at(25.0e-6, kernel_amplitude=0.0)._tables
        assert same_tables(m._tables, empty) and same_tables(empty, _kernel_tables(m))
        assert empty.branching == 0.0 and empty.envs == [] and empty.masses == [0.0]


def same_tables(a, b):
    # a table's lists and numbers compare with ==, its arrays element by
    # element
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def unshunted(bias):
    return dataclasses.replace(model_at(bias), shunt_enabled=False,
                               latch_policy="permanent-until-reset")


def high_dark_rate(bias, kernel_amplitude=presets.KERNEL_AMPLITUDE):
    m = model_at(bias, kernel_amplitude)
    return dataclasses.replace(m, rates=dataclasses.replace(m.rates, dark_rate_ref=1e5))


def wide_band_model(bias):
    # fig11's kernel: the readout overshoot through the wide-band amplifier
    amps_per_volt, offset = presets.overshoot_coupling()
    kernel = amplifier_kernel(presets.profile_circuit(bias), presets.WIDE_BAND,
                              amps_per_volt=amps_per_volt, time_offset=offset)
    return dataclasses.replace(model_at(bias), kernel=kernel)


def table_model(kernel, bias):
    # the kernels the table tests bound: the profile bump, fig11's 80,001
    # samples and one that changes sign within most of its intervals
    if kernel == "wide-band":
        return wide_band_model(bias)
    if kernel == "signed":
        samples = presets.KERNEL_AMPLITUDE * np.sin(np.arange(301) * 2.3)
        return dataclasses.replace(model_at(bias), kernel=PerturbationKernel(samples, 1e-9))
    return model_at(bias)


def two_us_kernel(bias):
    # the profile bump followed by a zero tail out to the 2 us maximum
    kernel = gaussian_kernel(presets.KERNEL_AMPLITUDE, presets.KERNEL_CENTER,
                             presets.KERNEL_WIDTH, extent=1000.0)
    return dataclasses.replace(model_at(bias), kernel=kernel)


# (model, stimulus, duration in s, seed) of each pinned run
PINNED_RUNS = {
    "periodic-0.5MHz-mu10": lambda: (
        model_at(25.0e-6), StimulusConfig.periodic(0.5e6, 10.0), 0.02, 11),
    "double-80ns": lambda: (
        model_at(24.9e-6), StimulusConfig.double_pulse(80e-9, 1.0), 0.05, 8),
    "double-180ns": lambda: (
        model_at(24.9e-6), StimulusConfig.double_pulse(180e-9, 1.0), 0.05, 8),
    "double-1000ns": lambda: (
        model_at(24.9e-6), StimulusConfig.double_pulse(1000e-9, 1.0), 0.05, 8),
    "unshunted-latching-1MHz": lambda: (
        unshunted(25.2e-6), StimulusConfig.periodic(1e6, 1.0), 0.01, 9),
    "null-kernel-1MHz": lambda: (
        model_at(25.0e-6, kernel_amplitude=0.0), StimulusConfig.periodic(1e6, 1.0), 0.02, 3),
    # an identically zero kernel is dropped, so it gives the null-kernel run
    "zero-kernel-1MHz": lambda: (
        DetectorModel(presets.profile_circuit(25.0e-6), presets.profile_rates(),
                      gaussian_kernel(0.0)),
        StimulusConfig.periodic(1e6, 1.0), 0.02, 3),
    # p_quiet = 1: every quiet pulse clicks, and each geometric skip is 1
    "periodic-0.5MHz-mu1e4": lambda: (
        model_at(25.0e-6), StimulusConfig.periodic(0.5e6, 1e4), 0.004, 1),
    # p_quiet = 0: no laser candidate; only the resolver evaluates pulses
    "periodic-0.5MHz-mu0": lambda: (
        model_at(24.9e-6), StimulusConfig.periodic(0.5e6, 0.0), 0.05, 1),
    # p_quiet ~ 1e-12 at 23.0 uA: almost every candidate is a dark one
    "dark-1e5-23.0uA-0.5MHz": lambda: (
        high_dark_rate(23.0e-6), StimulusConfig.periodic(0.5e6, 1.0), 0.1, 1),
    "dark-1e5-23.0uA-0.5MHz-null-kernel": lambda: (
        high_dark_rate(23.0e-6, 0.0), StimulusConfig.periodic(0.5e6, 1.0), 0.1, 1),
    "unshunted-dark-24.0uA": lambda: (unshunted(24.0e-6), StimulusConfig.none(), 0.05, 1),
    # the kernel outlives the 1 us pulse period: no pulse after the first is skipped
    "kernel-2us-1MHz-mu1e4": lambda: (
        two_us_kernel(25.0e-6), StimulusConfig.periodic(1e6, 1e4), 0.002, 1),
}

# the NumPy feature release the pins were made with: Generator.geometric
# draws the dark and the laser candidates and their window skips,
# standard_exponential their window masses and random the lane uniforms,
# and NumPy's random policy (NEP 19) does not promise a Generator method's
# stream across feature releases
PINNED_NUMPY = "2.4"

# SHA-256 of detector_events.tobytes() and metadata["engine"] of each run
PINNED = {
    "dark-1e5-23.0uA-0.5MHz": (
        "a9ecdb031b322c6624f6a0c3de8b10aaf43b493b090ffbd9df9726c7056e6581",
        {"uniforms": 451, "pulses_evaluated": 1, "pulses_skipped": 49999, "coincidences_dropped": 0, "crossings": 28, "lone": 135, "proposals": 10, "latched_at_ps": None},
    ),
    "dark-1e5-23.0uA-0.5MHz-null-kernel": (
        "a9ab11969631b0d2677a611ea1adb1dd2c7ce0c76824514d8bad70a53c88aee0",
        {"uniforms": 431, "pulses_evaluated": 1, "pulses_skipped": 49999, "coincidences_dropped": 0, "crossings": 0, "lone": 142, "proposals": 0, "latched_at_ps": None},
    ),
    "double-1000ns": (
        "669642d46c5595e648ae7274c70469922824ea0ffda8a7a61ca372e6b9ed54ef",
        {"uniforms": 1676, "pulses_evaluated": 4, "pulses_skipped": 49996, "coincidences_dropped": 0, "crossings": 149, "lone": 470, "proposals": 51, "latched_at_ps": None},
    ),
    "double-180ns": (
        "f0c7e68c4ed69b47e11cfec51c11f0b00619fb4408e340343bb7f557afe1b6b7",
        {"uniforms": 1688, "pulses_evaluated": 7, "pulses_skipped": 49993, "coincidences_dropped": 0, "crossings": 161, "lone": 466, "proposals": 53, "latched_at_ps": None},
    ),
    "double-80ns": (
        "a9c6510476ba27d21a992f901dc974d3aadafa145b0e1c8ce02146422aedb204",
        {"uniforms": 1685, "pulses_evaluated": 8, "pulses_skipped": 49992, "coincidences_dropped": 0, "crossings": 152, "lone": 465, "proposals": 52, "latched_at_ps": None},
    ),
    "kernel-2us-1MHz-mu1e4": (
        "8d034a96361bfd892dcdd8005334476c30dc9f56aa8c948753f6721808537dbd",
        {"uniforms": 12889, "pulses_evaluated": 1999, "pulses_skipped": 1, "coincidences_dropped": 0, "crossings": 7041, "lone": 0, "proposals": 443, "latched_at_ps": None},
    ),
    "null-kernel-1MHz": (
        "23618886d04cc2df2b5434cd84533f7e8344deae32fc30f742c2bcf4587a5484",
        {"uniforms": 1646, "pulses_evaluated": 1, "pulses_skipped": 19999, "coincidences_dropped": 0, "crossings": 0, "lone": 542, "proposals": 1, "latched_at_ps": None},
    ),
    "periodic-0.5MHz-mu0": (
        "06ed113ac53583dfe33aa6ae6499fc3f1bc2066f0b4255cebcbb66b060d894cf",
        {"uniforms": 298, "pulses_evaluated": 0, "pulses_skipped": 25000, "coincidences_dropped": 0, "crossings": 60, "lone": 109, "proposals": 23, "latched_at_ps": None},
    ),
    "periodic-0.5MHz-mu10": (
        "77c7b7d560660d8a1e3162a61ff94d83cc121497aca2cab0a9c5833036c14440",
        {"uniforms": 7615, "pulses_evaluated": 5, "pulses_skipped": 9995, "coincidences_dropped": 0, "crossings": 801, "lone": 2080, "proposals": 291, "latched_at_ps": None},
    ),
    "periodic-0.5MHz-mu1e4": (
        "57ca79bbc7200a37245e9056b68ed203f7863372273628a438335f0c48c152ce",
        {"uniforms": 6591, "pulses_evaluated": 4, "pulses_skipped": 1996, "coincidences_dropped": 0, "crossings": 760, "lone": 1761, "proposals": 272, "latched_at_ps": None},
    ),
    "unshunted-dark-24.0uA": (
        "c8a76e4568fe489dbd704a7d2bbadfcedc5d6137e96d3003033932f27ce35e60",
        {"uniforms": 2, "pulses_evaluated": 0, "pulses_skipped": 0, "coincidences_dropped": 0, "crossings": 0, "lone": 0, "proposals": 0, "latched_at_ps": 2719896643},
    ),
    "unshunted-latching-1MHz": (
        "991731e9ee48aaf0a804649f3237051ffe5f5a00cbaa1e0fd8ec63b3c74e5bee",
        {"uniforms": 3, "pulses_evaluated": 0, "pulses_skipped": 17, "coincidences_dropped": 0, "crossings": 0, "lone": 0, "proposals": 0, "latched_at_ps": 16000000},
    ),
    "zero-kernel-1MHz": (
        "23618886d04cc2df2b5434cd84533f7e8344deae32fc30f742c2bcf4587a5484",
        {"uniforms": 1646, "pulses_evaluated": 1, "pulses_skipped": 19999, "coincidences_dropped": 0, "crossings": 0, "lone": 542, "proposals": 1, "latched_at_ps": None},
    ),
}


class TestPinnedRealizations:
    def test_zero_kernel_pin_is_the_null_kernel_pin(self):
        # an identically zero kernel is dropped, so its run is the null-kernel one
        assert PINNED["zero-kernel-1MHz"] == PINNED["null-kernel-1MHz"]

    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_laser_realization_pinned(self, case):
        """Pins the exact realizations of engine runs, most with laser pulses.

        The law oracle (test_law_oracle.py) judges runs like these only
        statistically; the digests pin them byte for byte: the candidates
        and their window skips and masses, the lone test, the resolver's
        pulses and thinning, latching under a laser and on the first dark
        click, the null kernel, the kernel thinning over sample intervals
        lifted by the older live kernels, and the epoch clock. A change that consumes the
        random streams differently on purpose must re-pin them and say so in
        CHANGES.md.
        """
        model, stimulus, duration, seed = PINNED_RUNS[case]()
        s = simulate(model, stimulus, duration, seed)
        digest = hashlib.sha256(s.detector_events.tobytes()).hexdigest()
        assert (digest, s.metadata["engine"]) == PINNED[case], (
            f"pinned with NumPy {PINNED_NUMPY}.x, run with NumPy {np.__version__}")


# the stimuli of the chunk-seam and longer-run-prefix tests, at 25.2 uA
SEAM_STIMULI = {
    "dark": StimulusConfig.none(),
    "periodic": StimulusConfig.periodic(0.5e6, 10.0),
    "double-180ns": StimulusConfig.double_pulse(180e-9, 1.0),
}

# the runs on which the lockstep and the scalar loop must agree byte for
# byte: every pinned run, the seam and prefix stimuli at both their seeds,
# the 2 us kernel, 20 us of test_dense_train_agrees's 1 GHz train, the same
# train at mu = 1e-3 and a few more
LOCKSTEP_RUNS = {
    **PINNED_RUNS,
    **{f"{name}-25.2uA-seed{seed}": (lambda stimulus=stimulus, seed=seed: (model_at(25.2e-6), stimulus, 0.05, seed))
       for name, stimulus in SEAM_STIMULI.items() for seed in (1, 7)},
    "2us-kernel-dark": lambda: (two_us_kernel(25.2e-6), StimulusConfig.none(), 0.02, 3),
    # trains dense enough that a lane clicks while three of its kernels are
    # live, so that it holds three older ones (one lane at LANE_STEPS 4,
    # sixteen at 8)
    "2us-kernel-dark-1e5": lambda: (
        dataclasses.replace(high_dark_rate(24.0e-6), kernel=two_us_kernel(24.0e-6).kernel), StimulusConfig.none(), 0.5, 3),
    "1GHz-20us": lambda: (model_at(25.0e-6), StimulusConfig.periodic(1e9, 1.0), 20e-6, 81),
    # most of its windows hold no pulse that may click and are lone
    "1GHz-mu1e-3-2ms": lambda: (model_at(25.0e-6), StimulusConfig.periodic(1e9, 1e-3), 2e-3, 81),
    # no dark proposal, so a lane ends at a pulse; and kernels that change
    # sign or span 80,000 intervals
    "zero-dark-1MHz": lambda: (
        dataclasses.replace(model_at(25.0e-6), rates=dataclasses.replace(model_at(25.0e-6).rates, dark_rate_ref=0.0)),
        StimulusConfig.periodic(1e6, 1.0), 0.01, 1),
    "signed-kernel-dark": lambda: (table_model("signed", 25.2e-6), StimulusConfig.none(), 0.02, 2),
    "wide-band-kernel-dark": lambda: (table_model("wide-band", 25.2e-6), StimulusConfig.none(), 0.02, 2),
    # the dark-afterpulse benchmark's run: 5,000 primary dark counts in one
    # chunk of about 800 lanes
    **{f"5000-counts-25.2uA-seed{seed}": (lambda seed=seed: (
        model_at(25.2e-6), StimulusConfig.none(), 5000 / float(model_at(25.2e-6).rates.dark_rate(25.2e-6)), seed))
       for seed in (1, 2)},
}


class TestLockstep:
    """Layer 2 resolves a lane in NumPy lockstep or in the scalar loop, and
    both give the same clicks and counters: with no lockstep step (K = 0),
    with one, with the default LANE_STEPS, and with as many steps as a lane
    has block uniforms, so that lanes leave the lockstep before they would
    read past their block."""

    def runs(self, monkeypatch, model, stimulus, duration, seed):
        out = {}
        for k in (0, 1, simulation.LANE_STEPS, simulation.LANE_DRAWS):
            monkeypatch.setattr(simulation, "LANE_STEPS", k)
            s = simulate(model, stimulus, duration, seed)
            out[f"K={k}"] = (hashlib.sha256(s.detector_events.tobytes()).hexdigest(), s.metadata["engine"])
        return out

    def assert_agree(self, runs):
        (_, scalar), *lockstep = runs.items()
        for name, run in lockstep:
            assert run == scalar, name

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_RUNS))
    def test_lockstep_agrees_with_the_scalar_loop(self, monkeypatch, case):
        self.assert_agree(self.runs(monkeypatch, *LOCKSTEP_RUNS[case]()))

    @pytest.mark.parametrize("stimulus", sorted(SEAM_STIMULI))
    def test_lockstep_agrees_across_chunk_seams(self, monkeypatch, stimulus):
        # a chunk holds at most 64 candidates, so lanes meet the lanes and
        # trains of the chunk before
        monkeypatch.setattr(simulation, "CANDIDATE_CHUNK", 64)
        self.assert_agree(self.runs(monkeypatch, model_at(25.2e-6), SEAM_STIMULI[stimulus], 0.05, 1))

    def test_a_lane_inside_an_earlier_lanes_train_is_dropped(self, monkeypatch):
        # at mu = 1e4 every pulse is a candidate, 833 ns apart, past the
        # 772 ns window of the one before, so each that is not lone is a
        # lockstep lane; an afterpulse carries a train past the next pulse,
        # whose lane the lockstep finishes all the same (91 such lanes in
        # this run) and the pass must drop, as the scalar loop never
        # resolves it
        runs = self.runs(monkeypatch, model_at(25.2e-6), StimulusConfig.periodic(1.2e6, 1e4), 0.004, 1)
        self.assert_agree(runs)


class TestLatchedCounters:
    @pytest.mark.parametrize("case", ["unshunted-latching-1MHz", "unshunted-dark-24.0uA"])
    def test_a_latched_run_counts_nothing_past_its_latch(self, case):
        # the counters stop at the click the run latches on: the pulses
        # evaluated and skipped are those at or before it, and the run
        # counts what the same run cut 1 ps after the latch counts
        model, stimulus, duration, seed = PINNED_RUNS[case]()
        s = simulate(model, stimulus, duration, seed)
        engine = s.metadata["engine"]
        latch = engine["latched_at_ps"]
        assert latch == s.detector_events[-1]
        pulses = int(make_stimulus(stimulus, s.duration_ps).count(latch))
        assert engine["pulses_evaluated"] + engine["pulses_skipped"] == pulses
        cut = simulate(model, stimulus, (latch + 1) / PS_PER_SECOND, seed)
        assert cut.metadata["engine"] == engine

    def test_a_run_that_does_not_latch_has_no_latch_time(self):
        m = TestLatching().latch_model(False, "none")
        assert simulate(m, StimulusConfig.none(), 0.01, 9).metadata["engine"]["latched_at_ps"] is None
