"""Circuit-model tests: current dynamics, filter design, perturbation
kernels. Expected values come from closed-form oracles
evaluated inside the tests; the band-pass design and the filter loop are
also held bit for bit to SciPy's `butter` and `sosfilt`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from snspdsim import presets
from snspdsim.circuit import (
    DEFAULT_SAMPLE_PERIOD,
    BiquadCascade,
    CircuitParams,
    FilterSpec,
    Waveform,
    apply_filter,
    design_bandpass,
    gaussian_kernel,
    nanowire_current,
    overshoot_kernel,
    readout_pulse,
    waveform_table,
)
from snspdsim.errors import ConfigError, PrecisionError
from snspdsim.tables import write_csv

from reference_impls import cascade_magnitude_db, cascade_poles, is_validly_biased


def fig_a2_params(bias=25e-6):
    return CircuitParams(
        kinetic_inductance=500e-9,
        hotspot_resistance=5000.0,
        load_resistance=25.0,
        bias_current=bias,
        critical_current=25.3e-6,
        amplifier_gain_db=56.0,
        hotspot_duration=1e-9,
    )


class TestNanowireCurrent:
    def test_recovery_time_constant(self):
        p = fig_a2_params()
        assert p.recovery_tau == pytest.approx(500e-9 / 25.0, rel=1e-12)
        assert p.recovery_tau == pytest.approx(20e-9, rel=1e-12)

    def test_fall_time_constant(self):
        p = fig_a2_params()
        assert p.fall_tau == pytest.approx(500e-9 / (5000.0 + 25.0), rel=1e-12)
        assert p.fall_tau == pytest.approx(0.0995e-9, rel=1e-3)

    def test_recovery_reaches_95_percent_at_3_tau(self):
        p = fig_a2_params()
        i3 = nanowire_current(p, p.hotspot_duration + 3 * p.recovery_tau)
        # normalized recovery is exactly 1 - e^-3 regardless of constants
        normalized = (i3 - p.hotspot_end_current) / (p.bias_current - p.hotspot_end_current)
        assert normalized == pytest.approx(1.0 - math.exp(-3.0), rel=1e-9)
        # in absolute terms that is the published ~95.02% of I_b
        assert i3 / p.bias_current == pytest.approx(0.9502, abs=1e-3)

    def test_two_phase_closed_form(self):
        p = fig_a2_params()
        # independent evaluation of the piecewise solution
        i_ss = p.bias_current * 25.0 / 5025.0
        for t in (0.0, 0.05e-9, 0.3e-9, 1e-9):
            expected = i_ss + (p.bias_current - i_ss) * math.exp(-t / p.fall_tau)
            assert nanowire_current(p, t) == pytest.approx(expected, rel=1e-12)
        i_end = i_ss + (p.bias_current - i_ss) * math.exp(-1e-9 / p.fall_tau)
        for t in (2e-9, 20e-9, 100e-9):
            expected = p.bias_current - (p.bias_current - i_end) * math.exp(
                -(t - 1e-9) / p.recovery_tau
            )
            assert nanowire_current(p, t) == pytest.approx(expected, rel=1e-12)

    def test_continuity_at_hotspot_end(self):
        p = fig_a2_params()
        left = nanowire_current(p, p.hotspot_duration)
        right = nanowire_current(p, p.hotspot_duration * (1 + 1e-12))
        assert abs(left - right) <= 1e-12 * p.bias_current

    def test_monotone_within_phases(self):
        p = fig_a2_params()
        falling = nanowire_current(p, np.linspace(0, p.hotspot_duration, 500))
        assert np.all(np.diff(falling) <= 0)
        recovering = nanowire_current(p, np.linspace(p.hotspot_duration, 300e-9, 500))
        assert np.all(np.diff(recovering) >= 0)

    def test_asymptote_is_bias_current(self):
        p = fig_a2_params()
        assert nanowire_current(p, 5e-6) == pytest.approx(p.bias_current, rel=1e-12)

    def test_recovery_log_affine(self):
        p = fig_a2_params()
        t = np.linspace(2e-9, 100e-9, 400)
        deficit = p.bias_current - nanowire_current(p, t)
        slope, intercept = np.polyfit(t, np.log(deficit), 1)
        residual = np.log(deficit) - (intercept + slope * t)
        r2 = 1 - residual.var() / np.log(deficit).var()
        assert slope == pytest.approx(-1.0 / p.recovery_tau, rel=1e-6)
        assert r2 > 0.9999

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            nanowire_current(fig_a2_params(), -1e-12)

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(ValueError):
            CircuitParams(0.0, 5000.0, 25.0, 25e-6, 25.3e-6)

    def test_overbias_is_representable(self):
        p = fig_a2_params(bias=26e-6)
        assert not is_validly_biased(p)
        assert nanowire_current(p, 10e-9) < p.bias_current


class TestLoadVoltage:
    def test_peak_matches_divider(self):
        p = fig_a2_params()
        wave = readout_pulse(p, 0.02e-9, 200e-9)
        divider = p.bias_current * 25.0 * 5000.0 / 5025.0
        assert divider == pytest.approx(622e-6, rel=2e-3)
        assert -wave.samples.min() / p.amplifier_gain == pytest.approx(divider, rel=1e-3)

    def test_decays_to_zero(self):
        p = fig_a2_params()
        wave = readout_pulse(p, 0.02e-9, 2e-6)
        assert abs(wave.samples[-1]) / p.amplifier_gain < 1e-12

    def test_amplified_magnitude_near_observed_drop(self):
        # 56 dB on ~622 uV lands near the ~300 mV scope drop (factor 2)
        pulse = readout_pulse(fig_a2_params(), duration=200e-9)
        peak = abs(pulse.samples.min())
        assert peak == pytest.approx(622e-6 * 10 ** (56 / 20), rel=1e-2)
        assert 0.15 < peak < 0.6

    def test_under_resolved_grid_rejected(self):
        p = fig_a2_params()
        with pytest.raises(PrecisionError) as err:
            readout_pulse(p, 0.05e-9, 100e-9)
        assert f"{p.fall_tau / 4:.3e}" in str(err.value)

    def test_default_grid_accepted(self):
        readout_pulse(fig_a2_params(), DEFAULT_SAMPLE_PERIOD, 10e-9)

    def test_csv_round_trip(self, tmp_path):
        wave = readout_pulse(fig_a2_params(), 0.02e-9, 5e-9)
        path = tmp_path / "wave.csv"
        write_csv(path, *waveform_table(wave))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "time_s,value"
        t0, v0 = rows[1].split(",")
        assert float(v0) == wave.samples[0]
        assert len(rows) - 1 == len(wave)


def analytic_bandpass_magnitude(f, spec: FilterSpec):
    """Reference Butterworth band-pass response via the low-pass transform."""
    f = np.asarray(f, dtype=float)
    n = spec.order // 2
    w = (f**2 - spec.passband_low * spec.passband_high) / (
        f * (spec.passband_high - spec.passband_low)
    )
    return 1.0 / np.sqrt(1.0 + w ** (2 * n))


class TestBandpassDesign:
    SPEC = FilterSpec(4, 15e6, 580e6)
    SP = DEFAULT_SAMPLE_PERIOD

    def test_matches_analytic_magnitude(self):
        cascade = design_bandpass(self.SPEC, self.SP)
        hi = min(2 * self.SPEC.passband_high, 0.45 / self.SP)
        f = np.geomspace(self.SPEC.passband_low / 2, hi, 500)
        measured = cascade_magnitude_db(cascade, f)
        expected = 20 * np.log10(analytic_bandpass_magnitude(f, self.SPEC))
        assert np.max(np.abs(measured - expected)) < 0.2

    def test_midband_unity(self):
        cascade = design_bandpass(self.SPEC, self.SP)
        f0 = math.sqrt(15e6 * 580e6)
        assert abs(cascade_magnitude_db(cascade, [f0])[0]) < 0.1

    def test_band_edges_3db(self):
        cascade = design_bandpass(self.SPEC, self.SP)
        edges = cascade_magnitude_db(cascade, [15e6, 580e6])
        assert np.allclose(edges, -3.0103, atol=0.3)

    def test_dc_blocked(self):
        cascade = design_bandpass(self.SPEC, self.SP)
        with np.errstate(divide="ignore"):
            assert cascade_magnitude_db(cascade, [1.0])[0] <= -60.0

    def test_poles_stable(self):
        cascade = design_bandpass(self.SPEC, self.SP)
        assert np.all(np.abs(cascade_poles(cascade)) < 1.0)

    def test_band_edge_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            design_bandpass(FilterSpec(4, 15e6, 25e9), self.SP)

    @pytest.mark.parametrize("order", [1, 3, 0, -2])
    def test_odd_or_small_order_rejected(self, order):
        with pytest.raises(ConfigError):
            FilterSpec(order, 15e6, 580e6)

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError):
            FilterSpec(4, 580e6, 15e6)


def scipy_sos(spec, sample_period):
    return signal.butter(
        spec.order // 2,
        [spec.passband_low, spec.passband_high],
        btype="bandpass",
        output="sos",
        fs=1.0 / sample_period,
    )


SHIPPED_SPECS = [
    FilterSpec(order, band.passband_low, band.passband_high)
    for band in (presets.NARROW_BAND, presets.WIDE_BAND)
    for order in (2, 4, 6, 8)
]


@st.composite
def valid_specs(draw):
    """An even order up to 8 and a band strictly inside (0, Nyquist), on
    the default grid or a coarser one."""
    sample_period = draw(st.sampled_from([DEFAULT_SAMPLE_PERIOD, 1e-9, 1e-6]))
    nyquist = 0.5 / sample_period
    low = nyquist * 10 ** draw(st.floats(-8.0, -0.05))
    high = low + (0.99 * nyquist - low) * 10 ** draw(st.floats(-4.0, 0.0))
    return FilterSpec(draw(st.sampled_from([2, 4, 6, 8])), low, high), sample_period


class TestScipyOracle:
    """The design and the filter loop are SciPy's operations in SciPy's
    order, so they must match it exactly, not to a tolerance. Orders 2 and
    6 on the wide band have real poles and exercise the rest of the
    nearest-pairing rule."""

    @pytest.mark.parametrize("spec", SHIPPED_SPECS, ids=str)
    def test_sections_equal_butter(self, spec):
        sos = design_bandpass(spec, DEFAULT_SAMPLE_PERIOD).sos
        assert np.array_equal(sos, scipy_sos(spec, DEFAULT_SAMPLE_PERIOD))

    @settings(max_examples=200, deadline=None)
    @given(valid_specs())
    def test_sections_equal_butter_on_valid_specs(self, drawn):
        spec, sample_period = drawn
        assert np.array_equal(design_bandpass(spec, sample_period).sos, scipy_sos(spec, sample_period))

    @pytest.mark.parametrize("band", [presets.NARROW_BAND, presets.WIDE_BAND], ids=["narrow", "wide"])
    def test_readout_pulse_equals_sosfilt(self, band):
        raw = readout_pulse(fig_a2_params(25.2e-6), DEFAULT_SAMPLE_PERIOD, 2e-6)
        cascade = design_bandpass(band, DEFAULT_SAMPLE_PERIOD)
        out = apply_filter(cascade, raw).samples
        expected = signal.sosfilt(cascade.sos, raw.samples)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    @settings(max_examples=50, deadline=None)
    @given(valid_specs(), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300))
    def test_filter_equals_sosfilt(self, drawn, samples):
        spec, sample_period = drawn
        cascade = design_bandpass(spec, sample_period)
        out = apply_filter(cascade, Waveform(samples, sample_period)).samples
        expected = signal.sosfilt(cascade.sos, samples)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


class TestApplyFilter:
    def cascade(self):
        return design_bandpass(FilterSpec(4, 15e6, 580e6), DEFAULT_SAMPLE_PERIOD)

    def test_zero_in_zero_out(self):
        wave = Waveform(np.zeros(4096), DEFAULT_SAMPLE_PERIOD)
        out = apply_filter(self.cascade(), wave)
        assert np.all(out.samples == 0.0)
        assert len(out) == len(wave)

    def test_impulse_response_decays(self):
        impulse = np.zeros(400_000)
        impulse[0] = 1.0
        out = apply_filter(self.cascade(), Waveform(impulse, DEFAULT_SAMPLE_PERIOD))
        energy = np.cumsum(out.samples**2)
        assert np.isfinite(energy[-1])
        assert energy[-1] - energy[len(energy) // 2] < 1e-9 * energy[-1]

    def test_sample_period_mismatch_rejected(self):
        wave = Waveform(np.zeros(128), 0.05e-9)
        with pytest.raises(ConfigError):
            apply_filter(self.cascade(), wave)

    def test_overshoot_only_with_filter(self):
        p = fig_a2_params()
        plain = readout_pulse(p, duration=2e-6)
        shaped = readout_pulse(p, duration=2e-6, cascade=self.cascade())
        assert plain.samples.max() <= 0.0  # never crosses zero
        trough = int(np.argmin(shaped.samples))
        assert shaped.samples[trough:].max() > 0.0  # sign-reversing overshoot


class TestKernels:
    def test_gaussian_peak_at_center(self):
        k = gaussian_kernel(0.4e-6, center=180e-9, width=40e-9)
        assert k.value(180e-9) == pytest.approx(0.4e-6, rel=1e-12)
        assert int(np.argmax(k.samples)) == 180

    def test_zero_amplitude_is_identically_zero(self):
        k = gaussian_kernel(0.0)
        assert np.all(k.samples == 0.0)
        assert k.peak == 0.0

    def test_vanishes_outside_support(self):
        k = gaussian_kernel(1e-6)
        assert k.value(-1e-9) == 0.0
        assert k.value(k.duration + 1e-9) == 0.0

    def test_interpolates_between_samples(self):
        k = gaussian_kernel(1e-6, center=100e-9, width=30e-9, sample_period=1e-9)
        mid = k.value(100.5e-9)
        assert k.samples[100] >= mid >= k.samples[101]

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_kernel(-1e-6)
        with pytest.raises(ConfigError):
            gaussian_kernel(1e-6, width=-1e-9)

    def test_duration_capped_at_2us(self):
        k = gaussian_kernel(1e-6, center=1.9e-6, width=100e-9)
        assert k.duration <= 2e-6 + 1e-15

    def narrow_pulse(self):
        cascade = design_bandpass(FilterSpec(4, 15e6, 580e6), DEFAULT_SAMPLE_PERIOD)
        return readout_pulse(fig_a2_params(), duration=2e-6, cascade=cascade)

    def test_overshoot_peak_pinned_to_amplitude(self):
        k = overshoot_kernel(self.narrow_pulse(), peak_amplitude=0.4e-6)
        assert k.peak == pytest.approx(0.4e-6, rel=1e-12)

    def test_time_offset_shifts_peak(self):
        base = overshoot_kernel(self.narrow_pulse(), peak_amplitude=0.4e-6)
        for offset in (50e-9, -5e-9):
            shifted = overshoot_kernel(
                self.narrow_pulse(), peak_amplitude=0.4e-6, time_offset=offset
            )
            dt = (np.argmax(shifted.samples) - np.argmax(base.samples)) * base.sample_period
            assert dt == pytest.approx(offset, abs=2 * base.sample_period)

    def test_time_offset_before_the_click_refused(self):
        # the residual starts about 9 ns after the click, so -50 ns would
        # put its first sample before it
        with pytest.raises(ConfigError, match="time_offset"):
            overshoot_kernel(self.narrow_pulse(), peak_amplitude=0.4e-6, time_offset=-50e-9)

    def test_wide_band_residual_under_one_percent(self):
        # the improved low-frequency response all but removes the overshoot
        sp = DEFAULT_SAMPLE_PERIOD
        p = fig_a2_params()
        narrow = readout_pulse(p, sp, 2e-6, cascade=design_bandpass(FilterSpec(4, 15e6, 580e6), sp))
        wide = readout_pulse(p, sp, 2e-6, cascade=design_bandpass(FilterSpec(4, 1e3, 1000e6), sp))
        k_narrow = overshoot_kernel(narrow, amps_per_volt=1.0)
        k_wide = overshoot_kernel(wide, amps_per_volt=1.0)
        assert k_wide.peak < 0.01 * k_narrow.peak

    def test_no_overshoot_gives_zero_kernel(self):
        monotone = Waveform(np.linspace(-1.0, -0.1, 1000), 1e-9)
        k = overshoot_kernel(monotone, peak_amplitude=1e-6)
        assert np.all(k.samples == 0.0)

    def test_exactly_one_scale_argument(self):
        pulse = self.narrow_pulse()
        with pytest.raises(ConfigError):
            overshoot_kernel(pulse)
        with pytest.raises(ConfigError):
            overshoot_kernel(pulse, peak_amplitude=1e-6, amps_per_volt=1.0)
