"""The engine's runs judged against the model's own law (`law_oracle`)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, reject, settings
from hypothesis import strategies as st

from law_oracle import assert_follows_law
from test_simulation import two_us_kernel
from snspdsim import presets
from snspdsim.circuit import gaussian_kernel
from snspdsim.errors import ConfigError
from snspdsim.simulation import PS_PER_SECOND, StimulusConfig, _run_engine, make_stimulus, simulate, whole_ps


def judged_run(model, stimulus, duration, seed):
    stream = simulate(model, stimulus, duration, seed)
    train = make_stimulus(stimulus, stream.duration_ps)
    assert_follows_law(model, stimulus.mean_photons, stream.detector_events, train)
    return stream


def primary_duration(model, counts):  # the run length of `counts` primary dark counts
    return counts / float(model.rates.dark_rate(model.circuit.bias_current))


# the 2 us kernel keeps an afterpulse's parent live, lifting its envelope
KERNEL_CASES = {
    "kernel-23.0uA": lambda: presets.profile_model(23.0e-6),
    "kernel-25.0uA": lambda: presets.profile_model(25.0e-6),
    "kernel-25.2uA": lambda: presets.profile_model(25.2e-6),
    "kernel-2us-25.2uA": lambda: two_us_kernel(25.2e-6),
}


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_dark_streams_agree(case, seed):
    model = KERNEL_CASES[case]()
    judged_run(model, StimulusConfig.none(), primary_duration(model, 8000), seed)


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_null_kernel_dark_streams_agree(seed):
    # no kernel: a dead time, then a flat rate
    model = presets.profile_model(25.0e-6, kernel_amplitude=0.0)
    judged_run(model, StimulusConfig.none(), primary_duration(model, 8000), seed)


def test_lone_dark_stream_agrees():
    # at 23.0 uA a click's window holds a proposal with probability 0.03,
    # so nearly every click is one the first layer accepts in bulk
    model = presets.profile_model(23.0e-6)
    stream = judged_run(model, StimulusConfig.none(), primary_duration(model, 30_000), 61)
    assert stream.metadata["engine"]["lone"] > 0.9 * stream.detector_events.size


@pytest.mark.parametrize("separation_ns", [80, 110, 180, 1000])
def test_double_pulse_counts_agree(separation_ns):
    # fig10's bias, 20 photons: ~14% of first pulses click, so second pulses fill
    # their stratum; the efficiency climbs steeply at 110 ns
    stimulus = StimulusConfig.double_pulse(separation_ns * 1e-9, 20.0)
    judged_run(presets.profile_model(24.9e-6), stimulus, 0.1, 31)


def test_periodic_laser_agrees():
    judged_run(presets.profile_model(25.0e-6), StimulusConfig.periodic(0.5e6, 10.0), 0.1, 41)


def test_fast_train_agrees():
    # at 50 MHz a window holds 38 or 39 pulses, none of which may click in
    # about 4 windows of 5 at mu = 0.2: those candidates are lone, and the
    # resolver evaluates the pulses that may click in the others
    stream = judged_run(presets.profile_model(25.0e-6), StimulusConfig.periodic(5e7, 0.2), 0.005, 71)
    engine = stream.metadata["engine"]
    assert 0 < engine["lone"] < stream.detector_events.size and engine["pulses_evaluated"] > 0


def test_dense_train_agrees():
    # at 1 GHz a pulse meets every age since the last click
    judged_run(presets.profile_model(25.0e-6), StimulusConfig.periodic(1e9, 1.0), 50e-6, 81)


def test_dark_clicks_end_quiet_stretches():
    # dark clicks every ~10 us end most quiet stretches of ~40 pulses at 1 MHz,
    # after which the pulses up to the drawn one must be evaluated afresh
    model = presets.profile_model(25.0e-6, kernel_amplitude=0.0)
    model = dataclasses.replace(model, rates=dataclasses.replace(model.rates, dark_rate_ref=1e5))
    judged_run(model, StimulusConfig.periodic(1e6, 1.0), 0.1, 51)


@settings(max_examples=20, derandomize=True, deadline=None, phases=[Phase.generate])  # a run per example: no shrinking
@given(
    bias=st.floats(23.0e-6, 25.2e-6), amplitude=st.floats(0.0, 4e-6),
    center=st.floats(20e-9, 600e-9), width=st.floats(3e-9, 30e-9),
    stimulus=st.one_of(
        st.just(StimulusConfig.none()),
        st.builds(StimulusConfig.periodic, st.floats(1e5, 5e6), st.floats(0.5, 30.0)),
        st.builds(StimulusConfig.double_pulse, st.floats(20e-9, 1.5e-6), st.floats(0.5, 30.0))),
    offset_s=st.floats(0.0, 1e5), seed=st.integers(0, 2**32),
)
def test_model_space_follows_the_law(bias, amplitude, center, width, stimulus, offset_s, seed):
    model = dataclasses.replace(presets.profile_model(bias), kernel=gaussian_kernel(amplitude, center, width))
    try:
        simulate(model, stimulus, 0.0, seed)
    except ConfigError:
        reject()  # supercritical: refused, not tested
    # 2000 primary dark counts or 20,000 pulses, whichever is shorter
    pulse_rate = stimulus.rate or 2 / stimulus.window * (stimulus.separation > 0)
    duration = min(primary_duration(model, 2000), 20_000 / pulse_rate if pulse_rate else np.inf)
    duration_ps, offset = whole_ps(duration * PS_PER_SECOND, "duration"), whole_ps(offset_s * PS_PER_SECOND, "offset")
    train = dataclasses.replace(make_stimulus(stimulus, duration_ps), origin_ps=offset)
    clicks, _ = _run_engine(model, stimulus, train, duration_ps + offset, np.random.default_rng(seed), start_ps=offset)
    assert_follows_law(model, stimulus.mean_photons, clicks, train, start_ps=offset)
