"""The engine against its pre-fast-forward copy in reference_engine.py.

A run that latches on its first click draws one proposal in both, so its
stream must be equal byte for byte. Every other run consumes the random
stream differently -- the engine accepts a quiescent proposal without a
uniform, carries its exponential mass across pulses, thins a live kernel
against segment bounds and steps over quiet pulses with one geometric
draw -- so those realizations are compared statistically: counts within
4 sigma, gap distributions by a two-sample KS test, train lengths by a
chi-squared test.
"""

import math

import numpy as np
import pytest
from scipy import stats

from reference_engine import _run_engine as reference_engine
from snspdsim import presets
from snspdsim.analysis import classify_trains
from snspdsim.simulation import (
    PS_PER_SECOND,
    DetectorModel,
    RateModel,
    StimulusConfig,
    make_stimulus,
    simulate,
    whole_ps,
)


def reference_stream(model, stimulus, duration, seed):
    train = make_stimulus(stimulus, whole_ps(duration * PS_PER_SECOND, "duration"))
    return reference_engine(model, stimulus, train, duration, np.random.default_rng(seed))


def unshunted_latching_model():
    return DetectorModel(
        circuit=presets.profile_circuit(25.2e-6),
        rates=presets.profile_rates(),
        kernel=presets.profile_kernel(),
        shunt_enabled=False,
        latch_policy="permanent-until-reset",
    )


def primary_duration(model, counts):
    """Run length that holds `counts` primary dark counts."""
    return counts / float(model.rates.dark_rate(model.circuit.bias_current))


DARK_CASES = {"unshunted-latching": unshunted_latching_model}


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("case", sorted(DARK_CASES))
def test_dark_streams_byte_identical(case, seed):
    model = DARK_CASES[case]()
    duration = primary_duration(model, 1500)
    got = simulate(model, StimulusConfig.none(), duration, seed).detector_events
    expected = reference_stream(model, StimulusConfig.none(), duration, seed)
    assert got.size > 0
    assert got.tobytes() == expected.tobytes()


# The 9 kernel comparisons below make 18 tests (KS and chi-squared) of a
# true null hypothesis, and the 3 null-kernel ones 3 more (KS); at this
# per-test level a correct engine fails one or more of the 21 with
# probability at most 21 * 0.01/18, 1.2% (Bonferroni).
TEST_ALPHA = 0.01 / 18


def train_length_table(new, ref):
    """2 x k table of train lengths, the longest buckets merged until every
    expected count is at least 5."""
    table = np.array([classify_trains(new).counts_by_length,
                      classify_trains(ref).counts_by_length], dtype=np.float64)
    while table.shape[1] > 2:
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        if expected.min() >= 5:
            break
        table = np.column_stack([table[:, :-2], table[:, -2:].sum(axis=1)])
    return table


KERNEL_BIASES_UA = {"kernel-23.0uA": 23.0, "kernel-25.0uA": 25.0, "kernel-25.2uA": 25.2}


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("case", sorted(KERNEL_BIASES_UA))
def test_kernel_dark_streams_agree(case, seed):
    bias_ua = KERNEL_BIASES_UA[case]
    model = presets.profile_model(bias_ua * 1e-6)
    duration = primary_duration(model, 8000)
    new = simulate(model, StimulusConfig.none(), duration, seed).detector_events
    ref = reference_stream(model, StimulusConfig.none(), duration, seed + 1)
    assert_counts_agree(new.size, ref.size, f"clicks at {bias_ua} uA")
    _, p_gaps = stats.ks_2samp(np.diff(new), np.diff(ref))
    assert p_gaps > TEST_ALPHA, f"waiting times at {bias_ua} uA: KS p = {p_gaps:.2g}"
    table = train_length_table(new, ref)
    p_trains = stats.chi2_contingency(table, correction=False).pvalue
    assert p_trains > TEST_ALPHA, f"train lengths at {bias_ua} uA: {table}, p = {p_trains:.2g}"


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_null_kernel_dark_streams_agree(seed):
    # no kernel: a dead time, then a flat rate; a correct engine leaves no
    # train to compare, so the waiting times carry the test
    model = presets.profile_model(25.0e-6, kernel_amplitude=0.0)
    duration = primary_duration(model, 8000)
    new = simulate(model, StimulusConfig.none(), duration, seed).detector_events
    ref = reference_stream(model, StimulusConfig.none(), duration, seed + 1)
    assert_counts_agree(new.size, ref.size, "null-kernel clicks")
    _, p_gaps = stats.ks_2samp(np.diff(new), np.diff(ref))
    assert p_gaps > TEST_ALPHA, f"null-kernel waiting times: KS p = {p_gaps:.2g}"


def assert_counts_agree(n_new, n_ref, label):
    # independent counts, each with variance at most its mean
    sigma = math.sqrt(n_new + n_ref)
    assert abs(n_new - n_ref) <= 4 * sigma, f"{label}: {n_new} vs reference {n_ref}"


@pytest.mark.parametrize("separation_ns", [80, 180, 1000])
def test_double_pulse_counts_agree(separation_ns):
    # the fig10 operating point with 20 photons per pulse: ~14% of first
    # pulses click, so every count carries thousands of events
    model = presets.profile_model(24.9e-6)
    stimulus = StimulusConfig.double_pulse(separation_ns * 1e-9, 20.0)
    duration = 0.1  # 50k frames
    train = make_stimulus(stimulus, 100_000_000_000)
    first, second = train.pulse_times_ps[0::2], train.pulse_times_ps[1::2]
    new = simulate(model, stimulus, duration, 31).detector_events
    ref = reference_stream(model, stimulus, duration, 32)
    for name, pulses in (("first", first), ("second", second)):
        n_new = int(np.count_nonzero(np.isin(new, pulses)))
        n_ref = int(np.count_nonzero(np.isin(ref, pulses)))
        assert_counts_agree(n_new, n_ref, f"{name} pulse at {separation_ns} ns")
    assert_counts_agree(new.size, ref.size, f"all clicks at {separation_ns} ns")


def test_periodic_laser_agrees():
    model = presets.profile_model(25.0e-6)
    stimulus = StimulusConfig.periodic(0.5e6, 10.0)
    duration = 0.1
    new = simulate(model, stimulus, duration, 41).detector_events
    ref = reference_stream(model, stimulus, duration, 42)
    assert_counts_agree(new.size, ref.size, "total clicks")
    _, p_value = stats.ks_2samp(np.diff(new), np.diff(ref))
    assert p_value > 0.01


def test_dark_clicks_end_quiet_stretches():
    # dark clicks every ~10 us against quiet stretches of ~40 pulses at
    # 1 MHz: most stretches end on a dark click, after which the pulses
    # up to the drawn one must be evaluated afresh
    rates = presets.profile_rates()
    model = DetectorModel(
        circuit=presets.profile_circuit(25.0e-6),
        rates=RateModel(1e5, rates.dark_rate_slope, rates.efficiency_max,
                        rates.efficiency_slope, rates.reference_bias),
    )
    stimulus = StimulusConfig.periodic(1e6, 1.0)
    duration = 0.1
    pulses = make_stimulus(stimulus, 100_000_000_000).pulse_times_ps
    new = simulate(model, stimulus, duration, 51).detector_events
    ref = reference_stream(model, stimulus, duration, 52)
    n_new = int(np.count_nonzero(np.isin(new, pulses)))
    n_ref = int(np.count_nonzero(np.isin(ref, pulses)))
    assert_counts_agree(n_new, n_ref, "pulse clicks")
    assert_counts_agree(new.size - n_new, ref.size - n_ref, "dark clicks")
