"""The engine's clicks judged against the model's own law: the array law,
`RateModel.dark_rate` and `.efficiency` of `effective_bias`, of which the
engine's scalar `bias_at` is a copy. Every click starts a kernel, the
recovery runs from the last one, and a click on a pulse's ps is a laser one.

Dark clicks by time rescaling (Brown, Barbieri, Ventura, Kass & Frank 2002):
the dark rate integrated between dark clicks gives iid Exp(1) increments.
From t_q, the later of `settle_time` and kend (the end of the kernel samples
that move a rate by 1e-12 relative), the rate is rate_b; below it, a 0.1 ns
trapezoid, from one table without an older kernel live and a 2-D grid with.
Pulses by calibration (Haslinger, Pipa & Brown 2010): in each stratum of age
since the last click, clicks against the sum of 1 - exp(-mu * efficiency).

Family: 357 null hypotheses at TEST_ALPHA = 0.012 / 357 each, so a correct
engine fails one or more with probability at most 1.2% (Bonferroni): 16 dark
runs of 3 increment tests (KS against Exp(1), an exact Gamma test of their
sum and a lag-1 serial correlation, which KS misses); 8 laser runs of those
and at most 8 asymptotic z-tests (7 strata and the total, each with a
variance of MIN_VARIANCE or more); the sweep's at most 20 runs of at most
11; the latched runs' KS test.
"""

import math

import numpy as np
from scipy import stats

from snspdsim.simulation import PS_PER_SECOND, effective_bias

FAMILY = 16 * 3 + 8 * 11 + 20 * 11 + 1
TEST_ALPHA = 0.012 / FAMILY
STEP = 0.1e-9                            # s, the quadrature grid
STRATA_NS = (0, 40, 80, 140, 220, 400)   # of age since the last click, then t_q
MIN_VARIANCE = 100.0
ROWS = 256                               # clicks per 2-D block


def quiet_times(model):
    """t_q and kend, in s (kend 0 without a kernel that moves a rate)."""
    kernel, rates = model.kernel, model.rates
    slope = max(rates.dark_rate_slope, rates.efficiency_slope)
    felt = [] if kernel is None else np.flatnonzero(np.abs(kernel.samples) * slope >= 1e-12)
    kend = min(felt[-1] + 1, kernel.samples.size - 1) * kernel.sample_period if len(felt) else 0.0
    return max(model.circuit.settle_time, kend), kend


def _history(x, at, j, kend_ps):
    """`effective_bias` histories, oldest first, of times `at` whose last
    click is x[j]: click times minus `at`, in s; -inf for none, and for an
    older click whose kernel has ended."""
    if not x.size:
        return np.full((1, at.size), -np.inf)
    depth = max(1, int((j + 1 - np.searchsorted(x, at - kend_ps, side="right")).max(initial=0)))
    i = j - np.arange(depth - 1, -1, -1)[:, None]
    ago = at - x[np.maximum(i, 0)]
    return np.where((i >= 0) & ((i == j) | (ago < kend_ps)), -ago / PS_PER_SECOND, -np.inf)


def dark_increments(model, clicks, train, start_ps=0):
    """The compensator increments between consecutive dark clicks, the first
    from `start_ps`, where the detector is quiescent."""
    x, rates = np.asarray(clicks, np.int64), model.rates
    if not x.size:
        return np.empty(0)
    rate_b = float(rates.dark_rate(model.circuit.bias_current))
    t_q, kend = quiet_times(model)
    kend_ps = round(kend * PS_PER_SECOND)
    grid = np.arange(math.ceil(t_q / STEP) + 1) * STEP
    lone = rates.dark_rate(effective_bias(model, grid, [0.0]))
    table = np.append(0.0, np.cumsum((lone[1:] + lone[:-1]) * (STEP / 2)))
    gaps = np.diff(x) / PS_PER_SECOND
    pieces = np.interp(np.minimum(gaps, t_q), grid, table) + rate_b * np.maximum(gaps - t_q, 0.0)
    # a click with an older kernel live: up to the gap's end or the older
    # kernels' end, in blocks of similar length
    busy = np.flatnonzero(np.diff(x[:-1]) < kend_ps) + 1
    ends = np.minimum(gaps[busy], (kend_ps - (x[busy] - x[busy - 1])) / PS_PER_SECOND)
    busy, ends = busy[np.argsort(ends)], np.sort(ends) / STEP
    for lo in range(0, busy.size, ROWS):
        b, at = busy[lo:lo + ROWS], ends[lo:lo + ROWS]
        cols = min(math.ceil(at[-1]) + 2, grid.size)
        hist = _history(x, x[b], b, kend_ps)[:, :, None]
        extra = rates.dark_rate(effective_bias(model, grid[:cols], hist)) - lone[:cols]
        cum = np.cumsum(np.column_stack([np.zeros(b.size), (extra[:, 1:] + extra[:, :-1]) * (STEP / 2)]), axis=1)
        k, r = np.minimum(at.astype(np.int64), cols - 2), np.arange(b.size)
        pieces[b] += cum[r, k] + (at - k) * (cum[r, k + 1] - cum[r, k])
    compensator = np.cumsum(np.append(rate_b * (x[0] - start_ps) / PS_PER_SECOND, pieces))
    n_pulses = train.count(x)
    on_pulse = (n_pulses > 0) & (train.times(np.maximum(n_pulses - 1, 0)) == x)
    return np.diff(compensator[~on_pulse], prepend=0.0)


def calibration(model, mu, clicks, train):
    """(label, observed, expected, variance) of the pulse clicks in each
    stratum of age since the last click, and in total."""
    x, pulses = np.asarray(clicks, np.int64), train.pulse_times_ps
    t_q, kend = quiet_times(model)
    hist = _history(x, pulses, np.searchsorted(x, pulses) - 1, round(kend * PS_PER_SECOND))
    p = -np.expm1(-mu * model.rates.efficiency(effective_bias(model, np.zeros(pulses.size), hist)))
    clicked, age = np.isin(pulses, x), -hist[-1] * 1e9
    edges = [*STRATA_NS, t_q * 1e9]
    strata = [(f"{lo:g}-{hi:g} ns", (age >= lo) & (age < hi)) for lo, hi in zip(edges, edges[1:])]
    strata += [("quiet", age >= t_q * 1e9), ("total", age >= 0)]
    return [(label, int(clicked[s].sum()), p[s].sum(), (p * (1 - p))[s].sum()) for label, s in strata]


def assert_follows_law(model, mu, clicks, train, start_ps=0):
    """Every oracle test of one run passes at TEST_ALPHA."""
    inc, out = dark_increments(model, clicks, train, start_ps), {}
    if inc.size:
        out["increments KS"] = stats.kstest(inc, "expon").pvalue
        out["increment sum"] = 2 * min(stats.gamma.cdf(inc.sum(), inc.size), stats.gamma.sf(inc.sum(), inc.size))
    if inc.size > 2:
        r = np.corrcoef(np.exp(-inc[:-1]), np.exp(-inc[1:]))[0, 1]
        out["increments lag-1"] = 2 * stats.norm.sf(abs(r) * math.sqrt(inc.size - 1))
    for label, observed, expected, variance in calibration(model, mu, clicks, train) if mu > 0 else []:
        if variance >= MIN_VARIANCE:
            z = (observed - expected) / math.sqrt(variance)
            out[f"pulses {label}: {observed} vs {expected:.1f}"] = 2 * stats.norm.sf(abs(z))
    failed = {test: f"{p:.2g}" for test, p in out.items() if not p > TEST_ALPHA}
    assert not failed, f"against the law, at level {TEST_ALPHA:.2g}: {failed}"
