"""The scalar click engine as it stood before the quiescent fast-forward.

`_run_engine` and `_BlockUniforms` are kept verbatim as a test oracle:
dark-only streams of the current engine must equal this one's byte for
byte, and stimulus runs must agree with it statistically.
"""

from __future__ import annotations

import math

import numpy as np

from snspdsim.errors import SimulationError
from snspdsim.simulation import PS_PER_SECOND, DetectorModel, StimulusConfig, StimulusTrain


class _BlockUniforms:
    """Draws uniforms from a Generator in blocks; sequential and deterministic."""

    __slots__ = ("_rng", "_block", "_i", "_n")

    def __init__(self, rng: np.random.Generator, block_size: int = 1 << 14):
        self._rng = rng
        self._n = block_size
        self._block = rng.random(block_size).tolist()
        self._i = 0

    def next(self) -> float:
        i = self._i
        if i == self._n:
            self._block = self._rng.random(self._n).tolist()
            i = 0
        self._i = i + 1
        return self._block[i]



def _run_engine(
    model: DetectorModel,
    stimulus: StimulusConfig,
    train: StimulusTrain,
    duration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    circ = model.circuit
    rates = model.rates
    i_b = circ.bias_current
    i_c = circ.critical_current
    i_ss = circ.resistive_branch_current
    i_end = circ.hotspot_end_current
    t_hs = circ.hotspot_duration
    tau_fall = circ.fall_tau
    tau_rec = circ.recovery_tau
    r_ref = rates.dark_rate_ref
    i_ref = rates.reference_bias
    g_dark = rates.dark_rate_slope
    eta_max = rates.efficiency_max
    g_eta = rates.efficiency_slope
    mu = stimulus.mean_photons

    kernel = model.kernel
    if kernel is not None and kernel.peak == 0.0 and not np.any(kernel.samples):
        kernel = None  # an identically zero kernel has no effect
    if kernel is not None:
        ksamp = kernel.samples.tolist()
        kmaxrem = kernel.max_remaining().tolist()
        ksp = kernel.sample_period
        klast = len(ksamp) - 1
        kdur = klast * ksp
    else:
        ksamp = kmaxrem = None
        ksp = kdur = 0.0
        klast = 0

    can_latch = model.can_latch
    pulses_ps = train.pulse_times_ps
    pulse_s = (pulses_ps * 1e-12).tolist()
    pulses_ps = pulses_ps.tolist()
    n_pulses = len(pulse_s)

    uniforms = _BlockUniforms(rng)
    exp = math.exp
    log = math.log

    out_ps: list[int] = []
    active: list[float] = []      # click times with a live kernel
    t_last = -1.0                 # most recent click, <0 means none yet
    t = 0.0
    pulse_idx = 0
    latched = False

    def bias_at(when: float) -> float:
        if t_last < 0:
            i = i_b
        else:
            s = when - t_last
            if s <= t_hs:
                i = i_ss + (i_b - i_ss) * exp(-s / tau_fall)
            else:
                i = i_b - (i_b - i_end) * exp(-(s - t_hs) / tau_rec)
        for tc in active:
            d = when - tc
            if 0.0 <= d < kdur:
                x = d / ksp
                j = int(x)
                f = x - j
                i += ksamp[j] * (1.0 - f) + ksamp[j + 1] * f
        return i

    def register_click(when: float, when_ps: int) -> None:
        nonlocal t_last, latched
        out_ps.append(when_ps)
        t_last = when
        if kernel is not None:
            active.append(when)
            if can_latch:
                # scan the kernel horizon for the first crossing of I_c
                for j in range(klast + 1):
                    if bias_at(when + j * ksp) >= i_c:
                        latched = True
                        return

    duration_ps = round(duration * PS_PER_SECOND)
    next_uniform = uniforms.next

    while not latched:
        # adaptive thinning envelope: recovery never exceeds I_b, and each
        # active kernel contributes at most its remaining maximum
        i_env = i_b
        if active:
            if t - active[0] >= kdur:
                active = [tc for tc in active if t - tc < kdur]
            for tc in active:
                d = t - tc
                if d < kdur:
                    i_env += kmaxrem[int(d / ksp)]
        envelope = r_ref * exp(g_dark * (i_env - i_ref))
        gap = -log(1.0 - next_uniform()) / envelope
        if gap <= 0.0:
            continue
        proposal = t + gap

        if pulse_idx < n_pulses and pulse_s[pulse_idx] <= proposal:
            t = pulse_s[pulse_idx]
            t_ps = pulses_ps[pulse_idx]
            pulse_idx += 1
            if active and t - active[0] >= kdur:
                active = [tc for tc in active if t - tc < kdur]
            eta = eta_max * exp(g_eta * (bias_at(t) - i_ref))
            if eta > eta_max:
                eta = eta_max
            p_click = 1.0 - exp(-mu * eta) if mu > 0.0 else 0.0
            if next_uniform() < p_click and (not out_ps or t_ps > out_ps[-1]):
                register_click(t, t_ps)
            continue

        if proposal >= duration:
            break
        t = proposal
        # inline bias_at: this branch dominates the run time
        if t_last < 0:
            i_now = i_b
        else:
            s = t - t_last
            if s <= t_hs:
                i_now = i_ss + (i_b - i_ss) * exp(-s / tau_fall)
            else:
                i_now = i_b - (i_b - i_end) * exp(-(s - t_hs) / tau_rec)
        if active:
            if t - active[0] >= kdur:
                active = [tc for tc in active if t - tc < kdur]
            for tc in active:
                d = t - tc
                if d < kdur:
                    x = d / ksp
                    j = int(x)
                    f = x - j
                    i_now += ksamp[j] * (1.0 - f) + ksamp[j + 1] * f
        rate = r_ref * exp(g_dark * (i_now - i_ref))
        if rate > envelope * (1.0 + 1e-9):
            raise SimulationError(
                f"thinning envelope violated at t={t:.6e}: rate {rate:.3e} "
                f"> envelope {envelope:.3e}"
            )
        if next_uniform() * envelope <= rate:
            t_ps = round(t * PS_PER_SECOND)
            # sub-ps coincidences cannot be resolved; drop them
            if (not out_ps or t_ps > out_ps[-1]) and t_ps <= duration_ps:
                register_click(t, t_ps)

    return np.asarray(out_ps, dtype=np.int64)
