#!/usr/bin/env python3
"""Scan the afterpulse probability and the corrected DCR across bias.

A quick way to explore calibrations outside the shipped profile:

    python scripts/afterpulse_bias_scan.py --events 20000 --amplitude 3.7e-6
"""

import argparse
import sys

from snspdsim import presets
from snspdsim.analysis import afterpulse_probability, corrected_dcr
from snspdsim.config import parse_count
from snspdsim.errors import ConfigError
from snspdsim.simulation import StimulusConfig, branching_probability, simulate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=10_000, help="target clicks per point")
    parser.add_argument("--amplitude", type=float, default=presets.KERNEL_AMPLITUDE,
                        help="kernel amplitude in amperes")
    parser.add_argument("--seed", default=presets.DEFAULT_SEED)
    args = parser.parse_args()
    try:
        seed = parse_count(args.seed, "--seed")
        if args.events < 1:
            raise ConfigError(f"--events: expected at least 1, got {args.events}")
        # an amplitude of exactly 0 means no kernel
        models = [presets.profile_model(bias, kernel_amplitude=args.amplitude)
                  for bias in presets.BIAS_SWEEP]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'bias_uA':>8s} {'total_cps':>10s} {'corrected':>10s} {'p_measured':>11s} {'p_model':>9s}")
    for k, (bias, model) in enumerate(zip(presets.BIAS_SWEEP, models)):
        duration = args.events / float(model.rates.dark_rate(bias))
        stream = simulate(model, StimulusConfig.none(), duration, presets.subseed(seed, 77, k))
        total, corrected = corrected_dcr(stream.detector_events, stream.duration_ps)
        p = afterpulse_probability(stream.detector_events)
        p = float("nan") if p is None else p  # undefined on an empty stream
        p_model = branching_probability(model)
        print(f"{bias*1e6:8.1f} {total:10.1f} {corrected:10.1f} {p:11.5f} {p_model:9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
