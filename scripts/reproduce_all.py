#!/usr/bin/env python3
"""Run every figure-reproduction preset and summarize the checks.

Usage: python scripts/reproduce_all.py [OUT_DIR] [--seed N]
"""

import argparse
import sys
import time
from pathlib import Path

from snspdsim import presets
from snspdsim.config import parse_count
from snspdsim.errors import ConfigError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="out/figures")
    parser.add_argument("--seed", default=presets.DEFAULT_SEED)
    args = parser.parse_args()
    try:
        seed = parse_count(args.seed, "--seed")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_root = Path(args.out_dir)
    all_passed = True
    for figure, runner in presets.FIGURES.items():
        t0 = time.perf_counter()
        report = runner(out_root / figure, seed=seed)
        elapsed = time.perf_counter() - t0
        status = "ok" if report.passed else "FAILED"
        print(f"{figure:6s} {status:6s} ({elapsed:5.1f} s)")
        for line in report.lines():
            print("   " + line)
        all_passed &= report.passed
    print("all presets passed" if all_passed else "SOME PRESETS FAILED")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
