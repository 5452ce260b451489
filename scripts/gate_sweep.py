#!/usr/bin/env python3
"""Pass rate of every preset check over master seeds 0..N-1.

Runs each figure of `presets.FIGURES` once per master seed, one process per
available core, and writes a JSON file with the passes and runs of every
`figure/check`, the seeds that failed it, the seeds swept, the cores used,
the wall time, and the Python and NumPy versions:

    python scripts/gate_sweep.py GATES.json --seeds 20

A correct model passes a 3-sigma check at about 99%. A check far below
that fails because of the model or of the check, not because of the seed.
"""

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time

import numpy as np

from snspdsim import presets
from snspdsim.config import parse_count
from snspdsim.errors import ConfigError


def _run(task):
    figure, seed = task
    with tempfile.TemporaryDirectory() as out_dir:
        report = presets.FIGURES[figure](out_dir, seed=seed)
    return [(f"{figure}/{c.name}", bool(c.passed)) for c in report.checks]


def sweep(seeds, figures=tuple(presets.FIGURES)) -> dict:
    """Run each of `figures` at each master seed; passes and runs per check."""
    tasks = [(figure, seed) for seed in seeds for figure in figures]
    cores = len(os.sched_getaffinity(0))
    with multiprocessing.Pool(cores) as pool:
        results = pool.map(_run, tasks, chunksize=1)
    checks = {}
    for (_, seed), result in zip(tasks, results):
        for name, passed in result:
            entry = checks.setdefault(name, {"passes": 0, "runs": 0, "failed_seeds": []})
            entry["runs"] += 1
            entry["passes"] += passed
            if not passed:
                entry["failed_seeds"].append(seed)
    return {
        "seeds": list(seeds),
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "checks": checks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="output JSON file")
    parser.add_argument("--seeds", default="20", help="number of master seeds, from 0")
    args = parser.parse_args()
    try:
        n = parse_count(args.seeds, "--seeds")
        if n < 1:
            raise ConfigError(f"--seeds: expected at least 1, got {n}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    result = sweep(range(n))
    result["wall_s"] = round(time.perf_counter() - t0, 1)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, entry in result["checks"].items():
        flag = "" if entry["passes"] >= 0.95 * entry["runs"] else "  < 95%"
        print(f"{entry['passes']:3d}/{entry['runs']:<3d} {name}{flag}")
    print(f"wrote {args.out} ({result['wall_s']:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
