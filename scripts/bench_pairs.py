#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to one JSON file.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR BENCH.json

PARENT_DIR and CHANGE_DIR are the roots of two checkouts. The script first
times `import snspdsim` in 5 fresh processes per side, alternating sides,
and records each time and the median. For each workload of BENCHMARK.json,
each of 10 pairs then runs `perfbench/run.py --seed i+1` once in each
checkout for the benchmark's `run_seconds`, the parent first in even pairs
and the change first in odd ones, so that a drift of the host's speed does
not favour one side. The file records every run's end-to-end metrics; per
metric, the median and quartiles of each side, the change-over-parent ratio
of the medians and the pairs the change won; and the number of failed runs.
It then runs `scripts/reproduce_all.py --seed 3` twice in each checkout,
alternating sides, and records the wall time of each preset and of the
battery. It counts the engine's deterministic work once in each checkout:
clicks, uniforms and segment-end crossings, and both per click, over the
seed-3 runs of fig4, fig8, fig9 and fig10 and over dark runs at 23.0 and
25.2 uA (`engine_work`). Last, it runs the Tier-1 suite once in each
checkout, the parent first, and records its wall time and summary line.
`nproc`, the Python and NumPy versions and both commits are recorded too.

Times come from `perfbench/run.py`, which scales host time by its reference
loop (`perfbench/clock.py`); preset, import and Tier-1 times are host seconds.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
BATTERY_ROUNDS = 2
IMPORT_ROUNDS = 5
PRESET_SEED = 3
RUN_TIMEOUT_S = 1800
# the engine work counted on each side (engine_work): presets at
# PRESET_SEED, and dark runs of WORK_DARK_COUNTS primary counts per seed
WORK_FIGURES = ("fig4", "fig8", "fig9", "fig10")
WORK_DARK_UA = (23.0, 25.2)
WORK_DARK_COUNTS = 10_000
WORK_DARK_SEEDS = (11, 12, 13)
# one line of reproduce_all.py per preset: "fig4   ok     (  1.6 s)"
PRESET_LINE = re.compile(r"^(\S+)\s+(ok|FAILED)\s+\(\s*([\d.]+) s\)$")


def parse_result(stdout: str) -> dict:
    """The end-to-end metrics of one perfbench run, from the JSON object on
    the last line of its output, plus whether every check passed."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {"correct": False}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"correct": bool(result.get("correct")), **metrics}


def parse_presets(stdout: str) -> dict:
    """Seconds per preset from the output of reproduce_all.py."""
    times = {}
    for line in stdout.splitlines():
        match = PRESET_LINE.match(line)
        if match:
            times[match.group(1)] = float(match.group(3))
    return times


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(runs, end_to_end) -> dict:
    """Per metric of `end_to_end` (BENCHMARK.json's list of {name, better}):
    each side's median and quartiles, the ratio of the change's median to
    the parent's, and how many of the pairs in `runs` the change won.
    A run that failed is left out of its metric, with its pair."""
    good = [r for r in runs if r["parent"].get("correct") and r["change"].get("correct")]
    out = {"pairs": len(runs), "failed_runs": sum(not r[s].get("correct") for r in runs for s in SIDES)}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(r["parent"][name], r["change"][name]) for r in good
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        out[name] = {
            "better": metric["better"],
            "parent_median": mid_p,
            "change_median": mid_c,
            "parent_quartiles": _quartiles(parent),
            "change_quartiles": _quartiles(change),
            "ratio": mid_c / mid_p if mid_p else None,
            "pairs_won": sum((c > p) if higher else (c < p) for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def engine_work(figures=WORK_FIGURES, dark_ua=WORK_DARK_UA, seeds=WORK_DARK_SEEDS,
                counts=WORK_DARK_COUNTS) -> dict:
    """Clicks, uniforms and crossings (`metadata["engine"]`) summed over the
    `simulate` calls of each preset of `figures` at PRESET_SEED and of the
    dark runs of `counts` primary counts at each bias of `dark_ua` (uA) and
    each seed, with uniforms and crossings per click. It runs the snspdsim
    that is first on sys.path."""
    from snspdsim import presets
    from snspdsim.simulation import StimulusConfig, simulate

    totals = {}

    def count(name, stream):
        entry = totals.setdefault(name, {"clicks": 0, "uniforms": 0, "crossings": 0})
        entry["clicks"] += int(stream.detector_events.size)
        entry["uniforms"] += stream.metadata["engine"]["uniforms"]
        entry["crossings"] += stream.metadata["engine"]["crossings"]
        return stream

    for name in figures:
        presets.simulate = lambda *args, _name=name, **kwargs: count(_name, simulate(*args, **kwargs))
        try:
            with tempfile.TemporaryDirectory() as out_dir:
                presets.FIGURES[name](out_dir, seed=PRESET_SEED)
        finally:
            presets.simulate = simulate
    for bias_ua in dark_ua:
        model = presets.profile_model(bias_ua * 1e-6)
        duration = counts / float(model.rates.dark_rate(bias_ua * 1e-6))
        for seed in seeds:
            count(f"dark-{bias_ua}uA", simulate(model, StimulusConfig.none(), duration, seed))
    for entry in totals.values():
        for key in ("uniforms", "crossings"):
            entry[f"{key}_per_click"] = entry[key] / entry["clicks"] if entry["clicks"] else None
    return totals


def _engine_work(root: Path) -> dict:
    """engine_work() in a fresh process on the snspdsim of `root`."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import bench_pairs; print(json.dumps(bench_pairs.engine_work()))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(done.stdout)


def _commit(root: Path) -> str:
    def git(*args):
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else ""

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    return parse_result(done.stdout) if done.returncode == 0 else {"correct": False}


def _battery(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "scripts/reproduce_all.py", out_dir, "--seed", str(PRESET_SEED)],
            cwd=root, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
    return {"passed": done.returncode == 0, "battery_s": wall, "presets_s": parse_presets(done.stdout)}


def _import_s(root: Path) -> float:
    """Seconds a fresh interpreter takes to import snspdsim from `root`."""
    code = "import time; t0 = time.perf_counter(); import snspdsim; print(time.perf_counter() - t0)"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=RUN_TIMEOUT_S, check=True)
    return float(done.stdout)


def _tier1(root: Path) -> dict:
    """One run of the Tier-1 suite (ROADMAP.md) in `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=root, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"passed": done.returncode == 0, "wall_s": wall, "summary": lines[-1] if lines else ""}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("out", help="output JSON file")
    args = parser.parse_args()
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: {root}: no perfbench/run.py; expected the root of a checkout", file=sys.stderr)
            return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commits": {side: _commit(root) for side, root in roots.items()},
        "seconds": seconds,
        "workloads": {},
    }
    # first, so that a checkout that cannot import fails the script at once
    imports = {side: [] for side in SIDES}
    for i in range(IMPORT_ROUNDS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            imports[side].append(_import_s(roots[side]))
    result["import_s"] = {side: {"median": statistics.median(runs), "runs": runs}
                          for side, runs in imports.items()}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": i + 1, "first": order[0]}
            for side in order:
                run[side] = _bench(roots[side], workload, i + 1, seconds)
            runs.append(run)
            print(f"{workload} pair {i}: " + "  ".join(
                f"{side} {run[side].get('items_per_s', float('nan')):.4g}/s" for side in SIDES))
        result["workloads"][workload] = {"summary": summarize(runs, spec["end_to_end"]), "runs": runs}

    batteries = {side: [] for side in SIDES}
    for i in range(BATTERY_ROUNDS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            batteries[side].append(_battery(roots[side]))
    result["battery"] = {"seed": PRESET_SEED, **{
        side: {
            "passed": all(b["passed"] for b in runs),
            "battery_s": statistics.median(b["battery_s"] for b in runs),
            "presets_s": {name: statistics.median(b["presets_s"].get(name, 0.0) for b in runs)
                          for name in runs[0]["presets_s"]},
            "rounds": runs,
        } for side, runs in batteries.items() if runs
    }}

    result["engine_work"] = {side: _engine_work(roots[side]) for side in SIDES}
    result["tier1"] = {side: _tier1(roots[side]) for side in SIDES}

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["summary"].items():
            if isinstance(m, dict):
                print(f"{workload} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                      f"({m['pairs_won']}/{m['pairs']} pairs won)")
    for name, entry in result["engine_work"]["change"].items():
        before = result["engine_work"]["parent"].get(name, {})
        print(f"{name}: uniforms per click {before.get('uniforms_per_click')} -> {entry['uniforms_per_click']}, "
              f"crossings per click {before.get('crossings_per_click')} -> {entry['crossings_per_click']}")
    for side in SIDES:
        print(f"{side}: import {result['import_s'][side]['median']:.3f} s, "
              f"Tier-1 {result['tier1'][side]['wall_s']:.1f} s ({result['tier1'][side]['summary']})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
