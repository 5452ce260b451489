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
One traced run per side (`--trace 1 --seed 1`) then gives each workload's
per-layer metrics (`layers`), which show where a change's saving lands.
It then runs the preset battery at seed 3 in 10 alternating pairs, each
side in a fresh process that times every preset with perfbench's clock,
and summarizes the scaled time of each preset and of the battery like an
end-to-end metric (`battery`). It counts the engine's deterministic work
once in each checkout: clicks, uniforms, envelope steps (`crossings`),
lone clicks (those the first layer accepts in bulk, 0 for an engine
without one) and dark proposals thinned, each per click, and the pulses
the resolver evaluated and skipped, over the seed-3 runs of fig4, fig8,
fig9, fig10 and fig11 (whose wide-band kernel has 80,000 sample
intervals), over dark runs at 23.0 and 25.2 uA and over a dense train, a
1 GHz laser at mu = 1 and 25.0 uA, where every window holds a pulse that
may click (`engine_work`). Last, it runs the Tier-1 suite
once in each checkout, the parent first, and records its wall time and
summary line.
`nproc`, the Python and NumPy versions and both commits are recorded too.

Workload and preset times are host time scaled by perfbench's reference
loop (`perfbench/clock.py`), which cancels most of a shared host's drift;
each preset's host seconds are recorded beside them. Import and Tier-1
times are host seconds.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
IMPORT_ROUNDS = 5
PRESET_SEED = 3
RUN_TIMEOUT_S = 1800
# the engine work counted on each side (engine_work): presets at
# PRESET_SEED, and dark runs of WORK_DARK_COUNTS primary counts per seed
WORK_FIGURES = ("fig4", "fig8", "fig9", "fig10", "fig11")
WORK_DARK_UA = (23.0, 25.2)
WORK_DARK_COUNTS = 10_000
WORK_DARK_SEEDS = (11, 12, 13)
# the dense-train run of engine_work: a WORK_DENSE_HZ laser for WORK_DENSE_S
# at each of WORK_DARK_SEEDS, at mu = 1 and 25.0 uA
WORK_DENSE_HZ = 1e9
WORK_DENSE_S = 100e-6


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
    """Clicks, uniforms, crossings, lone clicks, dark proposals and the pulses
    evaluated and skipped (`metadata["engine"]`) summed over the `simulate` calls of each
    preset of `figures` at PRESET_SEED and of the dark runs of `counts`
    primary counts at each bias of `dark_ua` (uA) and each seed, and of the
    dense train of WORK_DENSE_S s at each seed; uniforms, crossings, lone clicks,
    proposals and pulses evaluated also per click (an engine without the
    proposals counter reports 0). It runs the snspdsim that is first on
    sys.path."""
    from snspdsim import presets
    from snspdsim.simulation import StimulusConfig, simulate

    totals = {}
    summed = ("uniforms", "crossings", "lone", "proposals", "pulses_evaluated", "pulses_skipped")

    def count(name, stream):
        entry = totals.setdefault(name, dict.fromkeys(("clicks", *summed), 0))
        entry["clicks"] += int(stream.detector_events.size)
        for key in summed:
            entry[key] += stream.metadata["engine"].get(key, 0)
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
    dense = StimulusConfig.periodic(WORK_DENSE_HZ, 1.0)
    for seed in seeds:
        count("dense-1GHz", simulate(presets.profile_model(25.0e-6), dense, WORK_DENSE_S, seed))
    for entry in totals.values():
        for key in ("uniforms", "crossings", "lone", "proposals", "pulses_evaluated"):
            entry[f"{key}_per_click"] = entry[key] / entry["clicks"] if entry["clicks"] else None
    return totals


def battery(figures=None) -> dict:
    """Each preset of `figures` (all of presets.FIGURES by default) at
    PRESET_SEED, timed by perfbench's clock (`perfbench/clock.py` of the
    current directory): whether its checks passed, its host seconds and its
    seconds scaled by the reference loop. It runs the snspdsim that is first
    on sys.path."""
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    from clock import Clock
    from snspdsim import presets

    clock = Clock()
    out = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in figures or presets.FIGURES:
            runner = presets.FIGURES[name]
            report, host, scaled = clock.time(lambda: runner(Path(out_dir) / name, seed=PRESET_SEED))
            out[name] = {"passed": report.passed, "host_s": host, "scaled_s": scaled}
    return out


def _in_fresh_process(root: Path, call: str):
    """The JSON result of `bench_pairs.<call>` in a fresh process in `root`,
    on the snspdsim of `root`."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import bench_pairs; print(json.dumps(bench_pairs.{call}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(done.stdout)


def _battery_run(root: Path) -> dict:
    """One battery in `root` as a run for summarize(): each preset's scaled
    seconds and their sum, `battery_s`, correct when every preset passed."""
    presets_s = _in_fresh_process(root, "battery()")
    run = {name: p["scaled_s"] for name, p in presets_s.items()}
    return {"correct": all(p["passed"] for p in presets_s.values()), "battery_s": sum(run.values()), **run,
            "presets": presets_s}


def _commit(root: Path) -> str:
    def git(*args):
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else ""

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _bench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    return parse_result(done.stdout) if done.returncode == 0 else {"correct": False}


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
        layers = {side: _bench(roots[side], workload, 1, seconds, trace=1) for side in SIDES}
        result["workloads"][workload] = {"summary": summarize(runs, spec["end_to_end"]), "runs": runs,
                                         "layers": layers}

    runs = []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs.append({"first": order[0], **{side: _battery_run(roots[side]) for side in order}})
        print(f"battery pair {i}: " + "  ".join(f"{side} {runs[-1][side]['battery_s']:.3f} s" for side in SIDES))
    timed = ["battery_s", *(name for name in runs[0]["change"]["presets"] if name in runs[0]["parent"]["presets"])]
    result["battery"] = {"seed": PRESET_SEED, "unit": "s, scaled",
                         "summary": summarize(runs, [{"name": name, "better": "lower"} for name in timed]),
                         "runs": runs}

    result["engine_work"] = {side: _in_fresh_process(roots[side], "engine_work()") for side in SIDES}
    result["tier1"] = {side: _tier1(roots[side]) for side in SIDES}

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["summary"].items():
            if isinstance(m, dict):
                print(f"{workload} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                      f"({m['pairs_won']}/{m['pairs']} pairs won)")
        parent, change = entry["layers"]["parent"], entry["layers"]["change"]
        for name in sorted(set(parent) & set(change) - {"correct"}):
            print(f"{workload} traced {name}: {parent[name]:.4g} -> {change[name]:.4g}")
    for name in timed:
        m = result["battery"]["summary"].get(name)
        if m:
            print(f"battery {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} s "
                  f"({m['pairs_won']}/{m['pairs']} pairs won)")
    for name, entry in result["engine_work"]["change"].items():
        before = result["engine_work"]["parent"].get(name, {})
        print(f"{name}: uniforms per click {before.get('uniforms_per_click')} -> {entry['uniforms_per_click']}, "
              f"crossings per click {before.get('crossings_per_click')} -> {entry['crossings_per_click']}, "
              f"lone per click {before.get('lone_per_click')} -> {entry['lone_per_click']}, "
              f"pulses evaluated per click {before.get('pulses_evaluated_per_click')} -> "
              f"{entry['pulses_evaluated_per_click']}")
    for side in SIDES:
        print(f"{side}: import {result['import_s'][side]['median']:.3f} s, "
              f"Tier-1 {result['tier1'][side]['wall_s']:.1f} s ({result['tier1'][side]['summary']})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
