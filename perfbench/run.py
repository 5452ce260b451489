"""snspdsim benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload dark-afterpulse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The run starts the set-up probe several times (setup_s), builds the
workload's inputs from the seed, then repeats the workload until
`--seconds` have passed (at least three times) and reports medians.

Every reported time is host time scaled to a fixed machine speed by a
reference loop timed around and inside each step (see clock.py); the raw
host seconds are in the run record.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced iterations, prints the per-layer metrics from the traced ones and
writes every span to .bench_work/. The last line of standard output is one
JSON object; the exit code is 0 only when every correctness check passed.
See perfbench/README.md for the workloads and metrics.
"""

import os

# one BLAS/OpenMP thread everywhere, set before NumPy is first imported
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from clock import REFERENCE_S, Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
MIN_ITERATIONS = 3
PROBE_TIMEOUT_S = 60

# the name of items_per_s on each workload: what one item is
ITEMS = {"dark-afterpulse": "clicks_per_s", "double-pulse": "pulses_per_s", "tagstream": "records_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input-size factor; below 1 only for the smoke test"
    )
    return parser.parse_args(argv)


def run_setup_probes(clock, checks):
    """Samples of a fresh-process set-up, each with its scaled wall time."""
    def probe():
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        if report:
            clock.add_references(report["references"])
        return proc, report

    samples = []
    for _ in range(SETUP_PROBES):
        (proc, report), raw, wall = clock.time(probe, in_process=False)
        if report is None:
            checks.expect("setup/probe-exit", False, proc.stderr.strip()[-500:])
            continue
        for name, passed in report["checks"]:
            checks.expect(name, passed)
        scale = wall / raw
        layers = {layer: seconds * scale for layer, seconds in report["layers"].items()}
        samples.append({"raw_s": raw, "wall_s": wall, "import_s": report["import_s"] * scale, **layers})
    return samples


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(args, workload, np, scipy, setup, plain, traced):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "inputs": workload.sizes,
        "reference_s": REFERENCE_S,
        "host_seconds": {
            "setup": [s["raw_s"] for s in setup],
            "untraced": [r["raw_s"] for r in plain],
            "traced": [r["raw_s"] for r in traced],
        },
    }


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, args, checks, clock, tracer, untraced):
    """Repeat the workload until the time is up and the workload has pooled
    enough counts for its checks. With tracing, untraced and traced
    iterations alternate in pairs that run the same inputs. Returns
    per-iteration records; a traced one carries the id of its root span in
    `tracer` and the clock's reference loops that interrupted it."""
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    k = 0
    while True:
        want_trace = args.trace == 1 and k % 2 == 1
        active = tracer if want_trace else untraced
        index = k // 2 if args.trace else k

        def step():
            with active.span("bench.iteration") as root:
                return root, workload.iteration(index, active, checks)

        try:
            (root, counts), raw, wall = clock.time(step)
        except Exception as exc:  # a raising iteration is a failed check; stop the run
            checks.expect(f"{workload.name}/iteration-{k}-raised", False, repr(exc))
            break
        record = {"raw_s": raw, "wall_s": wall, "root": root, "pauses": clock.pauses, **counts}
        (traced if want_trace else plain).append(record)
        k += 1
        enough = len(plain) >= MIN_ITERATIONS and (args.trace == 0 or len(traced) >= MIN_ITERATIONS)
        enough = enough and workload.enough()
        if enough and time.perf_counter() >= deadline:
            break
    return plain, traced


def end_to_end(plain, setup):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": median([r["wall_s"] for r in plain]), "unit": "s"},
        "setup_s": {"value": median([s["wall_s"] for s in setup]), "unit": "s"},
        "items_per_s": {"value": median([r["items"] / r["wall_s"] for r in plain]), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


ANALYSES = (
    "interarrival_histogram", "fit_exponential", "afterpulse_probability", "corrected_dcr",
    "classify_trains", "conditional_histogram", "recovery_curve",
)
TIMETAGS = ("write_nptt", "read_nptt", "write_csv", "read_csv")
TAIL_FACTOR = 3.0


def per_layer(plain, traced, setup, tracer):
    rows, sim_s = [], []
    for r in traced:
        scale = r["wall_s"] / r["raw_s"]
        names = {name: s * scale for name, s in tracer.self_times(r["root"], r["pauses"]).items()}
        layers = spans.by_layer(names)
        total = sum(layers.values())
        sim = names.get("simulation.simulate", 0.0)
        sim_s.append(sim)
        row = {
            "simulation.busy_s": (layers.get("simulation", 0.0), "s"),
            "simulation.us_per_click": (1e6 * sim / r["clicks"] if r["clicks"] else 0.0, "us"),
            "simulation.us_per_pulse": (1e6 * sim / r["pulses"] if r["pulses"] else 0.0, "us"),
            "simulation.clicks": (r["clicks"], "count"),
            "simulation.pulses": (r["pulses"], "count"),
            "timetags.records": (r["records"], "count"),
            "timetags.bytes": (r["bytes"], "B"),
            "analysis.busy_s": (layers.get("analysis", 0.0), "s"),
            "bench.busy_s": (layers.get("bench", 0.0), "s"),
        }
        row.update({f"timetags.{op}_s": (names.get(f"timetags.{op}", 0.0), "s") for op in TIMETAGS})
        row.update({f"analysis.{fn}_s": (names.get(f"analysis.{fn}", 0.0), "s") for fn in ANALYSES})
        row.update({f"{layer}.self_share": (layers.get(layer, 0.0) / total, "ratio")
                    for layer in ("simulation", "timetags", "analysis")})
        rows.append(row)
    out = {name: {"value": median([row[name][0] for row in rows]), "unit": unit}
           for name, (_, unit) in rows[0].items()}
    for name, key in (("setup.import_s", "import_s"), ("circuit.busy_s", "circuit"), ("presets.busy_s", "presets")):
        out[name] = {"value": median([s.get(key, 0.0) for s in setup]), "unit": "s"}
    overhead = median([t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    # the medians above describe a typical iteration; these two see the
    # rare slow ones: the mean cost per click, and the share of engine time
    # spent in iterations whose engine time is over TAIL_FACTOR x the median
    clicks = sum(r["clicks"] for r in traced)
    out["simulation.mean_us_per_click"] = {"value": 1e6 * sum(sim_s) / clicks if clicks else 0.0, "unit": "us"}
    slow = sum(s for s in sim_s if s > TAIL_FACTOR * median(sim_s))
    out["simulation.tail_share"] = {"value": slow / sum(sim_s) if sum(sim_s) else 0.0, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snspdsim" / "__init__.py").is_file():
        print(f"error: no snspdsim package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import workloads

    checks = workloads.Checks()
    clock = Clock()
    setup = run_setup_probes(clock, checks)

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, str(run_dir))
        tracer = spans.Tracer()
        clock = Clock()
        plain, traced = measure(workload, args, checks, clock, tracer, spans.Untraced())
        workload.finish(checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = run_record(args, workload, np, scipy, setup, plain, traced)
    print("run record: " + json.dumps(record))
    tally = {}
    for name, passed, detail in checks.results:
        runs, ok = tally.get(name, (0, 0))
        tally[name] = (runs + 1, ok + passed)
        if not passed:
            print(f"FAILED {name}: {detail}")
    for name, (runs, ok) in tally.items():
        print(f"check {name}: {ok}/{runs} passed")
    print(f"check_fail_ratio = {checks.failed / checks.attempted!r} ratio")

    metrics = {}
    if plain and setup and (args.trace == 0 or traced):
        if args.trace:
            metrics = per_layer(plain, traced, setup, tracer)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json", record)
        else:
            metrics = end_to_end(plain, setup)
            # items_per_s under the name of this workload's unit of work
            print(f"{ITEMS[args.workload]} = {metrics['items_per_s']['value']!r} 1/s")
            # the throughput of the whole run, slow iterations included; not
            # a metric: on dark-afterpulse a few slow iterations make it
            # spread across seeds by more than any bound allows (README)
            mean = sum(r["items"] for r in plain) / sum(r["wall_s"] for r in plain)
            print(f"run_{ITEMS[args.workload]} = {mean!r} 1/s (sum of items / sum of times)")
            for other in sorted(set(ITEMS.values()) - {ITEMS[args.workload]}):
                print(f"{other} = n/a 1/s (not this workload's unit of work)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
