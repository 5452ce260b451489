"""Command-line front end: `simulate`, `analyze` and `reproduce`.

The seed is resolved in the order: `--seed` flag, `SNSPD_SIM_SEED`
environment variable, the config file's `run.seed` (simulate) or the
preset default (reproduce).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analysis, presets, timetags
from .config import load_run_config, parse_count
from .errors import ConfigError, SnspdSimError
from .quantities import parse_quantity
from .simulation import PS_PER_SECOND, simulate, whole_ps
from .tables import write_csv

SEED_ENV_VAR = "SNSPD_SIM_SEED"

ANALYSES = (
    "interarrival",
    "expfit",
    "afterpulse",
    "corrected-dcr",
    "trains",
    "conditional",
    "recovery",
)
# histogram bin width of each binned analysis when --bin is not given
DEFAULT_BIN = {"interarrival": "0.1ms", "expfit": "0.1ms", "conditional": "20ns"}


def _resolve_seed(flag_seed, fallback):
    if flag_seed is not None:
        return parse_count(flag_seed, "--seed")
    env = os.environ.get(SEED_ENV_VAR)
    return fallback if env is None else parse_count(env, SEED_ENV_VAR)


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    seed = _resolve_seed(args.seed, cfg.seed)
    out = Path(args.out or cfg.output or "run.nptt")
    stream = simulate(cfg.model, cfg.stimulus, cfg.duration, seed)
    stream.metadata["config_file_digest"] = cfg.digest
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix.lower() == ".csv":
        timetags.write_stream_csv(stream, out)
    else:
        timetags.write_stream(stream, out)
    n = stream.detector_events.size
    rate = n / cfg.duration if cfg.duration > 0 else 0.0
    print(f"wrote {out}")
    print(f"detector counts: {n}")
    print(f"sync counts: {stream.sync_events.size}")
    print(f"total rate: {rate:.2f} cps")
    print(f"config digest: {cfg.digest}")
    return 0


def _ps(text, flag: str) -> int:
    return whole_ps(parse_quantity(text, "time", flag) * PS_PER_SECOND, flag)


def _cmd_analyze(args) -> int:
    paths = args.inputs
    streams = [timetags.read_stream(p) for p in paths]
    name = args.analysis
    if name != "recovery":
        if len(streams) != 1:
            raise ConfigError(f"analysis {name!r} takes exactly one input file")
        stream = streams[0]
        events = stream.detector_events
        window_ps = _ps(args.window, "--window")
    if name in DEFAULT_BIN:
        bin_ps = _ps(DEFAULT_BIN[name] if args.bin is None else args.bin, "--bin")

    if name == "recovery":
        runs = []
        for path, stream in zip(paths, streams):
            if "separation_ps" not in stream.metadata:
                raise ConfigError(f"{path} has no separation_ps metadata")
            separation_ps = parse_count(stream.metadata["separation_ps"], f"{path}: separation_ps")
            runs.append((separation_ps, stream))
        curve = analysis.recovery_curve(
            runs,
            acceptance_bin_ps=_ps(args.acceptance_bin, "--acceptance-bin"),
            window_ps=_ps(args.conditional_window, "--conditional-window"),
            neighbors_per_side=args.neighbors,
            ratio=args.ratio,
        )
        table = analysis.recovery_table(curve)
        summary = "\n".join(map("separation {:.0f} ns: efficiency {:.5f} +- {:.5f}".format,
                                curve.separations_ps / 1000, curve.efficiency, curve.stat_error))
    elif name == "interarrival":
        hist = analysis.interarrival_histogram(events, bin_ps, _ps(args.max_time, "--max-time"))
        table = analysis.histogram_table(hist)
        summary = f"{hist.total_events} gaps, {int(hist.counts.sum())} binned"
    elif name == "expfit":
        hist = analysis.interarrival_histogram(events, bin_ps, _ps(args.max_time, "--max-time"))
        fit = analysis.fit_exponential(hist, args.discard_first, args.min_bin_count)
        table = analysis.expfit_table(hist, fit)
        summary = f"rate: {fit.rate:.2f} /s  R^2: {fit.r_squared:.5f}"
    elif name == "afterpulse":
        p = analysis.afterpulse_probability(events, window_ps)
        table = "metric,value", [("afterpulse_probability", float("nan") if p is None else p)]
        shown = "undefined (empty stream)" if p is None else f"{p:.6f}"
        summary = f"afterpulse probability: {shown}"
    elif name == "corrected-dcr":
        total, corrected = analysis.corrected_dcr(events, stream.duration_ps, window_ps)
        table = "metric,value", [("total_cps", total), ("corrected_cps", corrected)]
        summary = f"total: {total:.2f} cps  corrected: {corrected:.2f} cps"
    elif name == "trains":
        dist = analysis.classify_trains(events, window_ps)
        table = analysis.trains_table(dist)
        summary = f"trains by length: {dict((n, dist.count(n)) for n in range(1, 7))}"
    else:  # conditional
        window = _ps(args.conditional_window, "--conditional-window")
        hist = analysis.conditional_histogram(stream, window, bin_ps)
        table = analysis.histogram_table(hist)
        summary = f"{hist.total_events} clicks in anchored windows"
    write_csv(args.out or f"{name.replace('-', '_')}.csv", *table)
    print(summary)
    return 0


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out or f"out_{args.figure}")
    seed = _resolve_seed(args.seed, presets.DEFAULT_SEED)
    report = presets.FIGURES[args.figure](out_dir, seed=seed)
    for line in report.lines():
        print(line)
    print(f"report written to {out_dir}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snspd-sim",
        description="SNSPD detection-chain simulator and time-tag analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation from a YAML config")
    sim.add_argument("--config", required=True, help="YAML run configuration")
    sim.add_argument("--seed", default=None, help="override the config seed")
    sim.add_argument("--out", default=None, help="output time-tag file (.nptt or .csv)")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="run an analysis on a time-tag file")
    ana.add_argument("analysis", choices=ANALYSES)
    ana.add_argument("inputs", nargs="+", help="time-tag file(s); recovery takes one per separation")
    ana.add_argument(
        "--bin", default=None, help="histogram bin width (default 20ns for conditional, else 0.1ms)"
    )
    ana.add_argument("--max-time", default="3ms", help="interarrival histogram range")
    ana.add_argument("--window", default="1000ns", help="afterpulse window")
    ana.add_argument(
        "--conditional-window",
        dest="conditional_window",
        default="2000ns",
        help="sync window length for conditional/recovery analyses",
    )
    ana.add_argument("--acceptance-bin", default="4ns", help="recovery acceptance bin (at most 5 ns)")
    ana.add_argument("--neighbors", type=int, default=2, help="background bins per side")
    ana.add_argument("--ratio", choices=("first-detected", "first-only"), default="first-detected")
    ana.add_argument("--discard-first", type=int, default=1)
    ana.add_argument("--min-bin-count", type=int, default=10)
    ana.add_argument("--out", default=None, help="output CSV path")
    ana.set_defaults(func=_cmd_analyze)

    rep = sub.add_parser("reproduce", help="run a figure-reproduction preset")
    rep.add_argument("figure", choices=sorted(presets.FIGURES, key=lambda s: (len(s), s)))
    rep.add_argument("--out", default=None, help="output directory")
    rep.add_argument("--seed", default=None, help="master seed")
    rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SnspdSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
