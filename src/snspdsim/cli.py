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


def _cmd_analyze(args) -> int:
    flags = vars(args)  # the flags given, and the CLI's own defaults
    for dest in ("bin", "max_time", "window", "conditional_window", "acceptance_bin"):
        if dest in flags:  # a time, read as whole ps
            flag = "--" + dest.replace("_", "-")
            flags[dest] = whole_ps(parse_quantity(flags[dest], "time", flag) * PS_PER_SECOND, flag)

    def given(**keywords):
        """The analysis function's `keyword=dest` arguments whose flag was given."""
        return {key: flags[dest] for key, dest in keywords.items() if dest in flags}

    paths = args.inputs
    streams = [timetags.read_stream(p) for p in paths]
    name = args.analysis
    if name != "recovery":
        if len(streams) != 1:
            raise ConfigError(f"analysis {name!r} takes exactly one input file")
        stream = streams[0]
        events = stream.detector_events

    if name == "recovery":
        runs = []
        for path, stream in zip(paths, streams):
            if "separation_ps" not in stream.metadata:
                raise ConfigError(f"{path} has no separation_ps metadata")
            separation_ps = parse_count(stream.metadata["separation_ps"], f"{path}: separation_ps")
            runs.append((separation_ps, stream))
        curve = analysis.recovery_curve(runs, **given(
            acceptance_bin_ps="acceptance_bin", window_ps="conditional_window",
            neighbors_per_side="neighbors", ratio="ratio"))
        table = analysis.recovery_table(curve)
        summary = "\n".join(map("separation {:.0f} ns: efficiency {:.5f} +- {:.5f}".format,
                                curve.separations_ps / 1000, curve.efficiency, curve.stat_error))
    elif name == "interarrival":
        hist = analysis.interarrival_histogram(events, args.bin, args.max_time)
        table = analysis.histogram_table(hist)
        summary = f"{hist.total_events} gaps, {int(hist.counts.sum())} binned"
    elif name == "expfit":
        hist = analysis.interarrival_histogram(events, args.bin, args.max_time)
        fit = analysis.fit_exponential(hist, **given(discard_first="discard_first",
                                                     min_bin_count="min_bin_count"))
        table = analysis.expfit_table(hist, fit)
        summary = f"rate: {fit.rate:.2f} /s  R^2: {fit.r_squared:.5f}"
    elif name == "afterpulse":
        p = analysis.afterpulse_probability(events, **given(window_ps="window"))
        table = "metric,value", [("afterpulse_probability", float("nan") if p is None else p)]
        shown = "undefined (empty stream)" if p is None else f"{p:.6f}"
        summary = f"afterpulse probability: {shown}"
    elif name == "corrected-dcr":
        total, corrected = analysis.corrected_dcr(events, stream.duration_ps, **given(window_ps="window"))
        table = "metric,value", [("total_cps", total), ("corrected_cps", corrected)]
        summary = f"total: {total:.2f} cps  corrected: {corrected:.2f} cps"
    elif name == "trains":
        dist = analysis.classify_trains(events, **given(gap_ps="window"))
        table = analysis.trains_table(dist)
        summary = f"trains by length: {dict((n, dist.count(n)) for n in range(1, 7))}"
    else:  # conditional
        hist = analysis.conditional_histogram(stream, **given(window_ps="conditional_window", bin_ps="bin"))
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


class _AnalysisParser(argparse.ArgumentParser):
    """An analysis's parser, which refuses a flag it does not read itself:
    argparse hands a subparser's unknown arguments to the top-level parser,
    whose usage line does not name the analysis's flags."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


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
    kinds = ana.add_subparsers(dest="analysis", required=True, parser_class=_AnalysisParser)
    # each analysis takes only the flags it reads; a flag without a default
    # leaves its value to the analysis function
    parsers = {}
    for name in ("interarrival", "expfit", "afterpulse", "corrected-dcr", "trains", "conditional",
                 "recovery"):
        p = parsers[name] = kinds.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("inputs", nargs="+", help="time-tag file(s); recovery takes one per separation")
        p.add_argument("--out", default=None, help="output CSV path")
        p.set_defaults(func=_cmd_analyze)
    for name in ("interarrival", "expfit"):
        parsers[name].add_argument("--bin", default="0.1ms", help="histogram bin width (default %(default)s)")
        parsers[name].add_argument("--max-time", default="3ms", help="histogram range (default %(default)s)")
    parsers["expfit"].add_argument("--discard-first", type=int, help="leading bins left out of the fit")
    parsers["expfit"].add_argument("--min-bin-count", type=int, help="fewest counts of a fitted bin")
    for name in ("afterpulse", "corrected-dcr", "trains"):
        parsers[name].add_argument("--window", help="afterpulse window")
    parsers["conditional"].add_argument("--bin", help="histogram bin width")
    for name in ("conditional", "recovery"):
        parsers[name].add_argument("--conditional-window", help="sync window length")
    parsers["recovery"].add_argument("--acceptance-bin", help="acceptance bin width")
    parsers["recovery"].add_argument("--neighbors", type=int, help="background bins per side")
    parsers["recovery"].add_argument("--ratio", help="the efficiency's denominator (second_pulse_efficiency)")

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
