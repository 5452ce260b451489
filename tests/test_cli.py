"""End-to-end CLI tests, run in-process through main(), and the scripts'
argument checks, run as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snspdsim
from snspdsim import timetags
from snspdsim.cli import main
from snspdsim.simulation import TimeTagStream

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CONFIG = """
circuit:
  kinetic_inductance: 500 nH
  hotspot_resistance: 5 kohm
  load_resistance: 25 ohm
  bias_current: 25.0 uA
  critical_current: 25.3 uA
rates:
  dark_rate_ref: 3200 Hz
  dark_rate_slope_per_amp: 2.0934e6
  efficiency_max: 0.025
  efficiency_slope_per_amp: 1.2e7
  reference_bias: 25.0 uA
kernel:
  type: gaussian
  amplitude: 3.7 uA
  center: 180 ns
  width: 15 ns
run:
  duration: {duration}
  seed: 5
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.format(duration="0.5 s"))
    return path


def test_simulate_writes_stream(config_path, tmp_path, capsys):
    out = tmp_path / "run.nptt"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "detector counts:" in printed
    stream = timetags.read_stream(out)
    assert stream.detector_events.size > 1000


def test_simulate_reruns_byte_identical(config_path, tmp_path):
    a, b = tmp_path / "a.nptt", tmp_path / "b.nptt"
    main(["simulate", "--config", str(config_path), "--out", str(a)])
    main(["simulate", "--config", str(config_path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_config(config_path, tmp_path):
    a, b = tmp_path / "a.nptt", tmp_path / "b.nptt"
    main(["simulate", "--config", str(config_path), "--out", str(a)])
    main(["simulate", "--config", str(config_path), "--out", str(b), "--seed", "99"])
    assert a.read_bytes() != b.read_bytes()


def test_seed_env_var(config_path, tmp_path):
    a, b = tmp_path / "a.nptt", tmp_path / "b.nptt"
    os.environ["SNSPD_SIM_SEED"] = "321"
    try:
        main(["simulate", "--config", str(config_path), "--out", str(a)])
    finally:
        del os.environ["SNSPD_SIM_SEED"]
    main(["simulate", "--config", str(config_path), "--out", str(b), "--seed", "321"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "command, env",
    [
        (["simulate", "--seed", "-2"], None),
        (["reproduce", "figA2", "--seed", "-1"], None),
        (["simulate"], "abc"),
        (["reproduce", "figA2"], "abc"),
    ],
    ids=["simulate-flag-negative", "reproduce-flag-negative", "simulate-env-word",
         "reproduce-env-word"],
)
def test_bad_seed_is_error(config_path, tmp_path, monkeypatch, capsys, command, env):
    if env is not None:
        monkeypatch.setenv("SNSPD_SIM_SEED", env)
    if command[0] == "simulate":
        command = command + ["--config", str(config_path)]
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-negative integer" in err


def test_malformed_config_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(CONFIG.format(duration="[0.5 s"))
    assert main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_zero_duration_gives_empty_stream(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG.format(duration="0 s"))
    out = tmp_path / "run.nptt"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert timetags.read_stream(out).detector_events.size == 0


def test_sub_ps_pulse_period_is_error(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(config_path.read_text() + "stimulus:\n  mode: periodic\n  rate: 3 THz\n  mean_photons: 1\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out.nptt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_config_reports_field(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(config_path.read_text().replace("seed: 5", "seed: 5\n  bogus: 1"))
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_analyze_interarrival(config_path, tmp_path, capsys):
    run = tmp_path / "run.nptt"
    main(["simulate", "--config", str(config_path), "--out", str(run)])
    out = tmp_path / "hist.csv"
    code = main(
        ["analyze", "interarrival", str(run), "--bin", "0.1ms", "--max-time", "1.5ms",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_start_s,count"
    assert len(lines) == 16


def test_analyze_empty_input(tmp_path):
    empty = tmp_path / "empty.nptt"
    timetags.write_stream(
        TimeTagStream(np.empty(0, np.int64), np.empty(0, np.int64), 0), empty
    )
    out = tmp_path / "hist.csv"
    assert main(["analyze", "interarrival", str(empty), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_start_s,count"


def test_analyze_trains_and_metrics(config_path, tmp_path, capsys):
    run = tmp_path / "run.nptt"
    main(["simulate", "--config", str(config_path), "--out", str(run)])
    assert main(["analyze", "trains", str(run), "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["analyze", "afterpulse", str(run), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["analyze", "corrected-dcr", str(run), "--out", str(tmp_path / "d.csv")]) == 0
    printed = capsys.readouterr().out
    assert "afterpulse probability:" in printed
    assert (tmp_path / "t.csv").read_text().startswith("n,count")


def test_shipped_dark_config_hits_calibration(tmp_path, capsys):
    # the 3 s dark preset collects about 1e4 clicks at the 3200 cps point
    out = tmp_path / "dark.nptt"
    code = main(["simulate", "--config", "configs/dark_counts_25p0uA.yaml", "--out", str(out)])
    assert code == 0
    stream = timetags.read_stream(out)
    assert 9_000 <= stream.detector_events.size <= 13_000


def test_analyze_expfit(config_path, tmp_path, capsys):
    run = tmp_path / "run.nptt"
    main(["simulate", "--config", str(config_path), "--out", str(run)])
    out = tmp_path / "fit.csv"
    code = main(
        ["analyze", "expfit", str(run), "--bin", "0.1ms", "--max-time", "1.5ms",
         "--out", str(out)]
    )
    assert code == 0
    assert "rate:" in capsys.readouterr().out
    assert out.read_text().startswith("bin_start_s,count,fit")


def test_analyze_conditional_and_recovery(tmp_path):
    laser_cfg = tmp_path / "laser.yaml"
    laser_cfg.write_text(
        CONFIG.format(duration="0.05 s")
        + "stimulus:\n  mode: periodic\n  rate: 0.5 MHz\n  mean_photons: 10\n"
    )
    laser_run = tmp_path / "laser.nptt"
    main(["simulate", "--config", str(laser_cfg), "--out", str(laser_run)])
    cond = tmp_path / "cond.csv"
    assert main(["analyze", "conditional", str(laser_run), "--bin", "20ns",
                 "--out", str(cond)]) == 0
    assert cond.read_text().startswith("bin_start_s,count")

    dp_cfg = tmp_path / "dp.yaml"
    dp_cfg.write_text(
        CONFIG.format(duration="0.2 s")
        + "stimulus:\n  mode: double-pulse\n  separation: 180 ns\n  mean_photons: 1\n"
    )
    dp_run = tmp_path / "dp.nptt"
    main(["simulate", "--config", str(dp_cfg), "--out", str(dp_run)])
    rec = tmp_path / "rec.csv"
    assert main(["analyze", "recovery", str(dp_run), "--out", str(rec)]) == 0
    lines = rec.read_text().strip().splitlines()
    assert lines[0] == "separation_s,efficiency,err"
    assert len(lines) == 2


def anchored_windows_run(tmp_path, name="laser.nptt", metadata=None):
    """10 sync windows anchored by a first-bin click, 5 of them with a
    second click 180 ns later; written as CSV when `name` ends in .csv."""
    sync = 2_000_000 * np.arange(1, 11, dtype=np.int64)
    det = np.sort(np.concatenate([sync + 1_000, sync[::2] + 180_000]))
    run = tmp_path / name
    write = timetags.write_stream_csv if run.suffix == ".csv" else timetags.write_stream
    write(TimeTagStream(det, sync, 30_000_000, metadata or {}), run)
    return run


def test_analyze_conditional_default_bin(tmp_path):
    # without --bin the conditional histogram uses 20 ns bins over its 2000 ns window
    run = anchored_windows_run(tmp_path)
    out = tmp_path / "cond.csv"
    assert main(["analyze", "conditional", str(run), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_start_s,count"
    assert len(lines) == 101
    assert lines[1] == "0.0,10" and lines[10] == "1.8e-07,5"


def test_analyze_conditional_reports_clicks(tmp_path, capsys):
    run = anchored_windows_run(tmp_path)
    assert main(["analyze", "conditional", str(run), "--out", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr().out == "15 clicks in anchored windows\n"


def test_unknown_analysis_is_usage_error(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "fourier", "whatever.nptt"])
    assert exc.value.code == 2
    assert "interarrival" in capsys.readouterr().err  # lists the valid names


def test_unknown_figure_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig99"])
    assert exc.value.code == 2


def test_reproduce_figA2(tmp_path, capsys):
    assert main(["reproduce", "figA2", "--out", str(tmp_path / "a2")]) == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed
    assert (tmp_path / "a2" / "figA2_pulse_filtered.csv").exists()
    assert (tmp_path / "a2" / "figA2_report.txt").exists()


def test_missing_input_file(capsys):
    assert main(["analyze", "interarrival", "no_such_file.nptt"]) == 2


def zero_duration_run(tmp_path):
    cfg = tmp_path / "zero.yaml"
    cfg.write_text(CONFIG.format(duration="0 s"))
    run = tmp_path / "zero.nptt"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    return run


def recovery_runs(tmp_path, *separations):
    """One anchored-windows CSV per separation_ps metadata value."""
    return [anchored_windows_run(tmp_path, f"dp{k}.csv", {"separation_ps": sep})
            for k, sep in enumerate(separations)]


def huge_duration_config(tmp_path):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(CONFIG.format(duration="1e300 s"))
    return cfg


def dark_run(tmp_path):
    """Poisson clicks at 3200/s: a histogram that `analyze expfit` fits."""
    gaps = np.random.default_rng(4).exponential(1 / 3200.0, 10_000)
    det = np.cumsum(np.round(gaps * 1e12).astype(np.int64))
    run = tmp_path / "dark.nptt"
    timetags.write_stream(TimeTagStream(det, np.empty(0, np.int64), int(det[-1])), run)
    return run


def a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file"


BAD_VALUES = {
    "bin-rounds-to-0ps": lambda tmp: ["analyze", "interarrival", anchored_windows_run(tmp),
                                      "--bin", "0.4ps"],
    "max-time-0": lambda tmp: ["analyze", "expfit", anchored_windows_run(tmp), "--max-time", "0s"],
    "bin-beyond-int64": lambda tmp: ["analyze", "interarrival", anchored_windows_run(tmp),
                                     "--bin", "1e300s"],
    "window-beyond-int64": lambda tmp: ["analyze", "corrected-dcr", anchored_windows_run(tmp),
                                        "--window", "1e300s"],
    "conditional-window-beyond-int64": lambda tmp: ["analyze", "conditional", anchored_windows_run(tmp),
                                                    "--conditional-window", "1e300s"],
    "simulate-duration-beyond-int64": lambda tmp: ["simulate", "--config", huge_duration_config(tmp)],
    "duplicate-separations": lambda tmp: ["analyze", "recovery",
                                          *recovery_runs(tmp, 180_000, 180_000)],
    "input-is-directory": lambda tmp: ["analyze", "interarrival", tmp],
    "out-under-a-file": lambda tmp: ["analyze", "interarrival", anchored_windows_run(tmp),
                                     "--out", a_file(tmp) / "hist.csv"],
    "corrected-dcr-zero-duration": lambda tmp: ["analyze", "corrected-dcr", zero_duration_run(tmp)],
    "afterpulse-window-negative": lambda tmp: ["analyze", "afterpulse", anchored_windows_run(tmp),
                                               "--window=-1ns"],
    "trains-window-rounds-to-0ps": lambda tmp: ["analyze", "trains", anchored_windows_run(tmp),
                                                "--window", "0.1ps"],
    "separation-word": lambda tmp: ["analyze", "recovery", *recovery_runs(tmp, "abc")],
    "separation-fraction": lambda tmp: ["analyze", "recovery", *recovery_runs(tmp, 180_000.5)],
    "expfit-discard-first-negative": lambda tmp: ["analyze", "expfit", dark_run(tmp),
                                                  "--discard-first", "-5"],
    "expfit-min-bin-count-0": lambda tmp: ["analyze", "expfit", dark_run(tmp),
                                           "--min-bin-count", "0"],
}


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_value_is_error(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)  # where an analysis writes by default
    argv = [str(arg) for arg in BAD_VALUES[case](tmp_path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_analyze_malformed_csv_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# metadata={oops\nchannel,timestamp_ps\n0,5\n")
    assert main(["analyze", "afterpulse", str(bad), "--out", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def run_script(cwd, name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(snspdsim.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          cwd=cwd, capture_output=True, text=True, env=env, timeout=120)


def test_runtime_imports_no_scipy():
    # SciPy is a test dependency only: the package, its CLI and the presets
    # must import and build the parser without it
    code = (
        "import sys, snspdsim, snspdsim.cli, snspdsim.presets, snspdsim.config, snspdsim.circuit\n"
        "snspdsim.cli.build_parser()\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(snspdsim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("reproduce_all.py", ["--seed", "-1"], "non-negative integer"),
        ("afterpulse_bias_scan.py", ["--seed", "-1"], "non-negative integer"),
        ("afterpulse_bias_scan.py", ["--events", "0"], "at least 1"),
        ("afterpulse_bias_scan.py", ["--amplitude", "nan"], "non-negative"),
    ],
)
def test_script_bad_argument_is_error(tmp_path, script, args, message):
    done = run_script(tmp_path, script, *args)
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and message in done.stderr
    assert not list(tmp_path.iterdir())  # reproduce_all.py wrote no out/


def test_bias_scan_point_without_clicks(tmp_path):
    # one target click per point: some points see none, and their
    # afterpulse probability is undefined
    done = run_script(tmp_path, "afterpulse_bias_scan.py", "--events", "1", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert " nan " in done.stdout


def test_gate_sweep_counts_every_check(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import gate_sweep

    result = gate_sweep.sweep([0, 1], ["figA2"])
    assert json.loads(json.dumps(result)) == result
    assert result["seeds"] == [0, 1]
    assert result["python"] and result["numpy"]
    names = list(result["checks"])
    assert len(names) == 5 and all(name.startswith("figA2/") for name in names)
    for entry in result["checks"].values():
        assert entry == {"passes": 2, "runs": 2, "failed_seeds": []}


def _bench_output(items_per_s, wall_s, correct=True):
    metrics = {"items_per_s": {"value": items_per_s, "unit": "1/s"},
               "wall_s": {"value": wall_s, "unit": "s"}}
    last = json.dumps({"correct": correct, "attempted": 9, "failed": 1 - correct, "metrics": metrics})
    return f"run record: {{}}\nclicks_per_s = {items_per_s!r} 1/s\n{last}\n"


def test_bench_pairs_summary(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    parse = bench_pairs.parse_result
    assert parse(_bench_output(100.0, 2.0)) == {"correct": True, "items_per_s": 100.0, "wall_s": 2.0}
    assert parse("Traceback (most recent call last):\n") == {"correct": False}
    assert parse("") == {"correct": False}
    runs = [
        {"parent": parse(_bench_output(p, w)), "change": parse(_bench_output(c, v))}
        for p, c, w, v in [(100.0, 150.0, 2.0, 1.5), (110.0, 160.0, 2.0, 2.5), (90.0, 80.0, 3.0, 1.0)]
    ]
    runs.append({"parent": parse(_bench_output(1.0, 1.0)), "change": parse(_bench_output(9.0, 9.0, False))})
    end_to_end = [{"name": "items_per_s", "better": "higher"}, {"name": "wall_s", "better": "lower"},
                  {"name": "peak_rss_mb", "better": "lower"}]
    summary = bench_pairs.summarize(runs, end_to_end)
    assert json.loads(json.dumps(summary)) == summary
    # the failed run drops out with its pair; a metric no run printed is absent
    assert summary["pairs"] == 4 and summary["failed_runs"] == 1
    assert "peak_rss_mb" not in summary
    items = summary["items_per_s"]
    assert (items["parent_median"], items["change_median"]) == (100.0, 150.0)
    assert items["ratio"] == 1.5
    assert (items["pairs_won"], items["pairs"]) == (2, 3)
    wall = summary["wall_s"]
    assert (wall["parent_median"], wall["change_median"], wall["pairs_won"]) == (2.0, 1.5, 2)
    assert wall["parent_quartiles"][0] <= 2.0 <= wall["parent_quartiles"][1]


def test_bench_pairs_times_a_fresh_import(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    assert bench_pairs._import_s(Path(snspdsim.__file__).parents[2]) > 0.0


def test_bench_pairs_reads_preset_times(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    out = ("figA2  ok     (  0.2 s)\n   [PASS] figA2/recovery-tau: x\n"
           "fig4   FAILED ( 12.5 s)\nall presets passed\n")
    assert bench_pairs.parse_presets(out) == {"figA2": 0.2, "fig4": 12.5}


def test_bench_pairs_counts_engine_work(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    from snspdsim import presets, simulation

    work = bench_pairs.engine_work(figures=("fig4",), dark_ua=(23.0,), seeds=(1, 2), counts=200)
    assert presets.simulate is simulation.simulate
    assert set(work) == {"fig4", "dark-23.0uA"}
    for entry in work.values():
        assert entry["clicks"] > 0
        assert entry["uniforms_per_click"] == entry["uniforms"] / entry["clicks"]
        assert entry["crossings_per_click"] == entry["crossings"] / entry["clicks"]
