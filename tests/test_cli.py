"""End-to-end CLI tests, run in-process through main()."""

import os

import numpy as np
import pytest

from snspdsim import timetags
from snspdsim.cli import main

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


def test_zero_duration_gives_empty_stream(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG.format(duration="0 s"))
    out = tmp_path / "run.nptt"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert timetags.read_stream(out).detector_events.size == 0


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
    from snspdsim.simulation import TimeTagStream

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


def anchored_windows_run(tmp_path):
    """10 sync windows anchored by a first-bin click, 5 of them with a
    second click 180 ns later."""
    from snspdsim.simulation import TimeTagStream

    sync = 2_000_000 * np.arange(1, 11, dtype=np.int64)
    det = np.sort(np.concatenate([sync + 1_000, sync[::2] + 180_000]))
    run = tmp_path / "laser.nptt"
    timetags.write_stream(TimeTagStream(det, sync, 30_000_000), run)
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


def test_analyze_malformed_csv_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# metadata={oops\nchannel,timestamp_ps\n0,5\n")
    assert main(["analyze", "afterpulse", str(bad), "--out", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
