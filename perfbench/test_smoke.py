"""Smoke test of the benchmark at small input sizes (about two minutes):

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced. The test asserts that
every metric in BENCHMARK.json is printed with its unit, that the seven
end-to-end quantity names are printed with units, that every correctness
check ran and passed, and that the benchmark refuses to run without the
package sources. It also shows that the pooled double-pulse checks reject
a detector with the wrong recovery.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from snspdsim import Histogram, presets  # noqa: E402
from snspdsim.analysis import second_pulse_efficiency  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SCALES = {"dark-afterpulse": 0.4, "double-pulse": 0.5, "tagstream": 0.02}
SETUP_CHECKS = {"setup/config-matches-profile", "setup/config-kernel-matches-profile", "setup/narrow-band-overshoot"}
CHECKS = {
    "dark-afterpulse": {
        "dark/nptt-round-trip", "dark/afterpulse-peak-140-220ns", "dark/fit-decays",
        "dark/corrected-dcr-identity", "dark/trains-partition-clicks", "dark/afterpulse-fraction-vs-model",
    },
    "double-pulse": {
        "double/first-pulse-count-80ns", "double/first-pulse-count-180ns",
        "double/first-pulse-count-1000ns", "double/recovery-curve-separations",
        "double/dead-at-80ns", "double/settled-at-1000ns",
    },
    "tagstream": {
        "tags/nptt-round-trip", "tags/csv-round-trip", "tags/interarrival-counts", "tags/fit-decays",
        "tags/afterpulse-fraction", "tags/corrected-dcr", "tags/train-counts", "tags/anchored-bins",
        "tags/recovery-efficiency",
    },
}
PRINTED_METRICS = ("wall_s", "setup_s", "clicks_per_s", "pulses_per_s", "records_per_s", "peak_rss_mb", "check_fail_ratio")


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "11", "--seconds", "0",
         "--trace", str(trace), "--scale", str(SCALES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_and_runs_every_check(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name
        for name in PRINTED_METRICS:
            assert any(line.startswith(f"{name} = ") and len(line.split()) >= 4 for line in lines), name

    ran = {line.split()[1].rstrip(":") for line in lines if line.startswith("check ")}
    assert ran == CHECKS[workload] | SETUP_CHECKS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("tagstream", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def pooled_recovery(eta80, eta1000, background=2):
    """eta and 3-sigma error per separation from noise-free conditional
    histograms with the pooled size the double-pulse workload waits for."""
    nominal = presets.nominal_detection_probability(workloads.DOUBLE_BIAS)
    frames = math.ceil(workloads.DOUBLE_MIN_EXPECTED_SECOND / nominal**2)
    n1 = round(frames * nominal)
    out = {}
    for sep_ns, eta in ((80, eta80), (1000, eta1000)):
        counts = np.full(workloads.CONDITIONAL_WINDOW_PS // workloads.ACCEPTANCE_BIN_PS, background)
        counts[0] = n1
        counts[sep_ns * 1000 // workloads.ACCEPTANCE_BIN_PS] += round(eta * n1)
        hist = Histogram(workloads.ACCEPTANCE_BIN_PS, 0, counts, int(counts.sum()))
        out[sep_ns] = second_pulse_efficiency(hist, sep_ns * 1000)
    return out


@pytest.mark.parametrize(
    "eta80, eta1000, failing",
    [
        (0.0, 1.0, set()),
        (1.0, 1.0, {"double/dead-at-80ns"}),             # recovered at 80 ns
        (0.0, 0.0, {"double/settled-at-1000ns"}),        # still dead at 1000 ns
        (0.0, 0.1, {"double/settled-at-1000ns"}),
        (0.0, 2.0, {"double/settled-at-1000ns"}),
    ],
)
def test_recovery_checks_reject_a_wrong_recovery(eta80, eta1000, failing):
    nominal = presets.nominal_detection_probability(workloads.DOUBLE_BIAS)
    recovery = pooled_recovery(eta80 * nominal, eta1000 * nominal)
    checks = workloads.Checks()
    workloads.judge_recovery(recovery, nominal, checks)
    assert {name for name, passed, _ in checks.results if not passed} == failing
