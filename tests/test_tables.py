"""The CSV table writer and the pinned bytes of engine-free outputs.

Criterion 12 compares two runs of the same code, so it cannot see the
output format drift. The digests below were taken from the outputs before
every table went through `write_csv`; a change to the number format, a
schema or a file name shows up here. Nothing pinned here goes through
`simulate`, whose realizations change whenever its RNG consumption does.
The figA2 waveforms come from the package's own filter: a NumPy band-pass
design and a pure-Python section loop, which is plain IEEE arithmetic. The
design's NumPy transcendentals and the exponential fit's LAPACK solve are
full-precision floats, so another NumPy build may move their last bits.
"""

import hashlib
import math

import numpy as np
import pytest

from snspdsim import presets, timetags
from snspdsim.cli import main
from snspdsim.simulation import TimeTagStream
from snspdsim.tables import write_csv


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWriteCsv:
    ROWS = [(0.1, 3, -2.5e-12), (1e300, -7, 1 / 3), (2.0, 0, 5e-324)]

    def test_numpy_scalars_match_python_scalars(self, tmp_path):
        py, npy = tmp_path / "py.csv", tmp_path / "np.csv"
        write_csv(py, "a,b,c", self.ROWS)
        write_csv(
            npy, "a,b,c", [(np.float64(a), np.int64(b), np.float64(c)) for a, b, c in self.ROWS]
        )
        assert py.read_bytes() == npy.read_bytes()
        columns = [np.array(column) for column in zip(*self.ROWS)]
        write_csv(npy, "a,b,c", zip(*columns))
        assert py.read_bytes() == npy.read_bytes()

    def test_layout_and_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rng = np.random.default_rng(11)
        scales = 10.0 ** rng.integers(-300, 300, 500)
        values = np.concatenate([rng.standard_normal(500) * scales, [0.0, -0.0, 1.0, 25.2e-6]])
        write_csv(path, "name,n,x", [("row", k, v) for k, v in enumerate(values)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == "name,n,x" and lines[-1] == ""
        for k, (line, v) in enumerate(zip(lines[1:-1], values)):
            name, n, x = line.split(",")
            assert name == "row" and n == str(k)  # ints carry no ".0"
            assert float(x) == v and math.copysign(1.0, float(x)) == math.copysign(1.0, v)
        assert len(lines) == values.size + 2

    def test_nan_and_inf(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, "metric,value", [("p", float("nan")), ("q", np.float64("inf"))])
        assert path.read_text() == "metric,value\np,nan\nq,inf\n"

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, "n,count", [])
        assert path.read_text() == "n,count\n"


def _hand_built_stream() -> TimeTagStream:
    """Dark clicks with a decaying gap distribution (0.1 ms bins), short
    afterpulse trains, and a laser segment of double-pulse windows at the
    end. Built with integer arithmetic only, so it is the same everywhere."""
    gaps = []
    for j in range(15):
        n_j = 400 * 7**j // 10**j
        gaps += [j * 100_000_000 + (i + 1) * 100_000_000 // (n_j + 1) for i in range(n_j)]
    gaps = np.array(gaps, np.int64)
    gaps = gaps[(np.arange(gaps.size) * 7919) % gaps.size]
    dark = 1_000_000 + np.cumsum(gaps)
    after = np.concatenate([dark[::10] + 180_000, dark[::30] + 360_000, dark[::90] + 540_000])
    start = int(dark[-1]) + 1_000_000_000
    sync = start + 2_000_000 * np.arange(500, dtype=np.int64)
    laser = np.concatenate(
        [sync[::4] + 1_000, sync[::12] + 181_000, sync[::8] + 600_000, sync[::20] + 1_500_000]
    )
    det = np.unique(np.concatenate([dark, after, laser]))
    duration = int(sync[-1]) + 1_000_000_000
    return TimeTagStream(det, sync, duration, {"separation_ps": 180_000})


ANALYZE_DIGESTS = {
    "interarrival": "97cc60f183b920957f266355aa4ba1deb9366ecda3e773fc2400437d1c153e73",
    "expfit": "c2a319de4fc00f3f700e7ebd4d6bddb95e38f222c690ff2f5762c0fa07fa867d",
    "afterpulse": "734d90e16cb6b50a7013b2d4db6f4bbe7e521b6886d237057e2bc2647c11e744",
    "corrected-dcr": "d15d81703b893a1dbb17bc386f849a75e5f693ed75ff526311166acac1736058",
    "trains": "2aa66efd878fc877c6a8d6ef254c9fd187883be0aa4f071a6425ed7e982e2518",
    "conditional": "1077d64d9dcd60070aa0b70a51ae579cedd49365ee589dd130b1739cfc0fb5e0",
    "recovery": "21392b49f9f16b85403806fa00abc1d962ed2db0478f00ffe925a238eaab985a",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
def test_analyze_csv_bytes_are_pinned(name, tmp_path):
    run = tmp_path / "run.nptt"
    timetags.write_stream(_hand_built_stream(), run)
    out = tmp_path / f"{name}.csv"
    extra = ["--bin", "20ns"] if name == "conditional" else []
    assert main(["analyze", name, str(run), "--out", str(out), *extra]) == 0
    assert _sha256(out) == ANALYZE_DIGESTS[name]


DEFAULT_OUT = {
    "interarrival": "interarrival.csv",
    "expfit": "expfit.csv",
    "afterpulse": "afterpulse.csv",
    "corrected-dcr": "corrected_dcr.csv",
    "trains": "trains.csv",
    "conditional": "conditional.csv",
    "recovery": "recovery.csv",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_OUT))
def test_analyze_default_out_name(name, tmp_path, monkeypatch):
    run = tmp_path / "run.nptt"
    timetags.write_stream(_hand_built_stream(), run)
    monkeypatch.chdir(tmp_path)
    extra = ["--bin", "20ns"] if name == "conditional" else []
    assert main(["analyze", name, str(run), *extra]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.nptt", DEFAULT_OUT[name]])
    assert _sha256(tmp_path / DEFAULT_OUT[name]) == ANALYZE_DIGESTS[name]


def test_analyze_afterpulse_on_empty_stream_writes_nan(tmp_path):
    run = tmp_path / "empty.nptt"
    timetags.write_stream(TimeTagStream(np.empty(0, np.int64), np.empty(0, np.int64), 0), run)
    out = tmp_path / "afterpulse.csv"
    assert main(["analyze", "afterpulse", str(run), "--out", str(out)]) == 0
    assert out.read_text() == "metric,value\nafterpulse_probability,nan\n"


FIGA2_DIGESTS = {
    "figA2_pulse_unfiltered.csv": "965837bdb75b675c0e5116159f02b627b8846c0c54116311cee566703f21ded9",
    "figA2_pulse_filtered.csv": "8054756bc09db511d259a463dc25485d0437a90adc8f405589c47215dd9ee09a",
    "figA2_report.txt": "c40d65851f8c69b01ef617bc717593dc8e8a07c0fa0fef5b9ba5d79b54020456",
}


def test_figA2_bytes_are_pinned(tmp_path):
    report = presets.FIGURES["figA2"](tmp_path)
    assert report.passed
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIGA2_DIGESTS)
    assert {name: _sha256(tmp_path / name) for name in FIGA2_DIGESTS} == FIGA2_DIGESTS
