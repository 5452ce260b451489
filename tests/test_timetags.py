"""Time-tag file format tests: round trips, canonical encoding, and
rejection of corrupted inputs."""

import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snspdsim.errors import FormatError, StreamValidationError
from snspdsim.simulation import TimeTagStream
from snspdsim.timetags import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    read_stream,
    write_stream,
    write_stream_csv,
)


@st.composite
def streams(draw):
    det_gaps = draw(st.lists(st.integers(1, 10**9), max_size=50))
    sync_gaps = draw(st.lists(st.integers(1, 10**9), max_size=50))
    det = np.cumsum(np.asarray(det_gaps, np.int64)) if det_gaps else np.empty(0, np.int64)
    sync = np.cumsum(np.asarray(sync_gaps, np.int64)) if sync_gaps else np.empty(0, np.int64)
    top = max([det[-1] if det.size else 0, sync[-1] if sync.size else 0])
    duration = int(top) + draw(st.integers(0, 10**6))
    meta = draw(
        st.dictionaries(
            st.text(st.characters(categories=["Ll"]), min_size=1, max_size=8),
            st.one_of(st.integers(-5, 5), st.text(max_size=6)),
            max_size=3,
        )
    )
    return TimeTagStream(det, sync, duration, meta)


def pinned_stream():
    """Seeded stream of 152,375 records (more than two CSV writer chunks),
    375 of them sync records that share a timestamp with a detector record."""
    rng = np.random.default_rng(2013)
    det = np.cumsum(rng.integers(1, 2_000_000, 150_000))
    sync = np.unique(np.concatenate([det[::400], rng.integers(0, det[-1], 2_000)]))
    return TimeTagStream(det, sync, int(det[-1]) + 7, {"seed": 2013, "note": "pinned"})


@pytest.mark.parametrize(
    "writer, digest",
    [
        (write_stream, "a91a349739e23a19da8691858eb14885d3b16941a16713d737b6e13a98a0e087"),
        (write_stream_csv, "941b4e0571baf42dec6047d7cecb79e37f6fe12e2f98095ab901762cbbd0477b"),
    ],
    ids=["nptt", "csv"],
)
def test_encodings_pinned(tmp_path, writer, digest):
    # digests taken from the per-record writers: the array writers keep their bytes
    path = tmp_path / "pinned"
    stream = pinned_stream()
    writer(stream, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert read_stream(path) == stream


def nptt_with_metadata(meta: bytes) -> bytes:
    """A record-free .nptt file whose metadata block passes the digest check."""
    header = struct.pack(
        "<4sIIQQI32s", MAGIC, VERSION, 2, 0, 100, len(meta), hashlib.sha256(meta).digest()
    )
    return header + meta


@pytest.mark.parametrize(
    "name, content, error",
    [
        ("duration.csv", b"# duration_ps=abc\nchannel,timestamp_ps\n0,5\n", FormatError),
        ("underscore.csv", b"# duration_ps=1_000\nchannel,timestamp_ps\n0,5\n", FormatError),
        ("json.csv", b"# metadata={oops\nchannel,timestamp_ps\n0,5\n", FormatError),
        ("list.csv", b"# metadata=[1,2]\nchannel,timestamp_ps\n0,5\n", FormatError),
        ("negative.csv", b"# duration_ps=-5\nchannel,timestamp_ps\n", StreamValidationError),
        ("overflow.csv", b"channel,timestamp_ps\n0,12345678901234567890\n", FormatError),
        ("utf8.nptt", nptt_with_metadata(b'{"k":"\xff"}'), FormatError),
    ],
    ids=["duration-abc", "duration-underscore", "metadata-bad-json", "metadata-list",
         "duration-negative", "timestamp-overflow", "nptt-metadata-not-utf8"],
)
def test_malformed_file_raises_package_error(tmp_path, name, content, error):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(error):
        read_stream(path)


class TestBinaryFormat:
    @given(stream=streams())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, stream):
        path = tmp_path_factory.mktemp("tt") / "s.nptt"
        write_stream(stream, path)
        assert read_stream(path) == stream

    def test_empty_stream_is_header_only(self, tmp_path):
        stream = TimeTagStream(np.empty(0, np.int64), np.empty(0, np.int64), 0)
        path = tmp_path / "empty.nptt"
        write_stream(stream, path)
        assert path.stat().st_size == HEADER_SIZE == 64
        assert read_stream(path) == stream

    def test_canonical_bytes(self, tmp_path):
        stream = TimeTagStream(
            np.array([10, 20, 30]), np.array([5, 25]), 100, {"seed": "1"}
        )
        a, b = tmp_path / "a.nptt", tmp_path / "b.nptt"
        write_stream(stream, a)
        write_stream(stream, b)
        assert a.read_bytes() == b.read_bytes()

    def test_records_sorted_across_channels(self, tmp_path):
        stream = TimeTagStream(np.array([10, 30]), np.array([20]), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = path.read_bytes()[HEADER_SIZE:]
        channels = list(raw[0::9])
        assert channels == [0, 1, 0]

    def test_bad_magic_rejected(self, tmp_path):
        stream = TimeTagStream(np.array([10]), np.empty(0, np.int64), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord(b"X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_stream(path)

    def test_bad_version_rejected(self, tmp_path):
        stream = TimeTagStream(np.array([10]), np.empty(0, np.int64), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_stream(path)

    def test_truncated_file_rejected(self, tmp_path):
        stream = TimeTagStream(np.array([10, 20]), np.empty(0, np.int64), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="size"):
            read_stream(path)

    def test_metadata_corruption_detected(self, tmp_path):
        stream = TimeTagStream(np.array([10]), np.empty(0, np.int64), 100, {"k": "v"})
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="digest"):
            read_stream(path)

    def test_out_of_order_records_rejected_with_index(self, tmp_path):
        stream = TimeTagStream(np.array([10, 20, 30]), np.empty(0, np.int64), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        # swap the timestamps of records 1 and 2
        rec = HEADER_SIZE
        r1 = raw[rec + 9 : rec + 18]
        r2 = raw[rec + 18 : rec + 27]
        raw[rec + 9 : rec + 18] = r2
        raw[rec + 18 : rec + 27] = r1
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamValidationError, match="record 2"):
            read_stream(path)

    def test_bad_channel_rejected(self, tmp_path):
        stream = TimeTagStream(np.array([10]), np.empty(0, np.int64), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="channel"):
            read_stream(path)

    def test_duration_beyond_int64_rejected(self, tmp_path):
        # the u64 header field can hold a duration no int64 timestamp can
        stream = TimeTagStream(np.array([10]), np.empty(0, np.int64), 100)
        path = tmp_path / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 20, 2**64 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamValidationError, match="duration_ps"):
            read_stream(path)

    @given(stream=streams(), rnd=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_header_mutations_never_pass_silently(self, tmp_path_factory, stream, rnd):
        # flipping any single byte of the magic or version must be rejected
        path = tmp_path_factory.mktemp("tt") / "s.nptt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        pos = rnd.randrange(0, 8)
        original = raw[pos]
        raw[pos] ^= 1 + rnd.randrange(0, 255)
        if raw[pos] == original:
            return
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_stream(path)


class TestCsvFormat:
    def test_three_records(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("channel,timestamp_ps\n0,100\n1,150\n0,200\n")
        stream = read_stream(path)
        assert stream.detector_events.tolist() == [100, 200]
        assert stream.sync_events.tolist() == [150]
        assert stream.duration_ps == 200

    @given(stream=streams())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, stream):
        path = tmp_path_factory.mktemp("tt") / "s.csv"
        write_stream_csv(stream, path)
        assert read_stream(path) == stream

    @given(stream=streams())
    @settings(max_examples=30, deadline=None)
    def test_cross_format_consistency(self, tmp_path_factory, stream):
        base = tmp_path_factory.mktemp("tt")
        write_stream(stream, base / "s.nptt")
        write_stream_csv(stream, base / "s.csv")
        assert read_stream(base / "s.nptt") == read_stream(base / "s.csv")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0,100\n")
        with pytest.raises(FormatError, match="header"):
            read_stream(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("channel,timestamp_ps\n0,200\n0,100\n")
        with pytest.raises(StreamValidationError):
            read_stream(path)

    def test_garbage_field_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("channel,timestamp_ps\n0,abc\n")
        with pytest.raises(FormatError):
            read_stream(path)

    def test_header_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# duration_ps=10\nchannel,timestamp_ps\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = read_stream(path)
        assert stream == TimeTagStream(np.empty(0, np.int64), np.empty(0, np.int64), 10)

    @pytest.mark.parametrize("row", ["0", "0,100,7"])
    def test_wrong_field_count_rejected(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"channel,timestamp_ps\n0,50\n{row}\n")
        with pytest.raises(FormatError, match="line 1 is the header"):
            read_stream(path)

    @pytest.mark.parametrize("field", ["5.7", "1e3", "12345678901234567890"])
    def test_non_int64_timestamp_rejected_without_warning_filters(self, tmp_path, field):
        # the CLI runs with Python's default filters, which ignore DeprecationWarning
        path = tmp_path / "s.csv"
        path.write_text(f"channel,timestamp_ps\n0,{field}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FormatError):
                read_stream(path)
