"""Time-tag file format tests: round trips, canonical encoding, and
rejection of corrupted inputs."""

import hashlib
import io
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snspdsim import timetags
from snspdsim.errors import FormatError, StreamValidationError
from snspdsim.simulation import INT64_MAX, TimeTagStream
from snspdsim.timetags import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    read_stream,
    write_stream,
    write_stream_csv,
)

from reference_impls import _CSV_ROW, _load_int64, reference_read_csv, reference_write_csv


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
        with pytest.raises(FormatError, match="^line 3: "):
            read_stream(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"# duration_ps=100\nchannel,timestamp_ps\n# c\n\n0,5\n0,x\n", 6),
            (b"channel,timestamp_ps\r\n0,1 # a\r\n#\r\n\r\n0,2\r\n0\r\n", 6),
            (b"channel,timestamp_ps\r0,1\r\r  \r", 4),
        ],
        ids=["comment-and-blank", "crlf-field-count", "lone-cr-blank-field"],
    )
    def test_bad_row_names_its_file_line(self, tmp_path, body, line):
        # loadtxt skips comment-only and empty lines when it counts rows
        path = tmp_path / "s.csv"
        path.write_bytes(body)
        with pytest.raises(FormatError, match=f"^line {line}: "):
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

    @pytest.mark.parametrize(
        "text, stream",
        [
            (b"channel,timestamp_ps\n0," + b"0" * 5000 + b"5\n", TimeTagStream(np.array([5]), np.array([]), 5)),
            (b"# duration_ps=" + b"0" * 5000 + b"9\nchannel,timestamp_ps\n", TimeTagStream(np.array([]), np.array([]), 9)),
        ],
        ids=["stamp", "duration"],
    )
    def test_leading_zeros_beyond_int_digit_limit(self, tmp_path, text, stream):
        # int() refuses more than 4,300 digits; leading zeros are not read as digits
        path = tmp_path / "s.csv"
        path.write_bytes(text)
        assert read_stream(path) == stream
        path.write_bytes(b"channel,timestamp_ps\n0,12345678901234567890\n")
        with pytest.raises(FormatError, match="^line 2: "):
            read_stream(path)

    def test_non_utf8_row_named_wherever_it_sits(self, tmp_path):
        # 30 rows sit in the first ~8 KiB the text reader decodes, 3,000 rows do not
        messages = []
        for n in (30, 3000):
            path = tmp_path / f"rows{n}.csv"
            rows = b"".join(b"0,%d\n" % k for k in range(1, n))
            path.write_bytes(b"# duration_ps=100000\nchannel,timestamp_ps\n" + rows + b"0,\xff\n")
            with pytest.raises(FormatError, match=f"^line {n + 2}: ") as err:
                read_stream(path)
            messages.append(str(err.value).replace(str(n + 2), "L").replace(str(n - 1), "N"))
        assert messages[0] == messages[1]

    def test_non_utf8_preamble_names_line_and_magic(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"# duration_ps=100\n# caf\xe9\nchannel,timestamp_ps\n0,5\n")
        with pytest.raises(FormatError, match="line 2: not UTF-8, and no b'NPTT' magic"):
            read_stream(path)

    @pytest.mark.parametrize("rows", [1, 3000])
    def test_non_utf8_comment_after_header_rejected(self, tmp_path, rows):
        path = tmp_path / "s.csv"
        body = b"".join(b"0,%d\n" % k for k in range(1, rows + 1))
        path.write_bytes(b"channel,timestamp_ps\n" + body + b"1,99999 # caf\xe9\r\n")
        with pytest.raises(FormatError, match=f"^line {rows + 2}: "):
            read_stream(path)

    @pytest.mark.parametrize(
        "text",
        [
            b"# duration_ps=100\rchannel,timestamp_ps\r0,5\r1,7\r",
            b"# duration_ps=100\r\nchannel,timestamp_ps\r\n0,5\n1,7\n",
            b"# duration_ps=100\r\nchannel,timestamp_ps\r\n0,5\r\n1,7\r\n",
        ],
        ids=["lone-cr", "crlf-preamble", "crlf"],
    )
    def test_cr_line_ends_match_oracle(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text)
        stream = TimeTagStream(np.array([5]), np.array([7]), 100)
        assert read_stream(path) == reference_read_csv(path) == stream


def every_width_stream(pad=0):
    """Stamps of every width from 1 to 19 digits, 0 and INT64_MAX included,
    some shared by both channels, and `pad` consecutive stamps that cross
    from 6 to 7 digits."""
    edges = [0, 9] + [v for d in range(2, 20) for v in (10 ** (d - 1), 10 ** (d - 1) + 7)]
    stamps = np.unique(np.array(edges + [INT64_MAX - 1, INT64_MAX], np.int64))
    run = 10**6 - pad // 2 + np.arange(pad, dtype=np.int64)
    det = np.union1d(stamps[::2], run)
    sync = np.union1d(stamps[1::2], stamps[::3])
    return TimeTagStream(det, sync, INT64_MAX, {"widths": "1-19"})


class TestCsvCodec:
    """The NumPy byte-block codec against the per-record writer and the
    loadtxt-only reader of `reference_impls`."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, None], ids=lambda c: f"chunk-{c or 'default'}")
    def test_writer_matches_per_record_oracle(self, tmp_path, monkeypatch, chunk):
        stream = every_width_stream(pad=3 * timetags._CSV_CHUNK if chunk is None else 200)
        if chunk is not None:
            monkeypatch.setattr(timetags, "_CSV_CHUNK", chunk)
        assert stream.detector_events.size + stream.sync_events.size > timetags._CSV_CHUNK
        write_stream_csv(stream, tmp_path / "blocks.csv")
        reference_write_csv(stream, tmp_path / "rows.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert read_stream(tmp_path / "blocks.csv") == stream

    @pytest.mark.parametrize("block", range(1, 48))
    def test_reader_blocks_match_oracle(self, tmp_path, monkeypatch, block):
        # every cut: inside a row, at a row's end, and where the width changes
        det = [0, 3, 9, 10, 11, 99, 100, 1000, 99_999, 10**6, INT64_MAX]
        sync = [9, 100, 10**6]
        stream = TimeTagStream(np.array(det), np.array(sync), INT64_MAX)
        path = tmp_path / "s.csv"
        write_stream_csv(stream, path)
        text = path.read_bytes()
        head = text.index(b"channel,timestamp_ps\n") + len(b"channel,timestamp_ps\n")
        channels, stamps = map(np.concatenate, timetags._rows(text[head:], 1)[:2])
        assert list(zip(stamps.tolist(), channels.tolist())) == sorted(
            [(t, 0) for t in det] + [(t, 1) for t in sync])
        # the same rows in the grammar's other forms: CRLF, comments, blank
        # lines, whitespace, '+' and leading zeros
        forms = [b"%b,%b\r\n", b" %b ,\t+%b # note\r\n\r\n", b"0%b,00%b\r\n# row\r\n"]
        other = tmp_path / "other.csv"
        other.write_bytes(text[:head] + b"".join(
            forms[k % 3] % tuple(row.split(b",")) for k, row in enumerate(text[head:].splitlines())))
        monkeypatch.setattr(timetags, "_CSV_BLOCK", block)
        assert read_stream(path) == read_stream(other) == reference_read_csv(other) == stream

    @pytest.mark.parametrize(
        "body",
        [
            b"0,5\r\n1,7\r\n",
            b"0,5\n\n1,7\n",
            b"0,5\n# note\n1,7\n",
            b"0,5 # note\n1,7\n",
            b"0, 5\n 1 ,7\n",
            b"0,\t5\n",
            b"0,+5\n",
            b"0,005\n1,7\n",
            b"01,5\n",
            b"0,5\n1,7",
            b"0,9223372036854775807\n",
            b"0,9223372036854775808\n",
            b"0,18446744073709551621\n",
            b"0,\n",
            b"0,5,7\n",
            b"0,5\n0,\xff\n",
            b"0,5\n" * 3000 + b"0,\xff\n",
            b"5,5\n",
            b"0,-5\n",
            b"0,200\n0,100\n",
            b"0,10\n0,5\n",
            b"",
        ],
        ids=["crlf", "blank-line", "comment-line", "inline-comment", "spaces", "tab", "plus-sign",
             "leading-zeros", "channel-01", "no-final-newline", "int64-max", "int64-max-plus-1",
             "2**64+5",
             "empty-field", "three-fields", "not-utf8", "not-utf8-after-8-KiB", "channel-5",
             "negative", "non-monotone", "width-decreases", "header-only"],
    )
    def test_edge_bodies_match_oracle(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_bytes(b"# duration_ps=9223372036854775807\nchannel,timestamp_ps\n" + body)
        try:
            expected = reference_read_csv(path)
        except (FormatError, StreamValidationError) as exc:
            with pytest.raises(type(exc)):
                read_stream(path)
        else:
            assert read_stream(path) == expected

    def test_negative_timestamp_named_without_duration(self, tmp_path):
        # the duration is inferred from the stamps, and a negative one is not a duration
        path = tmp_path / "s.csv"
        path.write_bytes(b"channel,timestamp_ps\n0,-5\n")
        with pytest.raises(StreamValidationError, match="detector_events must lie within"):
            read_stream(path)


@pytest.mark.parametrize("block", [1, 7, 64, None], ids=lambda b: f"block-{b or 'default'}")
def test_line_rule_reads_only_departing_lines(tmp_path, monkeypatch, block):
    # the writer's rows are summed in NumPy; a line in any other form is read by `_row`, once
    path = tmp_path / "writer.csv"
    write_stream_csv(every_width_stream(pad=200), path)
    head, body = path.read_bytes().split(b"channel,timestamp_ps\n")
    rows = body.splitlines()
    # a comment line and a blank line go in before rows 5 and 40; four rows are rewritten
    departing = [b"# note", b"", rows[80] + b" # inline", rows[120].replace(b",", b",+"),
                 rows[160].replace(b",", b", "), b"0" + rows[200]]
    rows[5], rows[40] = departing[0] + b"\n" + rows[5], departing[1] + b"\n" + rows[40]
    rows[80], rows[120], rows[160], rows[200] = departing[2:]
    edited = tmp_path / "edited.csv"
    edited.write_bytes(head + b"channel,timestamp_ps\n" + b"\n".join(rows) + b"\n")
    lines, row_rule = [], timetags._row

    def spy(line):
        lines.append(line)
        return row_rule(line)

    monkeypatch.setattr(timetags, "_row", spy)
    if block is not None:
        monkeypatch.setattr(timetags, "_CSV_BLOCK", block)
    for csv, read in [(path, []), (edited, departing)]:
        lines.clear()
        assert read_stream(csv) == reference_read_csv(csv)
        # the first call reads the `# duration_ps=` value
        assert lines[0] == b"0,%d" % INT64_MAX and sorted(lines[1:]) == sorted(read)


LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "lone-cr": b"\r"}
BLOCK_HEAD = b"# duration_ps=100000\nchannel,timestamp_ps\n"


def rows_with_ends(end: bytes, bad_at=None) -> bytes:
    """200 rows of growing width, each ended by `end`; the row `bad_at` (from 0) has an empty stamp."""
    return b"".join((b"0,%d" % (k * 37) if k != bad_at else b"0,") + end for k in range(1, 201))


class TestCsvBlocks:
    """Each block the reader hands to `_rows` ends at a line end of any kind."""

    @pytest.mark.parametrize("end", LINE_ENDS, ids=str)
    @pytest.mark.parametrize("block", [1, 2, 7, 63])
    def test_line_ends_read_equal_to_lf(self, tmp_path, monkeypatch, end, block):
        lf, other = tmp_path / "lf.csv", tmp_path / f"{end}.csv"
        lf.write_bytes(BLOCK_HEAD + rows_with_ends(b"\n"))
        other.write_bytes(BLOCK_HEAD + rows_with_ends(LINE_ENDS[end]))
        # a read of `block` bytes ends on the CR of a CRLF
        body = other.read_bytes()[len(BLOCK_HEAD):]
        assert end != "crlf" or any(body[k : k + 2] == b"\r\n" for k in range(block - 1, len(body), block))
        expected = read_stream(lf)
        monkeypatch.setattr(timetags, "_CSV_BLOCK", block)
        assert read_stream(other) == read_stream(lf) == expected

    @pytest.mark.parametrize("end", LINE_ENDS, ids=str)
    def test_block_is_at_most_a_read_and_a_line(self, tmp_path, monkeypatch, end):
        path = tmp_path / "s.csv"
        body = rows_with_ends(LINE_ENDS[end])
        path.write_bytes(BLOCK_HEAD + body)
        sizes, rows = [], timetags._rows

        def spy(block, first_line):
            sizes.append(len(block))
            return rows(block, first_line)

        monkeypatch.setattr(timetags, "_rows", spy)
        monkeypatch.setattr(timetags, "_CSV_BLOCK", 64)
        read_stream(path)
        longest = max(map(len, body.splitlines(keepends=True)))
        assert len(sizes) > 10 and max(sizes) <= 64 + longest

    @pytest.mark.parametrize("end", LINE_ENDS, ids=str)
    def test_refused_line_in_a_later_block_named(self, tmp_path, monkeypatch, end):
        path = tmp_path / "s.csv"
        path.write_bytes(BLOCK_HEAD + rows_with_ends(LINE_ENDS[end], bad_at=180))
        monkeypatch.setattr(timetags, "_CSV_BLOCK", 50)
        with pytest.raises(FormatError, match="^line 182: "):
            read_stream(path)


# the bytes a mutation inserts or writes over one byte: line ends, whitespace,
# the grammar's other bytes, bytes it refuses, a byte that is not UTF-8, a
# two-byte letter and U+00A0, a non-ASCII space
MUTATION_BYTES = [b"\r", b"\n", b" ", b"\t", b"\v", b"\x1c", b"#", b"+", b"-", b",", b".", b"x",
                  *(b"%d" % d for d in range(10)), b"\xff", "\u00e9".encode(), "\u00a0".encode()]


def split_lines(content: bytes):
    """The lines of a file as the reader splits them, at LF, CRLF and CR,
    and the index of its header line."""
    lines = list(io.StringIO(content.decode("utf-8", "surrogateescape"), newline=""))
    text = [line.strip() for line in lines]
    return lines, next((n for n, line in enumerate(text) if line and not line.startswith("#")), len(lines))


def departing_lines(content: bytes) -> set:
    """The lines (from 1) where loadtxt reads a U+00A0 as whitespace and the
    reader refuses it: in a `# duration_ps=` value, or in a body row."""
    lines, header = split_lines(content)
    values = [line.strip()[1:].strip().partition("duration_ps=") for line in lines[:header]]
    return {n + 1 for n, (head, _, value) in enumerate(values) if not head and "\u00a0" in value} | {
        n + 1 for n in range(header + 1, len(lines)) if "\u00a0" in lines[n].partition("#")[0]}


def first_refused_line(content: bytes) -> int:
    """The file line at which the body's prefix is first refused: by
    loadtxt, for a channel other than 0 or 1, as not UTF-8, or for
    departing from loadtxt."""
    lines, header = split_lines(content)
    departing = departing_lines(content)
    for k in range(header + 1, len(lines)):
        try:
            lines[k].encode("utf-8")
            if k + 1 in departing:
                return k + 1
            if not set(_load_int64(lines[header + 1 : k + 1], _CSV_ROW)["channel"].tolist()) <= {0, 1}:
                return k + 1
        except ValueError:  # UnicodeEncodeError included
            return k + 1
    raise AssertionError("no line of the body is refused")


@given(stream=streams(), block=st.integers(1, 64), mutations=st.lists(
    st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.floats(0, 1, exclude_max=True),
              st.sampled_from(MUTATION_BYTES)), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutated_files_match_oracle(tmp_path_factory, stream, block, mutations):
    path = tmp_path_factory.mktemp("tt") / "s.csv"
    write_stream_csv(stream, path)
    content = path.read_bytes()
    for op, where, item in mutations:
        at = int(where * len(content))
        cut = 0 if op == "insert" else 1
        content = content[:at] + (b"" if op == "delete" else item) + content[at + cut :]
    path.write_bytes(content)
    try:
        expected = reference_read_csv(path)
    except (FormatError, StreamValidationError) as exc:
        expected = exc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timetags, "_CSV_BLOCK", block)
        try:
            got = read_stream(path)
        except (FormatError, StreamValidationError) as exc:
            got = exc
    if departing_lines(content):
        assert isinstance(got, FormatError)
    elif isinstance(expected, Exception):
        assert type(got) is type(expected)
    else:
        assert got == expected
    # a refused body line; both readers refuse the preamble by the same rules
    line = re.match(r"line (\d+): (?!bad duration_ps|expected header|not UTF-8, and no)", str(got))
    if isinstance(got, FormatError) and line:
        assert int(line[1]) == first_refused_line(content)
