"""Time-tag persistence: canonical binary format and a CSV twin.

Binary layout (little-endian), 64-byte fixed header followed by an optional
metadata block and the records:

    magic          4 bytes   b"NPTT"
    version        u32       currently 1
    channel_count  u32       2 (0 = detector, 1 = sync)
    record_count   u64
    duration_ps    u64
    meta_len       u32       length of the canonical-JSON metadata block
    meta_digest    32 bytes  SHA-256 of the metadata block
    metadata       meta_len bytes (UTF-8 canonical JSON, omitted when empty)
    records        record_count * (channel u8, timestamp_ps u64)

The records are one packed NumPy dtype, `_RECORD` (9 bytes), sorted by
(timestamp, channel), so encoding a given stream is canonical: the same
stream always produces the same bytes. An empty stream with empty metadata
is exactly the 64-byte header.

The CSV twin has the schema `channel,timestamp_ps` with a one-line header;
run duration and metadata ride along in `#`-comment lines before the header
so the text form round-trips too; later `#` lines are comments. The writer
builds its rows as NumPy byte blocks. A body in the writer's own form (rows
`[0-9],[0-9]{1,19}\n`, no stamp with a leading zero, rows never shorter
than the one before) is parsed in NumPy blocks; every other body goes through NumPy's
`loadtxt` rule unchanged, which reads a writer-form body to the same rows,
so the set of accepted files is the same. A malformed file raises
`FormatError`, a broken stream invariant `StreamValidationError`. A byte
that is not UTF-8 raises a `FormatError` naming its line or row.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import struct
import warnings

import numpy as np

from .errors import FormatError, StreamValidationError
from .simulation import INT64_MAX, TimeTagStream

MAGIC = b"NPTT"
VERSION = 1
CHANNEL_DETECTOR = 0
CHANNEL_SYNC = 1

_HEADER = struct.Struct("<4sIIQQI32s")
_RECORD = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
HEADER_SIZE = _HEADER.size  # 64

_CSV_ROW = np.dtype([("channel", "<i8"), ("timestamp", "<i8")])
# records per writer slice: bounds the text held in memory, and a slice's
# digit arrays stay in cache
_CSV_CHUNK = 16_384
# body bytes per reader block (then completed to its line's end): bounds
# the text held in memory beside the parsed rows
_CSV_BLOCK = 1 << 20
# the longest row the writer makes: channel digit, comma, 19 digits, newline
_CSV_LINE_MAX = 22
# the first stamp of each digit count from 2 to 19: 10, 100, ..., 10**18
_POW10 = 10 ** np.arange(1, 19, dtype=np.uint64)
# _DIGITS4[n] holds the four ASCII digits of n, leading zeros included, as
# the bytes of one uint32
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32)[:, 0]


def _canonical_metadata(metadata: dict) -> bytes:
    if not metadata:
        return b""
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _decode_metadata(raw: bytes) -> dict:
    """The metadata block of either encoding: UTF-8 JSON holding one object."""
    try:
        metadata = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"metadata is not UTF-8 JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise FormatError(f"metadata is a JSON {type(metadata).__name__}, not an object")
    return metadata


def _merged_records(stream: TimeTagStream) -> np.ndarray:
    """All records as a `_RECORD` array sorted by (timestamp, channel)."""
    det = stream.detector_events
    syn = stream.sync_events
    channels = np.concatenate([np.zeros(det.size, np.uint8), np.ones(syn.size, np.uint8)])
    stamps = np.concatenate([det, syn])
    order = np.lexsort((channels, stamps))
    records = np.empty(order.size, _RECORD)
    records["channel"] = channels[order]
    records["timestamp"] = stamps[order]
    return records


def write_stream(stream: TimeTagStream, path) -> None:
    """Canonical binary encoding; identical streams give identical bytes."""
    meta = _canonical_metadata(stream.metadata)
    records = _merged_records(stream)
    with open(path, "wb") as fh:
        header = (MAGIC, VERSION, 2, records.size, stream.duration_ps, len(meta))
        fh.write(_HEADER.pack(*header, hashlib.sha256(meta).digest()))
        fh.write(meta)
        records.tofile(fh)


def write_stream_csv(stream: TimeTagStream, path) -> None:
    """CSV twin of the binary format (see module docstring)."""
    meta = _canonical_metadata(stream.metadata)
    records = _merged_records(stream)
    with open(path, "wb") as fh:
        fh.write(b"# duration_ps=%d\n" % stream.duration_ps)
        if meta:
            fh.write(b"# metadata=" + meta + b"\n")
        fh.write(b"channel,timestamp_ps\n")
        for start in range(0, records.size, _CSV_CHUNK):
            chunk = records[start : start + _CSV_CHUNK]
            stamps = np.ascontiguousarray(chunk["timestamp"])
            # stamps are sorted, so the rows of each digit count are one run
            edges = [0, *np.searchsorted(stamps, _POW10).tolist(), chunk.size]
            for digits, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
                if lo < hi:
                    fh.write(_csv_rows(chunk["channel"][lo:hi], stamps[lo:hi], digits))


def _csv_rows(channels, stamps, digits) -> np.ndarray:
    """The text rows `channel,stamp\\n` of stamps that all have `digits`
    digits, as a uint8 array with one row per line."""
    limbs = -(-digits // 4)
    text = np.empty((stamps.size, limbs), np.uint32)  # four digits each, most significant first
    for i in range(limbs - 1, -1, -1):
        high = stamps // 10_000
        text[:, i] = _DIGITS4[stamps - high * 10_000]
        stamps = high
    rows = np.empty((text.shape[0], digits + 3), np.uint8)
    rows[:, 0] = channels + ord("0")
    rows[:, 1] = ord(",")
    rows[:, 2:-1] = text.view(np.uint8)[:, 4 * limbs - digits :]
    rows[:, -1] = ord("\n")
    return rows


def read_stream(path) -> TimeTagStream:
    """Read either encoding back; the binary magic selects the parser."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return _read_binary(path) if head == MAGIC else _read_csv(path)


def _split_channels(channels, stamps, duration_ps, metadata) -> TimeTagStream:
    """Check what only a file can get wrong (channel numbers, file order);
    `TimeTagStream` checks the stream invariants."""
    bad = np.nonzero((channels < 0) | (channels > 1))[0]
    if bad.size:
        raise FormatError(f"record {bad[0]}: channel {channels[bad[0]]} is not 0 or 1")
    back = np.nonzero(np.diff(stamps) < 0)[0]
    if back.size:
        idx = int(back[0]) + 1
        raise StreamValidationError(
            f"record {idx}: timestamp {stamps[idx]} breaks file-order monotonicity"
        )
    return TimeTagStream(
        stamps[channels == CHANNEL_DETECTOR], stamps[channels == CHANNEL_SYNC], duration_ps, metadata
    )


def _read_binary(path) -> TimeTagStream:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"file too short for a {HEADER_SIZE}-byte header")
    magic, version, channel_count, n_records, duration_ps, meta_len, digest = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    if channel_count != 2:
        raise FormatError(f"unsupported channel count {channel_count}")
    meta_end = HEADER_SIZE + meta_len
    expected = meta_end + n_records * _RECORD.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"file size {len(raw)} does not match header (expected {expected})"
        )
    meta_bytes = raw[HEADER_SIZE:meta_end]
    if hashlib.sha256(meta_bytes).digest() != digest:
        raise FormatError("metadata digest mismatch")
    metadata = _decode_metadata(meta_bytes) if meta_len else {}
    records = np.frombuffer(raw, _RECORD, offset=meta_end)
    stamps = records["timestamp"].astype(np.int64)
    return _split_channels(records["channel"], stamps, int(duration_ps), metadata)


def _load_int64(lines, dtype) -> np.ndarray:
    """Comma-separated int64 fields by NumPy: the CSV twin's one integer rule."""
    with warnings.catch_warnings():
        # a header-only file is an empty stream, not a suspicious one
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # older NumPy parses "5.7" or a 20-digit integer as a float, truncates it
        # and only warns; as an error the warning becomes loadtxt's ValueError
        warnings.filterwarnings("error", category=DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1)


def _writer_rows(path, offset):
    """Channels and stamps of the CSV body that starts at byte `offset`, or
    None when a block of it is not in the writer's own form: rows
    `[0-9],[0-9]{1,19}\\n`, no stamp with a leading zero or above INT64_MAX,
    and rows that never get shorter (stamps in file order never do)."""
    channels, stamps = [np.empty(0, np.uint8)], [np.empty(0, np.uint64)]
    width = 4  # the shortest row, "0,0\n"
    with open(path, "rb") as fh:
        fh.seek(offset)
        while block := fh.read(_CSV_BLOCK) + fh.readline(_CSV_LINE_MAX):
            if block[-1] != ord("\n"):
                return None  # a row too long, or no final newline
            raw = np.frombuffer(block, np.uint8)
            digit = raw - ord("0")  # a digit is 0..9; every other byte wraps above 9
            ends = np.flatnonzero(raw == ord("\n"))
            widths = np.diff(ends, prepend=-1)
            starts = ends - widths + 1
            if (
                widths[0] < width
                or widths[-1] > _CSV_LINE_MAX
                or np.any(np.diff(widths) < 0)
                # the newlines and one comma per row are the only non-digits
                or np.count_nonzero(digit > 9) != 2 * ends.size
                or np.any(raw[starts + 1] != ord(","))
                or np.any((digit[starts + 2] == 0) & (widths > 4))
            ):
                return None
            width = int(widths[-1])
            runs = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), ends.size]
            for lo, hi in zip(runs, runs[1:]):
                w = int(widths[lo])
                rows = digit[starts[lo] : starts[lo] + (hi - lo) * w].reshape(hi - lo, w)
                value = rows[:, 2].astype(np.uint64)
                for column in range(3, w - 1):
                    value *= 10
                    value += rows[:, column]
                if value.max() > INT64_MAX:
                    return None
                channels.append(rows[:, 0].copy())  # not a view that keeps the block alive
                stamps.append(value)
    return np.concatenate(channels), np.concatenate(stamps).view(np.int64)


def _row_line(path, header_line: int, exc: ValueError):
    """The file line of the row that loadtxt's error names, or None. loadtxt
    counts rows after the header from 0 (from 1 in a wrong-field-count
    error), skipping each line that is empty once its comment is cut."""
    match = re.search(r"at row (\d+)", str(exc))
    if match is None:
        return None
    row = int(match[1]) - ("columns" in str(exc))
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        lines = itertools.islice(enumerate(fh, start=1), header_line, None)
        rows = (n for n, line in lines if line.partition("#")[0].rstrip("\r\n"))
        return next(itertools.islice(rows, row, None), None)


def _read_csv(path) -> TimeTagStream:
    duration_ps = None
    metadata: dict = {}
    # a byte that is not UTF-8 turns up as a surrogate in its own line
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        offset = 0  # bytes of the lines read so far
        for lineno, line in enumerate(fh, start=1):
            try:
                offset += len(line.encode("utf-8"))
            except UnicodeEncodeError:
                raise FormatError(f"line {lineno}: not UTF-8, and no {MAGIC!r} magic") from None
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("duration_ps="):
                    try:
                        (duration_ps,) = _load_int64([body.split("=", 1)[1]], np.int64).tolist()
                    except ValueError:
                        raise FormatError(f"line {lineno}: bad duration_ps") from None
                elif body.startswith("metadata="):
                    metadata = _decode_metadata(body.split("=", 1)[1].encode("utf-8"))
            elif line:
                if line.replace(" ", "") != "channel,timestamp_ps":
                    raise FormatError(
                        f"line {lineno}: expected header 'channel,timestamp_ps'"
                    )
                break
        else:
            raise FormatError("missing 'channel,timestamp_ps' header line")
        rows = _writer_rows(path, offset)
        if rows is None:
            # every other body: NumPy's rule, from the line after the header
            try:
                table = _load_int64(fh, _CSV_ROW)
            except ValueError as exc:
                row_line = _row_line(path, lineno, exc)
                where = f"line {row_line}" if row_line else f"after line {lineno}"
                raise FormatError(f"{where}: {exc}") from None
            # a byte that is not UTF-8 in a field fails above, one in a comment here;
            # blocks end at a newline, which no multi-byte character contains
            with open(path, "rb") as raw:
                raw.seek(offset)
                while block := raw.read(_CSV_BLOCK) + raw.readline():
                    try:
                        block.decode("utf-8")
                    except UnicodeDecodeError:
                        raise FormatError(f"a comment after line {lineno} is not UTF-8") from None
            rows = table["channel"], table["timestamp"]
    channels, stamps = rows
    if duration_ps is None:
        # never negative: a negative stamp is then named by TimeTagStream
        duration_ps = max(int(stamps.max()), 0) if stamps.size else 0
    return _split_channels(channels, stamps, duration_ps, metadata)
