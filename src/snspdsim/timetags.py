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
so the text form round-trips too. A line ends at LF, CRLF or a lone CR, and
the reader's grammar is one line rule, `_LINE` as `_row` applies it: a body
line must be UTF-8, and `#` starts a comment that runs to the line end. A
line that is empty once its comment is cut is skipped; each other one is a
row of two fields split by a comma, the channel (0 or 1) and the stamp (an
int64). A field is optional whitespace, an optional `+` or `-`, digits and
optional whitespace; whitespace is space, tab, `\v`, `\f` and `\x1c`-`\x1f`.
So a line of whitespace alone (`"  "`, `"  # c"`), an empty field, `5.7`,
`1e3`, `1_000`, `- 5`, `5 6` and `\x00` are refused, and so is whitespace
beyond ASCII (U+00A0, U+2003): the one departure from NumPy's loadtxt, which
reads it as whitespace. The `# duration_ps=` value reads as a stamp. Runs of
the writer's rows (`channel,stamp` and LF, up to 19 digits) are summed in
NumPy a digit column at a time; any other line costs one Python call of the
line rule (about 2 us). The first refused line raises a `FormatError` that
names it; a broken stream invariant raises `StreamValidationError`.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct

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

# records per writer slice: bounds the text held in memory, and a slice's
# digit arrays stay in cache
_CSV_CHUNK = 16_384
# body bytes per reader read (a block ends at its last line end): bounds the
# text held in memory beside the parsed rows
_CSV_BLOCK = 1 << 20
# the line rule of the module docstring for a body line once its comment is
# cut; leading zeros are matched apart, so that at most 19 digits reach int()
_LINE = re.compile(b",".join([rb"[ \t\v\f\x1c-\x1f]*([+-]?)0*([0-9]{1,19})[ \t\v\f\x1c-\x1f]*"] * 2))
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
    stamps = np.concatenate([det, stream.sync_events])
    # each channel is sorted, so a stable sort merges two runs and keeps a
    # detector record before a sync record of the same stamp
    order = np.argsort(stamps, kind="stable")
    records = np.empty(order.size, _RECORD)
    records["channel"] = order >= det.size
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
    channels = np.ascontiguousarray(channels)
    if channels.size and (channels.min() < 0 or channels.max() > 1):
        bad = np.flatnonzero((channels < 0) | (channels > 1))[0]
        raise FormatError(f"record {bad}: channel {channels[bad]} is not 0 or 1")
    back = stamps[1:] < stamps[:-1]
    if back.any():
        idx = int(np.argmax(back)) + 1
        raise StreamValidationError(
            f"record {idx}: timestamp {stamps[idx]} breaks file-order monotonicity"
        )
    sync = channels == CHANNEL_SYNC
    return TimeTagStream(stamps[~sync], stamps[sync], duration_ps, metadata)


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


def _row(line: bytes):
    """The channel and stamp of a body line without its line end, or None for one
    that is empty once its comment is cut; a ValueError if the grammar refuses it."""
    line.decode("utf-8")  # a UnicodeDecodeError is a ValueError
    if not (body := line.partition(b"#")[0]):
        return None
    if (fields := _LINE.fullmatch(body)) is None:
        raise ValueError(line)
    channel, stamp = int(fields[1] + fields[2]), int(fields[3] + fields[4])
    if channel not in (0, 1) or not -INT64_MAX - 1 <= stamp <= INT64_MAX:
        raise ValueError(line)
    return channel, stamp


def _rows(block, first_line):
    """The channel and stamp arrays of `block`'s rows, and its line count; its lines
    end in LF, and the first is file line `first_line`."""
    tokens = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(tokens == ord("\n"))
    widths, digit = np.diff(ends, prepend=-1), tokens - ord("0")  # a non-digit wraps above 9
    starts = ends - widths + 1
    # the writer's rows: a digit, a comma and digits, so two non-digits a line
    writer = tokens[np.minimum(starts + 1, ends)] == ord(",")
    if not (np.count_nonzero(digit > 9) == 2 * ends.size and writer.all()):
        writer &= np.add.reduceat(digit > 9, starts, dtype=np.intp) == 2
    layout = np.where(writer, widths, 0)
    runs = [0, *(np.flatnonzero(layout[1:] != layout[:-1]) + 1).tolist(), ends.size]
    channels, stamps = [], []
    for lo, hi in zip(runs, runs[1:]):
        if 3 < (width := int(layout[lo])) < 23:  # writer's rows of 1-19 digits, summed a digit column at a time
            rows = digit[starts[lo] : ends[hi - 1] + 1].reshape(hi - lo, width)
            stamp = rows[:, 2].astype(np.uint64)
            for column in range(3, width - 1):
                stamp *= 10
                stamp += rows[:, column]
            if rows[:, 0].max() <= 1 and stamp.max() <= INT64_MAX:
                channels.append(rows[:, 0].copy())  # not a view that holds the block's digits
                stamps.append(stamp.view(np.int64))
                continue
        read = []  # any other line, or a run holding a line the line rule refuses
        for k in range(lo, hi):
            try:
                if (row := _row(block[starts[k] : ends[k]])) is not None:
                    read.append(row)
            except ValueError:
                raise FormatError(f"line {first_line + k}: {block[starts[k] : ends[k] + 1]!r} is not a row: "
                                  "a channel of 0 or 1, a comma, an int64") from None
        read = np.array(read, np.int64).reshape(-1, 2)
        channels.append(read[:, 0].astype(np.uint8))
        stamps.append(read[:, 1])
    return channels, stamps, ends.size


def _blocks(fh):
    """The rest of binary `fh` in blocks, each ending at a read's last line end; a CR at the read's edge is read
    again with the next read, so a CRLF stays whole. A last line without a line end gets an LF."""
    block = b""
    while data := fh.read(_CSV_BLOCK):
        block += data
        end = block.rfind(b"\n") + 1
        end = block.rfind(b"\r", end, -1) + 1 or end
        if end:
            fh.seek(end - len(block), 1)
            yield block[:end]
            block = b""
    if block:
        yield block if block.endswith(b"\r") else block + b"\n"


def _read_csv(path) -> TimeTagStream:
    duration_ps, metadata = None, {}
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
                if body.startswith("duration_ps="):  # the value reads as a stamp
                    try:
                        duration_ps = _row(b"0," + body.split("=", 1)[1].encode("utf-8"))[1]
                    except ValueError:
                        raise FormatError(f"line {lineno}: bad duration_ps") from None
                elif body.startswith("metadata="):
                    metadata = _decode_metadata(body.split("=", 1)[1].encode("utf-8"))
            elif line:
                if line.replace(" ", "") != "channel,timestamp_ps":
                    raise FormatError(f"line {lineno}: expected header 'channel,timestamp_ps'")
                break
        else:
            raise FormatError("missing 'channel,timestamp_ps' header line")
    channels, stamps = [np.empty(0, np.uint8)], [np.empty(0, np.int64)]
    with open(path, "rb") as fh:
        fh.seek(offset)
        for block in _blocks(fh):
            if b"\r" in block:  # every line end an LF, once
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            block_channels, block_stamps, lines = _rows(block, lineno + 1)
            channels += block_channels
            stamps += block_stamps
            lineno += lines
    channels, stamps = np.concatenate(channels), np.concatenate(stamps)
    if duration_ps is None:
        # never negative: a negative stamp is then named by TimeTagStream
        duration_ps = max(int(stamps.max()), 0) if stamps.size else 0
    return _split_channels(channels, stamps, duration_ps, metadata)
