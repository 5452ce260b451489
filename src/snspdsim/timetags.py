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
so the text form round-trips too. The reader's grammar, for a UTF-8 file: a
line ends at LF, CRLF or a lone CR, and `#` starts a comment that runs to the
line end. A body line that is empty once its comment is cut is skipped; each
other one is a row of two fields split by a comma, the channel (0 or 1) and
the stamp (an int64). A field is optional whitespace, an optional `+` or `-`,
digits and optional whitespace; whitespace is space, tab, `\v`, `\f` and
`\x1c`-`\x1f`. So a line of whitespace alone (`"  "`, `"  # c"`), an empty
field, `5.7`, `1e3`, `1_000`, `- 5`, `5 6` and `\x00` are refused, and so is
whitespace beyond ASCII (U+00A0, U+2003): the one departure from NumPy's
loadtxt, which reads it as whitespace. The `# duration_ps=` value reads as a
stamp. The first refused line raises a `FormatError` that names it; a broken
stream invariant raises `StreamValidationError`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
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
_LF, _CR = ord("\n"), ord("\r")
# the bytes of a field (digits and signs), and those that stand for a line's
# edge in the reader's cut (a line end, a cut byte, 0 for the block's start)
_FIELD, _EDGE = np.zeros((2, 256), bool)
_FIELD[list(b"+-0123456789")], _EDGE[[0, _LF, _CR]] = True, True
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


def _rows(block, minus=None):
    """The channel and stamp arrays of `block`'s lines, or None if the grammar refuses one.
    A `block` with `minus` (where a '-' stood) is one `_cut` has cut to the writer's form."""
    tokens = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(tokens == _LF)
    widths, digit = np.diff(ends, prepend=-1), tokens - ord("0")  # a non-digit wraps above 9
    commas, cols, layout = ends - widths + 2, 1, widths  # the writer's rows: one channel digit
    if minus is not None:  # a cut block's rows: the digits before each comma, and the run key
        commas = np.flatnonzero(tokens == ord(","))
        cols = commas - ends + widths - 1 if commas.size == ends.size else 0
        layout = widths << 32 | cols
    if not (np.count_nonzero(digit > 9) == 2 * ends.size and np.all(widths > cols + 2) and np.all(cols > 0)
            and np.all(tokens[commas] == ord(","))):  # each row a digit run, a comma and a digit run
        return None if minus is not None else _rows(*_cut(block))
    # a '-' stands first in the field it negates
    neg = np.zeros((2, ends.size), bool) if minus is None else np.stack((minus[commas - cols], minus[commas + 1]))
    runs = [0, *(np.flatnonzero(layout[1:] != layout[:-1]) + 1).tolist(), ends.size] if ends.size else []
    channels, stamps = [], []
    for lo, hi in zip(runs, runs[1:]):  # runs of rows of one layout, summed a digit column at a time
        width, c = int(widths[lo]), int(commas[lo] - ends[lo] + widths[lo] - 1)
        rows = digit[ends[lo] - width + 1 : ends[hi - 1] + 1].reshape(hi - lo, width)
        channel, stamp = _field(rows[:, :c], neg[0, lo:hi]), _field(rows[:, c + 1 : -1], neg[1, lo:hi])
        if channel is None or stamp is None or channel.view(np.uint64).max(initial=0) > 1:
            return None
        channels.append(channel.astype(np.uint8))
        stamps.append(stamp)
    return channels, stamps


def _field(cols, neg):
    """The int64 values of digit columns `cols`, a field a row, negated where `neg`; None if one overflows."""
    lead = max(cols.shape[1] - 19, 0)  # 19 digits never overflow uint64
    value = cols[:, lead].astype(np.uint64)
    for column in range(lead + 1, cols.shape[1]):
        value *= 10
        value += cols[:, column]
    if value.max(initial=0) > INT64_MAX and np.any(value > np.uint64(INT64_MAX) + neg) or cols[:, :lead].any():
        return None
    return np.negative(value, out=value, where=neg).view(np.int64)


def _cut(block: bytes):
    """A block cut to digits, commas and line ends, a sign that starts a field a 0, and where a '-' stood."""
    # a block's line ends are LFs, so a byte set to CR is cut; a byte the
    # grammar refuses stays, for `_rows` to refuse
    raw = np.frombuffer(block, np.uint8).copy()
    lf = np.flatnonzero(raw == _LF)
    # a comment runs from the first '#' of a line to the line end; in a block
    # that is not UTF-8 none is cut, so `_rows` refuses the block
    utf8 = b"#" in block and (block.isascii() or block.decode("utf-8", "replace").encode("utf-8") == block)
    hashes = np.flatnonzero(raw == ord("#")) if utf8 else lf[:0]
    stops, first = np.unique(lf[np.searchsorted(lf, hashes)], return_index=True)
    n = stops - hashes[first]
    raw[np.arange(n.sum()) + np.repeat(stops - np.cumsum(n), n)] = _CR
    starts = np.append(0, lf[:-1] + 1)
    raw[lf[(raw[starts] == _LF) | (raw[starts] == _CR)]] = _CR  # a blank line
    # a whitespace run is cut unless it stands inside a field or alone in a line
    at = np.flatnonzero((raw == ord(" ")) | (raw == ord("\t")) | (raw - 11 < 2) | (raw - 28 < 4))
    lo, hi = at[np.diff(at, prepend=-2) > 1], at[np.diff(at, append=raw.size + 1) > 1]
    before, after = raw[lo - 1] * (lo > 0), raw[hi + 1]
    stays = _FIELD[before] & _FIELD[after] | _EDGE[before] & _EDGE[after]
    raw[at[~np.repeat(stays, hi - lo + 1)]] = _CR
    tokens = np.frombuffer(bytearray(raw.tobytes().translate(None, b"\r")), np.uint8)
    minus, signs = tokens == ord("-"), np.flatnonzero((tokens == ord("+")) | (tokens == ord("-")))
    tokens[signs[~_FIELD[tokens[signs - 1] * (signs > 0)] & (tokens[signs + 1] - ord("0") < 10)]] = ord("0")
    return tokens, minus


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
                    if (rows := _rows(b"0,%s\n" % body.split("=", 1)[1].encode("utf-8"))) is None:
                        raise FormatError(f"line {lineno}: bad duration_ps")
                    duration_ps = int(rows[1][0][0])
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
        for n_before, block in enumerate(_blocks(fh)):
            if b"\r" in block:  # every line end an LF, once
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if (rows := _rows(block)) is None:
                # the first refused line ends the shortest refused run of the block's lines
                lines = block.splitlines(keepends=True)
                k = bisect.bisect(range(len(lines)), False, key=lambda k: _rows(b"".join(lines[: k + 1])) is None)
                fh.seek(offset)  # the lines of the blocks before, read again
                lineno += sum(len(before.splitlines()) for _, before in zip(range(n_before), _blocks(fh)))
                raise FormatError(
                    f"line {lineno + k + 1}: {lines[k]!r} is not a row: a channel of 0 or 1, a comma, an int64")
            channels += rows[0]
            stamps += rows[1]
    channels, stamps = np.concatenate(channels), np.concatenate(stamps)
    if duration_ps is None:
        # never negative: a negative stamp is then named by TimeTagStream
        duration_ps = max(int(stamps.max()), 0) if stamps.size else 0
    return _split_channels(channels, stamps, duration_ps, metadata)
