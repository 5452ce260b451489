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
so the text form round-trips too; later `#` lines are comments. A malformed
file raises `FormatError`, a broken stream invariant `StreamValidationError`.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings

import numpy as np

from .errors import FormatError, StreamValidationError
from .simulation import TimeTagStream

MAGIC = b"NPTT"
VERSION = 1
CHANNEL_DETECTOR = 0
CHANNEL_SYNC = 1

_HEADER = struct.Struct("<4sIIQQI32s")
_RECORD = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
HEADER_SIZE = _HEADER.size  # 64

_CSV_ROW = np.dtype([("channel", "<i8"), ("timestamp", "<i8")])
# records formatted per string-format call; bounds the text held in memory
_CSV_CHUNK = 65_536


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
    with open(path, "w", newline="") as fh:
        fh.write(f"# duration_ps={stream.duration_ps}\n")
        if meta:
            fh.write("# metadata=" + meta.decode("utf-8") + "\n")
        fh.write("channel,timestamp_ps\n")
        for start in range(0, records.size, _CSV_CHUNK):
            chunk = records[start : start + _CSV_CHUNK]
            pairs = np.column_stack((chunk["channel"], chunk["timestamp"])).ravel().tolist()
            fh.write("%d,%d\n" * chunk.size % tuple(pairs))


def read_stream(path) -> TimeTagStream:
    """Read either encoding back; the binary magic selects the parser."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _read_binary(path)
    try:
        return _read_csv(path)
    except UnicodeDecodeError:
        raise FormatError(
            f"bad magic {head!r} (expected {MAGIC!r}) and not a CSV time-tag file"
        ) from None


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
    try:
        return TimeTagStream(
            stamps[channels == CHANNEL_DETECTOR],
            stamps[channels == CHANNEL_SYNC],
            duration_ps,
            metadata,
        )
    except ValueError as exc:
        raise StreamValidationError(str(exc)) from None


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


def _read_csv(path) -> TimeTagStream:
    duration_ps = None
    metadata: dict = {}
    with open(path, "r", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("duration_ps="):
                    try:
                        duration_ps = int(body.split("=", 1)[1])
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
        try:
            with warnings.catch_warnings():
                # a header-only file is an empty stream, not a suspicious one
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # older NumPy parses "5.7" or a 20-digit integer as a float, truncates it
                # and only warns; as an error the warning becomes loadtxt's ValueError
                warnings.filterwarnings("error", category=DeprecationWarning)
                rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", ndmin=1)
        except ValueError as exc:
            msg = f"line {lineno} is the header; rows are counted after it: {exc}"
            raise FormatError(msg) from None
    stamps = rows["timestamp"]
    if duration_ps is None:
        duration_ps = int(stamps.max()) if stamps.size else 0
    return _split_channels(rows["channel"], stamps, duration_ps, metadata)
