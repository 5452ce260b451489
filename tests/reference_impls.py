"""Deliberately naive reference implementations of every analysis and of
the CSV time-tag codec.

Plain-Python scan-everything versions, kept structurally independent of the
vectorized streaming code so the two can be compared for exact equality.
"""

import json
import warnings

import numpy as np

from snspdsim.errors import FormatError
from snspdsim.timetags import _decode_metadata, _split_channels

_CSV_ROW = np.dtype([("channel", "<i8"), ("timestamp", "<i8")])


def naive_interarrival_histogram(events, bin_width_ps, max_time_ps):
    events = [int(e) for e in events]
    n_bins = (max_time_ps + bin_width_ps - 1) // bin_width_ps
    counts = [0] * n_bins
    total = 0
    for i in range(1, len(events)):
        gap = events[i] - events[i - 1]
        total += 1
        if gap < max_time_ps:
            counts[gap // bin_width_ps] += 1
    return counts, total


def naive_afterpulse_probability(events, window_ps=1_000_000):
    events = [int(e) for e in events]
    if not events:
        return None
    close = 0
    for i, t in enumerate(events):
        if i > 0 and t - events[i - 1] < window_ps:
            close += 1
    return close / len(events)


def naive_corrected_dcr(events, duration_ps, window_ps=1_000_000):
    events = [int(e) for e in events]
    duration_s = duration_ps * 1e-12
    total = len(events) / duration_s
    if len(events) < 2:
        return total, total
    close = 0
    for i, t in enumerate(events):
        if i > 0 and t - events[i - 1] < window_ps:
            close += 1
    return total, total * (1.0 - close / len(events))


def naive_classify_trains(events, gap_ps=1_000_000):
    events = [int(e) for e in events]
    counts = {n: 0 for n in range(1, 7)}
    i = 0
    while i < len(events):
        j = i
        while j + 1 < len(events) and events[j + 1] - events[j] < gap_ps:
            j += 1
        counts[min(j - i + 1, 6)] += 1
        i = j + 1
    return counts


def naive_conditional_histogram(detector, sync, duration_ps, window_ps, bin_ps):
    detector = [int(e) for e in detector]
    n_bins = (window_ps + bin_ps - 1) // bin_ps
    counts = [0] * n_bins
    total = 0
    start = 0
    for s in sync:
        s = int(s)
        if s + window_ps > duration_ps:
            continue
        while start < len(detector) and detector[start] < s:
            start += 1
        in_window = []
        k = start
        while k < len(detector) and detector[k] < s + window_ps:
            in_window.append(detector[k] - s)
            k += 1
        if not any(dt < bin_ps for dt in in_window):
            continue
        for dt in in_window:
            counts[dt // bin_ps] += 1
            total += 1
    return counts, total


def reference_write_csv(stream, path):
    """The CSV twin written one `"%d,%d\\n"` row per record, records sorted
    by (timestamp, channel)."""
    records = sorted([(int(t), 0) for t in stream.detector_events]
                     + [(int(t), 1) for t in stream.sync_events])
    with open(path, "w", newline="") as fh:
        fh.write(f"# duration_ps={stream.duration_ps}\n")
        if stream.metadata:
            fh.write("# metadata=" + json.dumps(stream.metadata, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write("channel,timestamp_ps\n")
        for stamp, channel in records:
            fh.write("%d,%d\n" % (channel, stamp))


def _load_int64(lines, dtype) -> np.ndarray:
    """Comma-separated int64 fields by NumPy's loadtxt rule."""
    with warnings.catch_warnings():
        # a header-only file is an empty stream, not a suspicious one
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # older NumPy parses "5.7" or a 20-digit integer as a float, truncates it
        # and only warns; as an error the warning becomes loadtxt's ValueError
        warnings.filterwarnings("error", category=DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1)


def reference_read_csv(path):
    """The CSV twin read with NumPy's loadtxt rule alone, from the text file;
    a body that is not UTF-8 is a FormatError, as in `read_stream`."""
    duration_ps = None
    metadata = {}
    try:
        with open(path, "r", newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
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
                        raise FormatError(f"line {lineno}: expected header 'channel,timestamp_ps'")
                    break
            else:
                raise FormatError("missing 'channel,timestamp_ps' header line")
            try:
                rows = _load_int64(fh, _CSV_ROW)
            except ValueError as exc:
                raise FormatError(str(exc)) from None
    except UnicodeDecodeError:
        raise FormatError("not a CSV time-tag file") from None
    stamps = rows["timestamp"]
    if duration_ps is None:
        duration_ps = max(int(stamps.max()), 0) if stamps.size else 0
    return _split_channels(rows["channel"], stamps, duration_ps, metadata)
