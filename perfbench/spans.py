"""Spans around the benchmark's calls into the package, and self-time sums.

A span records its name, start, end and the span that was open when it
began. Names are `<layer>.<operation>`; the layer is the package module the
call goes into (`simulation`, `timetags`, `analysis`, `circuit`, `presets`,
`config`, `cli`), `setup` for importing the package in the set-up probe, or
`bench` for the benchmark's own work. Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Untraced:
    """Same interface as Tracer, recording nothing: the end-to-end runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []   # closed spans, children before parents
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append(
                {"id": span_id, "name": name, "parent": parent, "start": start, "end": end}
            )

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, root_id=None, pauses=()) -> dict[str, float]:
        """Self time per span name, summed over the subtree of `root_id`
        (every span when None). Self time is a span's duration minus the
        durations of its children; one thread runs them one at a time, so
        children never overlap. `pauses` are (start, end) intervals of work
        that is not the span's own (the clock's reference loops, run from a
        timer signal); they are left out of every span they fall in."""
        in_tree = self._subtree(root_id)
        tree = [s for s in self.spans if in_tree is None or s["id"] in in_tree]
        duration = {s["id"]: _net(s["start"], s["end"], pauses) for s in tree}
        children: dict[int, float] = {}
        for s in tree:
            if s["parent"] in duration:
                children[s["parent"]] = children.get(s["parent"], 0.0) + duration[s["id"]]
        out: dict[str, float] = {}
        for s in tree:
            own = duration[s["id"]] - children.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def _subtree(self, root_id):
        if root_id is None:
            return None
        members = {root_id}
        # children close before their parent, so walk newest-first
        for s in reversed(self.spans):
            if s["parent"] in members:
                members.add(s["id"])
        return members

    def write(self, path, record: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"run": record, "spans": self.spans}, fh)


def _net(start: float, end: float, pauses) -> float:
    """end - start, less the parts of `pauses` inside [start, end]."""
    inside = sum(max(0.0, min(end, p_end) - max(start, p_start)) for p_start, p_end in pauses)
    return end - start - inside


def by_layer(self_times: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out
