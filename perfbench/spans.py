"""In-memory spans and counts recorded around calls into regmc.

A span has a name, a start, an end, the span that was open when it started
(its parent) and the run id of the process that recorded it.  Spans stay in
memory and leave the process once, in the child's final result record.
With tracing off, ``span`` hands back one shared no-op context manager and
``count`` returns at once, so an untraced run pays one attribute test per
call.

The layer of a span is the part of its name before the first dot, which is
the regmc module whose public function the span wraps (``reach.post``).
"""

from __future__ import annotations

import contextlib
import time

# perf_counter is CLOCK_MONOTONIC on Linux, one timeline for every process
# on the machine, so a child can time itself from its parent's reading
clock = time.perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> _Span:
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)  # reserve the slot so ids follow start order
        tr.stack.append(self.index)
        self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = clock()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.index] = (self.name, self.start, self.end, self.parent)


class Tracer:
    """Records spans and counts when ``enabled``; otherwise does nothing."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[float]] = {}
        self._off = contextlib.nullcontext()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._off

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)

    def export(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": self.counts,
        }


def self_times(spans: list[dict], until: float) -> dict[str, float]:
    """Seconds of self time per layer, over spans that end by ``until``.

    A span's self time is its duration minus the part its child spans
    cover; children of one parent never overlap, because the child process
    is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["end"] <= until and sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    out: dict[str, float] = {}
    for sp, covered in zip(spans, child_time):
        if sp["end"] <= until:
            layer = sp["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + sp["end"] - sp["start"] - covered
    return out
