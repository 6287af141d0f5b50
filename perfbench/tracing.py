"""In-memory spans recorded around calls into the program's layers.

The benchmark measures every layer from outside: it wraps each call into a
layer's public function in a span and never reaches into ``src/``.  A span
holds its name, start, end, the index of the span that was open when it
began (its parent) and the id of the root span (setup or pass) it belongs
to.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the part covered by its
child spans.  The untraced run uses :data:`NO_TRACE`, whose ``span`` is a
shared no-op context, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    root: int


class Tracer:
    """Records nested spans; one root span per setup or pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        record = Span(name, time.perf_counter(), 0.0, parent, root)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def roots(self, name: str) -> list[int]:
        """Indices of the root spans called ``name``, in order."""
        return [
            i for i, s in enumerate(self.spans) if s.parent is None and s.name == name
        ]

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name within one root span (root included)."""
        members = [i for i, s in enumerate(self.spans) if s.root == root]
        child_time = dict.fromkeys(members, 0.0)
        for i in members:
            span = self.spans[i]
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for i in members:
            span = self.spans[i]
            own = (span.end - span.start) - child_time[i]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in start order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "root": s.root,
            }
            for s in self.spans
        ]


class _NoTrace:
    """Tracer stand-in for untraced runs: spans cost one shared no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()
