"""In-memory spans around the benchmark's calls into each layer.

A span records (name, start, end, parent, request id).  Spans live in a
list until the run ends and are written out in one piece, so tracing adds
no I/O to the measured region.  A layer is the first dotted component of a
span name (``system.run_workload`` belongs to ``system``); its *self time*
is the part of its spans' duration that no child span covers.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        # placeholder row, completed on exit: keeps span ids in start order
        tr.spans.append([self.name, 0.0, 0.0, parent, tr.request])
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        row = tr.spans[self.index]
        row[1] = self.start
        row[2] = end


class Tracer:
    """Span recorder; when disabled, :meth:`span` costs one branch."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.request: "str | None" = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def mark(self) -> int:
        """Position to slice the spans recorded after this call."""
        return len(self.spans)

    def durations(self, first: int, stop: int) -> dict[str, list[float]]:
        """Span name -> durations (s) of the spans ``first:stop``."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans[first:stop]:
            out[name].append(end - start)
        return out

    def self_times(self, first: int, stop: int) -> dict[str, float]:
        """Layer -> summed self time (s) of the spans ``first:stop``."""
        rows = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in rows[first:stop]:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, stop):
            name, start, end, _, _ = rows[i]
            out[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"id": i, "name": n, "start": s, "end": e, "parent": p,
                     "request": r}
                    for i, (n, s, e, p, r) in enumerate(self.spans)
                ],
                fh,
            )
