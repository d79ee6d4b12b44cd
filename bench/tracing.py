"""In-memory spans recorded by the benchmark around its calls into affseg.

A span is (name, parent index, start, end).  The part of a span's name
before the first dot is its layer: ``zwatershed.zwatershed`` belongs to
the ``zwatershed`` layer, ``bench.block`` to the benchmark's own glue.
One ``Tracer`` holds the spans of one pass, so spans of a pass share it
as their identifier.  The program itself carries no instrumentation: a
layer's time is only what the benchmark sees from outside its public
functions, and ``unionfind`` (called only from inside other layers) never
appears.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, float]:
        """Seconds per span name, summed over the pass."""
        out: dict[str, float] = defaultdict(float)
        for name, _, t0, t1 in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span counting its duration minus the
        part covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (t1 - t0) - c
        return dict(out)


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
