"""In-memory spans and counters recorded around calls into hypolab's layers.

A span is ``[layer, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory while the traced run executes
and are written out once it ends.  A call into a layer that is already the
innermost open span records no new span, so a layer's recursion or its
internal calls between its own entry points cost one span, not thousands.

This module imports nothing from hypolab: the driver and the tests use it
on recorded or synthetic spans.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans and counters; single-threaded (runs use ``--workers 1``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        if self._stack and self.spans[self._stack[-1]][0] == layer:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        record = [layer, self.clock(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, layer: str, fn, count=None):
        """``fn`` traced as ``layer``; ``count(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus what its children cover."""
    children = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (layer, start, end, _) in enumerate(spans):
        out[layer] += (end - start) - _covered(children.get(i, ()), start, end)
    return dict(out)
