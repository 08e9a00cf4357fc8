"""Spans and counts recorded around calls into anonatom's layers.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``op`` the operation it belongs
to, as (round, position in the round).  The layer is the part of the name before the first dot.  Everything
stays in memory until ``write`` at the end of the run.
"""

import json
import statistics
import time


class NullTracer:
    """Tracing off: ``call`` is a plain call."""

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.samples = {}
        self.op = None
        self._stack = []

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def export(self):
        return {"spans": self.spans, "counts": self.counts, "samples": self.samples}

    def merge(self, exported):
        """Adopt the spans, counts and samples another process recorded; its
        top-level spans become children of the currently open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, up, _ in exported["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else base + up, self.op])
        for name, value in exported["counts"].items():
            self.count(name, value)
        for name, values in exported["samples"].items():
            self.samples.setdefault(name, []).extend(values)

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self):
        """Layer -> total self time in ns: each span's duration minus the time
        its direct children cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + (end - start - child)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)


def median_or_zero(values):
    return statistics.median(values) if values else 0
