"""Span recorder that times calls into the program from outside it.

A span is (name, start, end, parent). Spans live in flat arrays in memory
and are reduced to per-name totals when the run ends. A name's
self time is the sum of its spans' durations minus the time their child
spans cover.

Functions are wrapped at the reference their caller uses: an entry of the
benchmark's own call table, or the name an importing module holds (such as
`pipeline.canonicalize`). The defining module's global of a recursive
function is never replaced, because the recursion looks that global up and
every node would become a span.

Counts that need the result (output nodes, cohort size) are computed after
the operation, outside its timing, from references the wrapper keeps.
"""

from __future__ import annotations

import collections
import time
from array import array

perf_counter = time.perf_counter


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.name_index = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.failed = collections.Counter()
        self.counts = collections.defaultdict(collections.Counter)
        self.pending = []

    def wrap(self, name, fn, count=None):
        """A callable that records a span around fn. `count(args, result)`
        returns {counter: increment}; it runs in `flush`."""
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        index = self.name_index[name]
        stack, pending = self.stack, self.pending

        def traced(*args, **kwargs):
            span = len(self.start)
            self.span_name.append(index)
            self.span_parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                self.end[span] = perf_counter()
                self.start[span] = t0
                stack.pop()
            if count is not None:
                pending.append((name, count, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def flush(self):
        """Apply the deferred counters of the operation just finished."""
        for name, count, args, result in self.pending:
            for key, value in count(args, result).items():
                self.counts[name][key] += value
        self.pending.clear()

    def totals(self):
        """{name: {"calls", "total_s", "self_s", "failed", counters...}}."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        for name, row in out.items():
            row["failed"] = self.failed[name]
            row.update(self.counts[name])
        return out


def span_name(fn):
    """The defining module and function, as in `formal.to_sheffer`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def patch(modules, patches, recorder, counters):
    """Replace each (module, attribute) with a traced wrapper; returns the
    undo list."""
    undo = []
    for module_name, attr in patches:
        module = modules[module_name]
        fn = getattr(module, attr)
        name = span_name(fn)
        undo.append((module, attr, fn))
        setattr(module, attr, recorder.wrap(name, fn, counters.get(name)))
    return undo


def unpatch(undo):
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)
