"""Span tracing for traced benchmark runs.

The tracer wraps public functions (and the few private entry points the
public ones route through) by replacing module attributes while a traced
operation runs, so nothing inside ``src/`` changes. Each call records a span:
name, start, end, parent span and operation id. Spans stay in memory until
the run ends; counts are recorded at the same call boundaries.

A layer's self time is its span's duration minus the time its child spans
cover. Calls are nested on one thread, so child spans never overlap and
that covered time is their summed duration.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Collects spans and counts for the operations of one traced run."""

    def __init__(self):
        self.spans = []
        self.ops = {}
        self.counts = defaultdict(lambda: defaultdict(float))
        self.absent = set()
        self._open = []
        self._op = None

    def wrap(self, fn, name, count=None):
        """``fn`` wrapped so each call records a span named ``name``.

        ``count(result, *args, **kwargs)`` may return a dict of counts that
        are added to the operation under ``name.<key>``.
        """
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, 0.0, 0.0, parent, self._op]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                self._open.pop()
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    self.counts[self._op][f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, points):
        """Replace each ``(target, attr, name, count)`` point by its traced
        wrapper for the duration of the block; ``target`` is a module or a
        dict. Points whose attribute does not exist are recorded in
        ``absent`` and skipped."""
        saved = []
        try:
            for target, attr, name, count in points:
                is_dict = isinstance(target, dict)
                original = target.get(attr) if is_dict else getattr(target, attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                wrapped = self.wrap(original, name, count)
                if is_dict:
                    target[attr] = wrapped
                else:
                    setattr(target, attr, wrapped)
                saved.append((target, attr, original, is_dict))
            yield self
        finally:
            for target, attr, original, is_dict in reversed(saved):
                if is_dict:
                    target[attr] = original
                else:
                    setattr(target, attr, original)

    @contextmanager
    def operation(self, op_id):
        """Attribute the spans and counts recorded in the block to ``op_id``."""
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops[op_id] = (start, time.perf_counter())
            self._op = None

    def summary(self):
        """Per-layer aggregates over all traced operations.

        Returns a dict with, per span name: ``self_s`` (median over
        operations of the summed self time), ``total_s`` (same, inclusive),
        ``call_self_us`` (median self time of one call) and ``calls`` (per
        operation); per count name, the median per-operation value; and the
        median per-operation wall time, time covered by top-level spans, and
        uncovered remainder.
        """
        covered_by_children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered_by_children[span[_PARENT]] += span[_END] - span[_START]
        self_by_op = defaultdict(lambda: defaultdict(float))
        total_by_op = defaultdict(lambda: defaultdict(float))
        calls_by_op = defaultdict(lambda: defaultdict(int))
        call_self = defaultdict(list)
        top_by_op = defaultdict(float)
        for i, span in enumerate(self.spans):
            name, op = span[_NAME], span[_OP]
            duration = span[_END] - span[_START]
            own = duration - covered_by_children[i]
            self_by_op[name][op] += own
            total_by_op[name][op] += duration
            calls_by_op[name][op] += 1
            call_self[name].append(own)
            if span[_PARENT] < 0:
                top_by_op[op] += duration

        ops = sorted(self.ops)

        def per_op_median(by_op):
            return statistics.median(by_op.get(op, 0) for op in ops)

        layers = {
            name: {
                "self_s": per_op_median(self_by_op[name]),
                "total_s": per_op_median(total_by_op[name]),
                "calls": per_op_median(calls_by_op[name]),
                "call_self_us": statistics.median(call_self[name]) * 1e6,
            }
            for name in self_by_op
        }
        count_names = {key for per_op in self.counts.values() for key in per_op}
        counts = {key: statistics.median(self.counts[op].get(key, 0.0) for op in ops)
                  for key in count_names}
        walls = [self.ops[op][1] - self.ops[op][0] for op in ops]
        other = [wall - top_by_op[op] for wall, op in zip(walls, ops)]
        return {
            "layers": layers,
            "counts": counts,
            "ops": len(ops),
            "wall_s": statistics.median(walls),
            "other_s": statistics.median(other),
            "covered_frac": statistics.median(
                1.0 - o / w for o, w in zip(other, walls)),
        }
