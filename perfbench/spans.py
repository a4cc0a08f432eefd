"""Spans around calls into packfour's public functions, recorded from outside.

The benchmark calls the public entry points itself (parse, color, verify,
oracle, CLI) inside spans.  To see the layers below ``color`` and
``exists_spacking`` without editing the program, ``interpose`` swaps the
names those modules call (``break_triangles`` in ``packfour.pipeline``, and
so on) for wrappers that open a span and call the original; the originals are
put back on exit.  A name the program no longer has is skipped, so its time
then shows up in the caller's self time instead of failing the run.

Spans live in memory until ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (module under packfour, attribute that module calls, span name, count name);
# a count is read off the call's returned trace: (pair, steps), (state, additions)
INTERPOSED = (
    ("pipeline", "find_claw", "graph.find_claw", None),
    ("pipeline", "break_triangles", "triangle_break.break_triangles", "triangle_break.steps"),
    ("pipeline", "reduce_odd_cycles", "odd_cycle.reduce_odd_cycles", "odd_cycle.additions"),
    ("pipeline", "verify_spacking", "packing.verify_spacking", None),
    ("pipeline", "write_certificate", "formats.write_certificate", None),
    ("formats", "verify_spacking", "packing.verify_spacking", None),
    ("oracle", "all_pairs_distances", "oracle.all_pairs_distances", None),
    ("oracle", "verify_spacking", "packing.verify_spacking", None),
)


class Tracer:
    """Records (name, graph, start, end, parent) for every traced call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, graph, start, end, parent index or -1]
        self.counts: list[tuple] = []  # (graph, count name, value)
        self.graph = None  # id of the graph the current calls work on
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, self.graph, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count: str | None = None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                self.counts.append((self.graph, count, len(result[1])))
            return result
        return traced

    @contextmanager
    def interpose(self, package):
        """Route the INTERPOSED calls of ``package`` through spans."""
        saved = []
        try:
            for module_name, attr, span, count in INTERPOSED:
                module = getattr(package, module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: str) -> None:
        """Write one JSON line per span; times in ms from the first span."""
        if not self.spans:
            return
        t0 = self.spans[0][2]
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, graph, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "graph": graph,
                    "start_ms": round((start - t0) * 1e3, 4),
                    "end_ms": round((end - t0) * 1e3, 4),
                    "self_ms": round(own[i] * 1e3, 4),
                }) + "\n")
