"""In-memory span tracing of excount's layers, installed from outside the package.

A span is recorded around each call of a wrapped entry point: its name,
its start and end (``perf_counter_ns``) and the span that was open when it
started. Wrappers are installed at the attribute the calling module looks
up (``excount.oracle.are_isomorphic`` is the oracle's view of the graphs
layer), or at the class attribute for methods and constructors, and are
removed again after the traced pass. Span names read ``<layer>.<entry>``;
the layer is the ``excount`` module the wrapped code lives in, or
``bench`` for the benchmark's own checks.

Only the process that installed the wrappers records spans. Worker
processes forked from it (``ex_oracle(..., threads=2)``) inherit the
wrappers but call straight through, so for a sharded sweep the parent's
oracle span holds the time spent waiting for its workers.
"""
from __future__ import annotations

import gzip
import os
from collections import defaultdict
from time import perf_counter_ns

from excount import asymptotics, constructions, counting, graphs, oracle, transform

LAYERS = (
    "oracle",
    "counting",
    "graphs",
    "constructions",
    "asymptotics",
    "transform",
    "decomposition",
    "edgelist",
    "reporting",
)

# (owner, attribute, span name): entry points the package calls internally.
# Calls the benchmark makes itself are traced through Tracer.call instead.
PATCHES = (
    (counting.PatternCounter, "count", "counting.count"),
    (graphs.Graph, "__init__", "graphs.build"),
    (oracle, "are_isomorphic", "graphs.iso"),
    (oracle, "count_copies", "counting.copies"),
    (oracle, "automorphism_count", "counting.automorphism"),
    (asymptotics, "quasi_clique", "constructions.quasi_clique"),
    (asymptotics, "quasi_star", "constructions.quasi_star"),
    (asymptotics, "count_stars", "counting.stars"),
    (asymptotics, "inj_homs", "counting.inj_homs"),
    (asymptotics, "star_factor_profile", "decomposition.star_factor_profile"),
    (constructions, "complement", "graphs.complement"),
    (transform, "shift_to_nested", "transform.shift"),
    (transform, "durfee_fold", "transform.fold"),
    (transform, "top_row_pack", "transform.pack"),
    (transform, "bipartition_of", "graphs.bipartition"),
    (transform, "diagram_of", "graphs.diagram"),
    (transform, "realize_diagram", "graphs.realize"),
)


class Tracer:
    """Records spans while installed; analyses them after the pass."""

    def __init__(self):
        self._pid = os.getpid()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        # Wrappers hold these lists, so they are cleared in place, never rebound.
        self.name_of: list[int] = []
        self.parent_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack: list[int] = [-1]

    def clear(self) -> None:
        """Drop the spans recorded so far."""
        for spans in (self.name_of, self.parent_of, self.start, self.end):
            spans.clear()
        del self._stack[1:]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """A function that calls fn inside a span called name."""
        nid = self._name_id(name)
        pid = self._pid
        name_of, parent_of, start, end, stack = (
            self.name_of, self.parent_of, self.start, self.end, self._stack
        )

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent_of.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every entry point in PATCHES; undo with uninstall()."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.clear()
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> "SpanSummary":
        """Per-name and per-(name, parent name) totals of the recorded spans."""
        if len(self._stack) != 1:
            raise RuntimeError("summary requested while spans are still open")
        names = self._names
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent_of[i]
            if p >= 0:
                child[p] += dur[i]
        s = SpanSummary(count)
        for i in range(count):
            name = names[self.name_of[i]]
            p = self.parent_of[i]
            parent = names[self.name_of[p]] if p >= 0 else ""
            key = (name, parent)
            s.calls[key] += 1
            s.total_ns[key] += dur[i]
            s.self_ns[key] += dur[i] - child[i]
        return s

    def write(self, path: str) -> None:
        """Write the recorded spans as gzipped CSV: name, parent, start, end."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        names = self._names
        base = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name_of[i]]},{self.parent_of[i]},"
                    f"{self.start[i] - base},{self.end[i] - base}\n"
                )


class SpanSummary:
    """Totals keyed by (span name, name of the span that was open at its start)."""

    def __init__(self, spans: int):
        self.spans = spans
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)

    def _select(self, table, name=None, layer=None, parent_layer=None):
        out = 0
        for (n, p), v in table.items():
            if name is not None and n != name:
                continue
            if layer is not None and n.split(".", 1)[0] != layer:
                continue
            if parent_layer is not None and p.split(".", 1)[0] != parent_layer:
                continue
            out += v
        return out

    def n_calls(self, **where) -> int:
        return self._select(self.calls, **where)

    def seconds(self, **where) -> float:
        """Inclusive duration of the selected spans, in seconds."""
        return self._select(self.total_ns, **where) / 1e9

    def self_seconds(self, **where) -> float:
        """Duration of the selected spans minus their child spans, in seconds."""
        return self._select(self.self_ns, **where) / 1e9
