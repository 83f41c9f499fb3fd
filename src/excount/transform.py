"""Rewrite a bipartite graph into the quasi-complete bipartite extremum.

The engine has two phases. The shift phase repeatedly moves an edge from a
lower-degree vertex to a higher-degree vertex on the same side until
same-side neighborhoods form a chain; each move raises the 2-leaf star
count by at least one, which bounds the phase by C(e, 2) moves. The
diagram phase then rewrites the staircase diagram: the fold step moves
every square above the largest anchored square onto the ends of its rows,
and the pack step moves squares from the end of the top row down into the
first empty column slot after the second-from-top row. Star counts never
decrease along the way, and the column vector strictly decreases
lexicographically at every pack step, so the loop terminates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .counting import star_sum
from .graphs import (
    Bipartition,
    FerrersDiagram,
    Graph,
    GraphError,
    bipartition_of,
    column_part,
    conjugate,
    diagram_of,
    make_graph,
    realize_diagram,
)

STEP_KINDS = ("start", "shift", "step1", "step2")


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One transformation event: state recorded after the step applied."""

    kind: str
    stars_k: int
    stars_2: int
    columns: tuple[int, ...]
    moved: int = 0

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(slots=True)
class Trace:
    """Step-by-step record of a run; entry 0 is the initial snapshot."""

    k: int
    entries: list[TraceEntry] = field(default_factory=list)

    @property
    def steps(self) -> list[TraceEntry]:
        return [t for t in self.entries if t.kind != "start"]


def cell_weight(i: int, j: int, k: int) -> int:
    """Weight of the square in column i and row j: C(i-1,k-1) + C(j-1,k-1)."""
    if i < 1 or j < 1:
        raise ValueError(f"cell position must be 1-based, got ({i}, {j})")
    if k < 2:
        raise ValueError(f"leaf count must be at least 2, got {k}")
    return comb(i - 1, k - 1) + comb(j - 1, k - 1)


def total_weight(D: FerrersDiagram, k: int) -> int:
    """Sum of cell weights: equals the k-star count of the realized graph."""
    if k < 2:
        raise ValueError(f"leaf count must be at least 2, got {k}")
    return star_sum(D.columns + D.rows, k)


def _record(trace: Trace, kind: str, degrees, columns, moved: int = 0) -> None:
    """Append the state with this degree multiset and these columns to trace.

    During the shift phase the degrees are the vertex degrees; on a diagram
    they are its columns plus its rows.
    """
    entry = TraceEntry(kind, star_sum(degrees, trace.k), star_sum(degrees, 2), columns, moved)
    trace.entries.append(entry)


def shift_to_nested(G: Graph, P: Bipartition, k: int) -> tuple[Graph, Trace]:
    """Shift edges toward higher-degree vertices until neighbor-nested.

    While some same-side pair x, y has deg(x) <= deg(y) and a neighbor z of
    x missing at y, the edge xz is replaced by yz. The moving pair is fixed
    deterministically: x of minimum degree (lowest label on ties), then y
    of maximum degree (lowest label), then z of minimum label. Each round
    ranks both sides once by descending degree, then label; that ranking
    gives the recorded columns and the y candidates. Already nested input
    comes back unchanged with a start-only trace.
    """
    if k < 2:
        raise ValueError(f"leaf count must be at least 2, got {k}")
    adj = [set(s) for s in G.adj]
    deg = list(G.degrees)
    trace = Trace(k)
    for shifts in range(comb(G.edge_count, 2) + 2):
        ranked = [sorted((-deg[v], v) for v in part) for part in (P.left, P.right)]
        columns = tuple(-d for d, _ in ranked[column_part(deg, P) is P.right] if d)
        _record(trace, "shift" if shifts else "start", deg, columns, 1 if shifts else 0)
        pairs = (
            (x, y)
            for dx, x in sorted((deg[v], v) for v in range(G.n) if deg[v])
            for dy, y in ranked[P.side_of(x)]
            if -dy >= dx and not adj[x] <= adj[y]
        )
        x, y = next(pairs, (None, None))
        if x is None:
            break
        z = min(adj[x] - adj[y])
        adj[x].discard(z)
        adj[z].discard(x)
        adj[y].add(z)
        adj[z].add(y)
        deg[x] -= 1
        deg[y] += 1
    else:
        raise RuntimeError("shift phase exceeded its C(e,2) termination bound")

    nested = make_graph(G.n, ((u, v) for u in range(G.n) for v in adj[u] if u < v))
    return nested, trace


def durfee_fold(D: FerrersDiagram) -> FerrersDiagram:
    """Move every square above the largest anchored square to its row end.

    With d the largest index such that column d has at least d squares,
    the squares of column i above height d are appended to row i. Rows
    above d vanish, every column ends at height at most d, and the square
    count is preserved. A diagram with nothing above the square is a fixed
    point. Recorded in traces as step kind "step1".
    """
    cols = D.columns
    d = 0
    for i, a in enumerate(cols, start=1):
        if a >= i:
            d = i
    if d == 0 or cols[0] == d:
        return D
    rows = D.rows
    new_rows = [rows[j] + (cols[j] - d) for j in range(d)]
    return FerrersDiagram(conjugate(new_rows))


def top_row_pack(D: FerrersDiagram, n: int) -> FerrersDiagram | None:
    """Move squares from the top row into the column after the second row.

    Every row of length equal to the second-from-top row gains the square
    right after it, all taken from the end of the top row. Returns None
    when the rewrite is finished: either the diagram has a single row, or
    every row below the second-from-top matches it and the n-vertex budget
    is already exhausted. Recorded in traces as step kind "step2".
    """
    rows = list(D.rows)
    t = len(rows)
    if t <= 1:
        return None
    target = rows[t - 2]
    fill = [j for j in range(t - 1) if rows[j] == target]
    q = len(fill)
    m = rows[0]
    if q == t - 1 and m + t == n:
        return None
    if rows[-1] < q:
        raise GraphError(
            f"top row has {rows[-1]} squares but the pack step needs {q}; "
            "fold the diagram first"
        )
    for j in fill:
        rows[j] += 1
    rows[-1] -= q
    if rows[-1] == 0:
        rows.pop()
    return FerrersDiagram(conjugate(rows))


def run_transformation(G: Graph, k: int, n: int | None = None) -> tuple[Graph, Trace]:
    """Shift to nested form, then fold and pack until the rewrite stops.

    The endpoint is isomorphic to the quasi-complete bipartite graph on
    the same vertex and edge budget; the trace shows the chosen k-star
    count never decreasing and the 2-star count strictly increasing at
    every shift. A vertex budget n larger than G.n embeds G among extra
    isolated vertices.
    """
    if n is None:
        n = G.n
    elif n < G.n:
        raise GraphError(f"vertex budget {n} is below the graph's {G.n} vertices")
    P = bipartition_of(G)
    if P is None:
        raise GraphError("graph is not bipartite")
    nested, trace = shift_to_nested(G, P, k)
    D = diagram_of(nested, P)
    for _ in range(G.edge_count * n + 2):
        folded = durfee_fold(D)
        if folded.columns != D.columns:
            moved = sum(a - folded.height for a in D.columns if a > folded.height)
            _record(trace, "step1", folded.columns + folded.rows, folded.columns, moved)
            D = folded
        packed = top_row_pack(D, n)
        if packed is None:
            break
        old_rows, new_rows = D.rows, packed.rows
        moved = old_rows[-1] - (new_rows[-1] if len(new_rows) == len(old_rows) else 0)
        _record(trace, "step2", packed.columns + new_rows, packed.columns, moved)
        D = packed
    else:
        raise RuntimeError("diagram rewrite exceeded its termination bound")
    return realize_diagram(D, n), trace
