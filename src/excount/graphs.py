"""Labeled simple graphs, two-colorings, and staircase (Ferrers) diagrams.

Vertices are dense integer labels 0..n-1, so isolated vertices are
representable (the extremal constructions need them). Everything here is
immutable after construction and all operations are pure functions, hence
safe to evaluate concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence


class GraphError(ValueError):
    """A structural precondition on graph input was violated."""


class Graph:
    """Simple undirected graph on vertices 0..n-1 with set adjacency.

    Construction validates the edge list: no loops, no duplicate edges
    (after normalizing each pair to u < v), all endpoints below n.
    """

    __slots__ = ("n", "edges", "adj", "degrees")

    def __init__(self, n: int, edge_list: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        seen: set[tuple[int, int]] = set()
        # Edgeless vertices share one empty frozenset; a vertex gets a set at its first edge.
        adj: list[set[int] | frozenset[int]] = [frozenset()] * n
        for u, v in edge_list:
            if u == v:
                raise GraphError(f"loop ({u}, {v}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"endpoint out of range in ({u}, {v}) for n={n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            if adj[u]:
                adj[u].add(v)
            else:
                adj[u] = {v}
            if adj[v]:
                adj[v].add(u)
            else:
                adj[v] = {u}
        self.n: int = n
        self.edges: frozenset[tuple[int, int]] = frozenset(seen)
        self.adj: tuple[frozenset[int], ...] = tuple(map(frozenset, adj))
        self.degrees: tuple[int, ...] = tuple(map(len, adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self.n else False

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count})"

    def __reduce__(self):
        return (Graph, (self.n, tuple(sorted(self.edges))))


def make_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph from a vertex count and an edge list."""
    return Graph(n, edge_list)


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    """Path on n vertices, 0-1-2-...-(n-1)."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves: center 0, leaves 1..leaves."""
    if leaves < 1:
        raise GraphError(f"star needs at least one leaf, got {leaves}")
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with left part 0..s-1 and right part s..s+t-1."""
    return Graph(s + t, ((i, s + j) for i in range(s) for j in range(t)))


def complement(G: Graph) -> Graph:
    return Graph(G.n, (p for p in combinations(range(G.n), 2) if p not in G.edges))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertices of later summands are shifted upward."""
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


@dataclass(frozen=True, slots=True)
class Bipartition:
    """A two-coloring of the vertex set; every edge must cross the parts."""

    left: frozenset[int]
    right: frozenset[int]

    def side_of(self, v: int) -> int:
        """0 for the left part, 1 for the right part."""
        return 0 if v in self.left else 1


def bfs(G: Graph, roots: Iterable[int]) -> tuple[list[int], list[int | None]]:
    """Breadth-first order from each root not yet reached, and each vertex's parent.

    Roots are taken in the given order, neighbors in label order. A root's
    parent is -1 and a vertex that no root reaches has parent None.
    """
    order: list[int] = []
    parent: list[int | None] = [None] * G.n
    for root in roots:
        if parent[root] is None:
            parent[root] = -1
            queue = [root]
            for u in queue:
                for w in sorted(G.adj[u]):
                    if parent[w] is None:
                        parent[w] = u
                        queue.append(w)
            order += queue
    return order, parent


def twin_classes(masks: Sequence[int]) -> list[tuple[int, ...]]:
    """Twin classes of the graph whose vertex v has neighbor bitmask masks[v].

    Classes are ordered by lowest member, members in label order. Twins
    have equal open neighborhoods (false twins; all isolated vertices are
    one class) or equal closed neighborhoods (true twins). No open
    neighborhood N(u) equals a closed one N[w], which would put w in N(u)
    and so u in N[w] = N(u). False twins u, v are not adjacent, so a true
    twin w of u, lying in N(u) = N(v) with v in N[w] = N[u], cannot exist:
    a vertex with a false twin has no true twin, and the classes partition
    the vertex set. Permuting any class is an automorphism.
    """
    groups: dict[int, list[int]] = {}
    for v, near in enumerate(masks):
        groups.setdefault(near, []).append(v)
        groups.setdefault(near | 1 << v, []).append(v)
    return sorted({tuple(max(groups[near], groups[near | 1 << v], key=len)) for v, near in enumerate(masks)})


def two_coloring(G: Graph) -> tuple[list[int], list[int]]:
    """Component index and color (0 or 1) of each vertex, by `bfs` from every vertex in order.

    Components are numbered in the order their lowest labels are reached;
    colors alternate along the BFS tree, so they are a proper two-coloring
    exactly when G is bipartite.
    """
    order, parent = bfs(G, range(G.n))
    component, color = [0] * G.n, [0] * G.n
    c = -1
    for v in order:
        if parent[v] == -1:
            c += 1
        else:
            color[v] = 1 - color[parent[v]]
        component[v] = c
    return component, color


def bipartition_of(G: Graph) -> Bipartition | None:
    """Two-color G if possible, else None.

    Per connected component the part containing the lowest-labeled vertex
    is chosen as the left part; isolated vertices go left.
    """
    color = two_coloring(G)[1]
    if any(color[u] == color[v] for u, v in G.edges):
        return None
    left = frozenset(v for v in range(G.n) if color[v] == 0)
    return Bipartition(left, frozenset(range(G.n)) - left)


def is_triangle_free(G: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    for u, v in G.edges:
        if G.adj[u] & G.adj[v]:
            return False
    return True


def _check_bipartition(G: Graph, P: Bipartition) -> None:
    if P.left & P.right:
        raise GraphError("bipartition parts overlap")
    if P.left | P.right != frozenset(range(G.n)):
        raise GraphError("bipartition does not cover the vertex set")
    for u, v in G.edges:
        if (u in P.left) == (v in P.left):
            raise GraphError(f"edge ({u}, {v}) does not cross the bipartition")


def nested_violation(G: Graph, P: Bipartition) -> tuple[int, int] | None:
    """Lowest same-side vertex pair with incomparable neighborhoods, if any.

    A bipartite graph is neighbor-nested when same-side neighborhoods form
    a chain under inclusion; None means G is nested with respect to P.
    """
    for side in (sorted(P.left), sorted(P.right)):
        for x, y in combinations(side, 2):
            nx, ny = G.adj[x], G.adj[y]
            if not (nx <= ny or ny <= nx):
                return (x, y)
    return None


def conjugate(partition: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition: entry j counts parts of size at least j+1."""
    if any(p < 0 for p in partition):
        raise ValueError("partition entries must be non-negative")
    return tuple(
        sum(1 for p in partition if p >= j) for j in range(1, max(partition, default=0) + 1)
    )


@dataclass(frozen=True, slots=True)
class FerrersDiagram:
    """Staircase of unit squares encoding a neighbor-nested bipartite graph.

    Column heights are a non-increasing sequence of positive integers; the
    rows are the conjugate partition, so column and row sums both equal the
    total number of squares (the edge count of the encoded graph). The rows
    are computed once, at construction; they take no part in the repr,
    equality or hash, which the columns determine.
    """

    columns: tuple[int, ...]
    rows: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        for a in cols:
            if a <= 0:
                raise GraphError(f"column height {a} is not positive")
        if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
            raise GraphError(f"columns {cols} are not non-increasing")
        object.__setattr__(self, "rows", conjugate(cols))

    @property
    def squares(self) -> int:
        return sum(self.columns)

    @property
    def width(self) -> int:
        """Number of columns (vertices on the column side)."""
        return len(self.columns)

    @property
    def height(self) -> int:
        """Tallest column (vertices on the row side)."""
        return self.columns[0] if self.columns else 0

    def cells(self) -> set[tuple[int, int]]:
        """Unit squares as (column, row) positions, both 1-based."""
        return {(i + 1, j + 1) for i, a in enumerate(self.columns) for j in range(a)}


def column_part(degrees: Sequence[int], P: Bipartition) -> frozenset[int]:
    """The part that supplies a diagram's columns for these vertex degrees.

    It is the part holding the highest-degree vertex, lowest label on a tie.
    """
    top = max(range(len(degrees)), key=lambda v: (degrees[v], -v), default=None)
    return P.right if top in P.right else P.left


def diagram_of(G: Graph, P: Bipartition) -> FerrersDiagram:
    """Ferrers diagram of a neighbor-nested bipartite graph.

    Columns are the sorted nonzero degrees of the part chosen by
    `column_part`; the other part's sorted nonzero degrees are the rows.
    """
    _check_bipartition(G, P)
    bad = nested_violation(G, P)
    if bad is not None:
        raise GraphError(
            f"graph is not neighbor-nested: vertices {bad[0]} and {bad[1]} "
            "have incomparable neighborhoods"
        )
    chosen = column_part(G.degrees, P)
    heights = sorted((G.degrees[v] for v in chosen if G.degrees[v] > 0), reverse=True)
    return FerrersDiagram(tuple(heights))


def realize_diagram(D: FerrersDiagram, n: int) -> Graph:
    """Bipartite graph on n vertices whose diagram is D.

    Column vertices are 0..m-1, row vertices m..m+t-1 with t the tallest
    column; vertex i is joined to the first columns[i] row vertices. The
    remaining n - m - t vertices are isolated.
    """
    m = D.width
    t = D.height
    if m + t > n:
        raise GraphError(
            f"diagram needs {m + t} vertices but only {n} are available"
        )
    edges = [(i, m + j) for i, a in enumerate(D.columns) for j in range(a)]
    return Graph(n, edges)


def are_isomorphic(G1: Graph, G2: Graph) -> bool:
    """Exact isomorphism by degree-refined backtracking.

    Intended for desk-scale graphs; the degree-sequence pre-filter rejects
    most non-isomorphic pairs before any search.
    """
    if G1.n != G2.n:
        return False
    if G1.edges == G2.edges:
        return True
    if G1.edge_count != G2.edge_count:
        return False
    if sorted(G1.degrees) != sorted(G2.degrees):
        return False
    n = G1.n
    # Isolated vertices map to each other freely once the degree sequences agree.
    order = sorted((v for v in range(n) if G1.degrees[v]), key=lambda v: (-G1.degrees[v], v))
    images = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        u = order[pos]
        du = G1.degrees[u]
        for cand in range(n):
            if used[cand] or G2.degrees[cand] != du:
                continue
            ok = True
            for q in range(pos):
                w = order[q]
                if (w in G1.adj[u]) != (images[w] in G2.adj[cand]):
                    ok = False
                    break
            if ok:
                images[u] = cand
                used[cand] = True
                if extend(pos + 1):
                    return True
                used[cand] = False
        images[u] = -1
        return False

    return extend(0)
