"""Spanning trees, star partitions of trees, and edge-plus-star covers.

Every tree on at least two vertices splits into vertex classes that each
induce a star with at least two vertices; `star_partition` finds them in one
sweep in label order, cutting only at vertices that are the lowest non-leaf
of their part when the sweep reaches them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, bfs, make_graph


@dataclass(frozen=True, slots=True)
class StarPartition:
    """Disjoint vertex classes covering the tree, each inducing a star."""

    parts: tuple[frozenset[int], ...]
    centers: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class EdgeStarCover:
    """Vertex-disjoint matching edges plus an optional star covering V."""

    matching: frozenset[tuple[int, int]]
    star: tuple[int, frozenset[int]] | None


def spanning_tree(H: Graph) -> Graph:
    """BFS tree from vertex 0; rejects disconnected input."""
    if H.n == 0:
        raise GraphError("graph has no vertices")
    order, parent = bfs(H, [0])
    if len(order) != H.n:
        raise GraphError(f"graph is disconnected: vertex {parent.index(None)} unreachable from 0")
    return make_graph(H.n, ((parent[v], v) for v in order[1:]))


def star_partition(T: Graph) -> StarPartition:
    """Partition a tree into induced stars with at least two vertices each.

    One sweep in label order: each vertex v takes its remaining neighbors u
    in label order until v has fewer than two edges left, and cuts the edge
    to u if u has at least two. No edge to a lower label is cut: every lower
    vertex is by then a leaf or a finished star's center. So v is the lowest
    non-leaf of its part, and its cuts are those of splitting at the lowest
    non-leaf and its lowest non-leaf neighbor. The parts are the components
    of the kept edges, by lowest member; each center has the most kept
    edges, then the lowest label.
    """
    if T.n < 2:
        raise GraphError(f"star partition needs at least 2 vertices, got {T.n}")
    if T.edge_count != T.n - 1 or len(bfs(T, [0])[0]) != T.n:
        raise GraphError("input is not a tree")

    near = list(map(set, T.adj))
    for v in range(T.n):
        for u in sorted(near[v]):
            if len(near[v]) < 2:
                break
            if len(near[u]) >= 2:
                near[v].remove(u)
                near[u].remove(v)
    parts: list[list[int]] = []
    seen = [False] * T.n
    for v in range(T.n):
        if not seen[v]:
            # the kept edges form a forest, so each vertex joins its part once
            part = [v]
            for x in part:
                seen[x] = True
                part += (w for w in near[x] if not seen[w])
            parts.append(part)
    return StarPartition(
        tuple(map(frozenset, parts)),
        tuple(max(part, key=lambda v: (len(near[v]), -v)) for part in parts),
    )


def star_factor_profile(H: Graph) -> tuple[int, ...]:
    """Leaf counts of the star partition of a BFS spanning tree, largest first."""
    sp = star_partition(spanning_tree(H))
    return tuple(sorted((len(p) - 1 for p in sp.parts), reverse=True))


def _perfect_matching(verts: frozenset[int], B: Graph) -> frozenset[tuple[int, int]] | None:
    # (unmatched vertices, pairs so far); partners go on in descending order, so the lowest is tried first
    stack = [(verts, frozenset())]
    while stack:
        rest, pairs = stack.pop()
        if not rest:
            return pairs
        v = min(rest)
        rest = rest - {v}
        stack += [(rest - {u}, pairs | {(v, u)}) for u in sorted(B.adj[v] & rest, reverse=True)]
    return None


def edge_star_cover(B: Graph) -> EdgeStarCover | None:
    """Exhaustive search for a matching-plus-star cover of all vertices.

    A pure matching (no star) is tried first, then stars with center
    ascending and leaf set size descending; the residual vertices must
    carry a perfect matching inside B. Returns the first cover found, or
    None when no cover exists. Restricted to at most 12 vertices.
    """
    if B.n > 12:
        raise GraphError(f"exhaustive cover search is limited to 12 vertices, got {B.n}")
    everyone = frozenset(range(B.n))
    plain = _perfect_matching(everyone, B)
    if plain is not None:
        return EdgeStarCover(plain, None)
    for center in range(B.n):
        neighbors = sorted(B.adj[center])
        for size in range(len(neighbors), 1, -1):
            for leaves in combinations(neighbors, size):
                residual = everyone - {center} - set(leaves)
                matching = _perfect_matching(residual, B)
                if matching is not None:
                    return EdgeStarCover(matching, (center, frozenset(leaves)))
    return None
