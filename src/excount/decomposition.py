"""Spanning trees, star partitions of trees, and edge-plus-star covers.

Every tree on at least two vertices splits into vertex classes that each
induce a star with at least two vertices; `star_partition` splits off the
subtree hanging from a branching neighbor until only stars remain.
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

    Subtrees wait on a pending list, the whole tree first. A subtree that is
    a star becomes one class. Otherwise take the lowest-labeled non-leaf v
    and its lowest-labeled neighbor u that has a neighbor besides v; the
    vertices nearer u than v form one subtree, the rest the other, and both
    go on the list. Both always keep at least two vertices and fewer than
    the subtree they came from, so the list runs out.
    """
    if T.n < 2:
        raise GraphError(f"star partition needs at least 2 vertices, got {T.n}")
    if T.edge_count != T.n - 1 or len(bfs(T, [0])[0]) != T.n:
        raise GraphError("input is not a tree")

    parts: list[frozenset[int]] = []
    centers: list[int] = []
    pending: list[frozenset[int]] = [frozenset(range(T.n))]
    while pending:
        verts = pending.pop()
        size = len(verts)
        deg = {v: len(T.adj[v] & verts) for v in verts}
        center = max(verts, key=lambda v: (deg[v], -v))
        if deg[center] == size - 1:
            parts.append(verts)
            centers.append(center)
            continue
        v = min(u for u in verts if deg[u] >= 2)
        u1 = min(w for w in T.adj[v] & verts if deg[w] >= 2)
        side = {u1}
        queue = [u1]
        while queue:
            x = queue.pop()
            for w in T.adj[x] & verts:
                if w != v and w not in side:
                    side.add(w)
                    queue.append(w)
        pending.append(frozenset(side))
        pending.append(verts - side)

    order = sorted(range(len(parts)), key=lambda i: min(parts[i]))
    return StarPartition(
        tuple(parts[i] for i in order), tuple(centers[i] for i in order)
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
