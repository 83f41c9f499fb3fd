"""Exact subgraph counting primitives.

All counts are plain Python integers, so they are arbitrary precision and
never overflow silently. Pattern graphs are assumed small (about ten
vertices); hosts are desk scale.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence

from .graphs import Graph


def count_stars(G: Graph, k: int) -> int:
    """Number of k-leaf stars as (center, leaf set) choices: sum of C(d_i, k).

    For k = 1 this counts each edge twice, once per orientation.
    """
    if k < 1:
        raise ValueError(f"leaf count must be at least 1, got {k}")
    return sum(comb(d, k) for d in G.degrees)


class PatternCounter:
    """Backtracking counter of injective homomorphisms of a fixed pattern.

    The pattern vertices are visited in BFS order starting from a maximum
    degree vertex of each component (components in decreasing order of
    their maximum degree), so every vertex after the first of a component
    has at least one already-placed neighbor to prune against. The count
    is independent of the order; the order only helps pruning.
    """

    __slots__ = ("pattern_n", "order", "parents", "mindeg")

    def __init__(self, pattern: Graph):
        comps: list[list[int]] = []
        seen = [False] * pattern.n
        for start in range(pattern.n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            head = 0
            while head < len(comp):
                for w in sorted(pattern.adj[comp[head]]):
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                head += 1
            comps.append(comp)

        def comp_key(comp: list[int]) -> tuple[int, int]:
            best = max(comp, key=lambda v: (pattern.degrees[v], -v))
            return (-pattern.degrees[best], best)

        order: list[int] = []
        for comp in sorted(comps, key=comp_key):
            root = max(comp, key=lambda v: (pattern.degrees[v], -v))
            bfs = [root]
            placed = {root}
            head = 0
            while head < len(bfs):
                for w in sorted(pattern.adj[bfs[head]]):
                    if w not in placed:
                        placed.add(w)
                        bfs.append(w)
                head += 1
            order.extend(bfs)

        index_of = {v: i for i, v in enumerate(order)}
        self.pattern_n = pattern.n
        self.order = tuple(order)
        self.parents = tuple(
            tuple(index_of[w] for w in pattern.adj[v] if index_of[w] < i)
            for i, v in enumerate(order)
        )
        self.mindeg = tuple(pattern.degrees[v] for v in order)

    def count(self, adj: Sequence[frozenset[int] | set[int]], degrees: Sequence[int]) -> int:
        nH = self.pattern_n
        nG = len(adj)
        if nH == 0:
            return 1
        if nH > nG:
            return 0
        parents = self.parents
        mindeg = self.mindeg
        used = [False] * nG
        images = [0] * nH

        def extend(i: int) -> int:
            if i == nH:
                return 1
            total = 0
            need = mindeg[i]
            ps = parents[i]
            if ps:
                cands = adj[images[ps[0]]]
                for p in ps[1:]:
                    cands = cands & adj[images[p]]
                for v in cands:
                    if used[v] or degrees[v] < need:
                        continue
                    used[v] = True
                    images[i] = v
                    total += extend(i + 1)
                    used[v] = False
            else:
                for v in range(nG):
                    if used[v] or degrees[v] < need:
                        continue
                    used[v] = True
                    images[i] = v
                    total += extend(i + 1)
                    used[v] = False
            return total

        return extend(0)


def inj_homs(H: Graph, G: Graph) -> int:
    """Number of injective vertex maps H -> G carrying edges to edges."""
    return PatternCounter(H).count(G.adj, G.degrees)


def automorphism_count(H: Graph) -> int:
    """Order of the automorphism group of H.

    An injective edge-preserving self-map is a bijection, and with equal
    edge counts it maps the edge set onto itself, so non-adjacency is
    preserved automatically and inj_homs(H, H) is exactly the group order.
    """
    return inj_homs(H, H)


def count_copies(H: Graph, G: Graph) -> int:
    """Number of subgraphs of G isomorphic to H."""
    a = automorphism_count(H)
    h = inj_homs(H, G)
    if h % a:
        raise RuntimeError(f"injective hom count {h} not divisible by {a} automorphisms")
    return h // a


def count_star_matching_pairs(G: Graph, k: int, m: int) -> int:
    """Vertex-disjoint pairs of a k-leaf star and an m-edge matching.

    Stars are (center, leaf set) choices; matchings are edge sets. The
    matchings avoiding the star are counted by recursive edge inclusion
    over the edge list, with a direct scan for the final edge.
    """
    if k < 1:
        raise ValueError(f"leaf count must be at least 1, got {k}")
    if m < 0:
        raise ValueError(f"matching size must be non-negative, got {m}")
    edges = G.sorted_edges()
    ecount = len(edges)
    used = bytearray(G.n)

    def matchings(start: int, need: int) -> int:
        if need == 0:
            return 1
        if need == 1:
            return sum(
                1 for idx in range(start, ecount)
                if not used[edges[idx][0]] and not used[edges[idx][1]]
            )
        total = 0
        for idx in range(start, ecount - need + 1):
            u, v = edges[idx]
            if used[u] or used[v]:
                continue
            used[u] = used[v] = 1
            total += matchings(idx + 1, need - 1)
            used[u] = used[v] = 0
        return total

    total = 0
    neighbor_lists = [sorted(s) for s in G.adj]
    for center in range(G.n):
        if G.degrees[center] < k:
            continue
        for leaves in combinations(neighbor_lists[center], k):
            used[center] = 1
            for w in leaves:
                used[w] = 1
            total += matchings(0, m)
            used[center] = 0
            for w in leaves:
                used[w] = 0
    return total
