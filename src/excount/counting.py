"""Exact subgraph counting primitives.

All counts are plain Python integers, so they are arbitrary precision and
never overflow silently. Pattern graphs are assumed small (about ten
vertices); hosts are desk scale.
"""
from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, perm
from typing import Iterable

from .graphs import Graph, bfs, disjoint_union, path_graph, star_graph, twin_classes


def count_stars(G: Graph, k: int) -> int:
    """Number of k-leaf stars as (center, leaf set) choices: sum of C(d_i, k).

    For k = 1 this counts each edge twice, once per orientation.
    """
    if k < 1:
        raise ValueError(f"leaf count must be at least 1, got {k}")
    return star_sum(G.degrees, k)


def star_sum(degrees: Iterable[int], k: int) -> int:
    """Sum of C(d, k) over a degree multiset: the k-star count of any graph with it."""
    return sum(map(comb, degrees, repeat(k)))


class PatternCounter:
    """Backtracking counter of injective homomorphisms of a fixed pattern.

    It scores the oracle's tiny hosts, counts automorphisms, takes the
    patterns without a homomorphism basis (see inj_homs) and is the slow
    reference for the basis. Vertices are visited in BFS order from each
    component's highest-degree vertex, components by that degree, so each
    later vertex of a component has a placed neighbor to prune against.
    The walk keeps its own stack, so no pattern depth meets a recursion limit.

    Twin symmetry is broken after Grochow and Kellis (RECOMB 2007), with
    twins (see `twin_classes`) in place of a precomputed automorphism
    group. Permuting images within a twin class maps injective
    homomorphisms to injective homomorphisms, so the group of those
    permutations acts freely on the maps, and each orbit holds exactly one
    map whose images increase along every class in visiting order. Only
    those maps are searched, and the count is their number times the
    product of the class-size factorials. A class member's image lies above
    the previous member's and below n_G minus the members still to come.
    Isolated vertices come last and form one class, so the walk stops
    before them and one binomial counts their images among the rest.
    """

    __slots__ = ("walked", "order", "parents", "mindeg", "twin_before", "twins_after", "orbit")

    def __init__(self, pattern: Graph):
        order = bfs(pattern, sorted(range(pattern.n), key=lambda v: (-pattern.degrees[v], v)))[0]
        index_of = {v: i for i, v in enumerate(order)}
        nH = pattern.n
        self.walked = sum(map(bool, pattern.degrees))
        self.order = tuple(order)
        self.parents = tuple(
            tuple(index_of[w] for w in pattern.adj[v] if index_of[w] < i)
            for i, v in enumerate(order)
        )
        self.mindeg = tuple(pattern.degrees[v] for v in order)
        # per position: the previous twin's position (nH, an image slot holding -1, if none)
        # and the number of twins still to come
        before, after = [nH] * nH, [0] * nH
        self.orbit = 1
        for members in twin_classes([sum(1 << w for w in near) for near in pattern.adj]):
            spots = sorted(index_of[v] for v in members)
            for k, i in enumerate(spots):
                before[i] = spots[k - 1] if k else nH
                after[i] = len(spots) - 1 - k
            self.orbit *= factorial(len(spots))
        self.twin_before, self.twins_after = tuple(before), tuple(after)

    def count(self, G: Graph) -> int:
        nH, nG, walked = len(self.order), G.n, self.walked
        if nH > nG:
            return 0
        adj, degrees, parents, mindeg = G.adj, G.degrees, self.parents, self.mindeg
        twin_before, twins_after = self.twin_before, self.twins_after
        used, images = [False] * nG, [0] * nH + [-1]
        # one frame per open position: its candidates and the bounds taken when it was entered
        total, frames, i = int(not walked), [], 0 if walked else -1
        while i >= 0:
            if len(frames) == i:
                need, lo, hi = mindeg[i], images[twin_before[i]], nG - twins_after[i]
                if ps := parents[i]:
                    cands = adj[images[ps[0]]]
                    for p in ps[1:]:
                        cands = cands & adj[images[p]]
                else:
                    cands = range(lo + 1, hi)
                if i == walked - 1:  # the last walked position is counted, not placed
                    for v in cands:
                        total += not (used[v] or degrees[v] < need or not lo < v < hi)
                    i -= 1
                    continue
                frames.append((iter(cands), lo, hi, need))
            else:  # back from position i + 1: free position i's image
                used[images[i]] = False
            it, lo, hi, need = frames[i]
            for v in it:
                if not (used[v] or degrees[v] < need or not lo < v < hi):
                    used[v], images[i], i = True, v, i + 1
                    break
            else:
                frames.pop()
                i -= 1
        return total * comb(nG - walked, nH - walked) * self.orbit


BASIS_MAX_VERTICES = 8  # Bell(8) = 4140 partitions


def _hom(F: Graph, G: Graph) -> int | None:
    """hom(F, G) by variable elimination in min-degree order, None if stuck.

    F-vertices carry weight vectors over V(G), linked pairs a sparse table
    or, for an edge of F, G's adjacency. Two links of an eliminated vertex
    become a weighted codegree table, in O(sum of squared degrees) for two
    adjacency links, so those go first among ties; three links are stuck.
    """
    weight = {z: [1] * G.n for z in range(F.n)}
    adjacency = [dict.fromkeys(nb, 1) for nb in G.adj]
    # tables[x, y], x < y: per image a of x, b -> f(a, b) for the x-y factor f, nonzero entries only
    tables = {edge: adjacency for edge in F.edges}

    def links(z: int) -> list[int]:
        return sorted(x + y - z for x, y in tables if z in (x, y))

    def rows(x: int, y: int) -> list[dict[int, int]]:
        T = tables[min(x, y), max(x, y)]
        if x < y or T is adjacency:
            return T
        flipped: list[dict[int, int]] = [{} for _ in T]
        for a, r in enumerate(T):
            for b, t in r.items():
                flipped[b][a] = t
        return flipped

    total = 1
    while weight:
        v = min(weight, key=lambda z: (
            len(links(z)), any(tables[min(u, z), max(u, z)] is not adjacency for u in links(z)), z))
        wv, ends = weight.pop(v), links(v)
        if not ends:
            total *= sum(wv)
        elif len(ends) == 1:
            x = ends[0]
            weight[x] = [w * sum(t * wv[b] for b, t in r.items())
                         for w, r in zip(weight[x], rows(x, v))]
        elif len(ends) == 2:
            x, y = ends
            keep, right = tables.get((x, y)), rows(v, y)
            # an x-y table is overwritten row by row, so that only one table is held at a time
            R = keep if keep is not None and keep is not adjacency else [{} for _ in range(G.n)]
            for a, left in enumerate(rows(x, v)):
                r: dict[int, int] = defaultdict(int)
                for b, f in left.items():
                    s = f * wv[b]
                    for c, g in right[b].items():
                        r[c] += s * g
                R[a] = r if keep is None else {c: r[c] * t for c, t in keep[a].items() if c in r}
            tables[x, y] = R
        else:
            return None
        for u in ends:
            del tables[min(u, v), max(u, v)]
    return total


@lru_cache(maxsize=64)
def _hom_basis(H: Graph) -> tuple[tuple[Graph, int], ...] | None:
    """Quotients F = H/pi with summed mu, so inj_homs(H, G) = sum of mu * hom(F, G).

    pi runs over the partitions of V(H) into independent sets, with
    mu(pi) = prod over blocks B of (-1)^(|B|-1) (|B|-1)!. None above
    BASIS_MAX_VERTICES or if _hom gets stuck on a quotient (dry run).
    """
    if H.n > BASIS_MAX_VERTICES:
        return None
    # partitions of the vertices placed so far: block of each, block count, mu
    partial = [((), 0, 1)]
    for v in range(H.n):
        grown = []
        for block_of, k, mu in partial:
            taken = {block_of[u] for u in H.adj[v] if u < v}
            grown += [(block_of + (i,), k, -mu * block_of.count(i)) for i in range(k) if i not in taken]
            grown.append((block_of + (k,), k + 1, mu))
        partial = grown
    coeff: dict[Graph, int] = defaultdict(int)
    for block_of, k, mu in partial:
        coeff[Graph(k, {tuple(sorted((block_of[u], block_of[w]))) for u, w in H.edges})] += mu
    return None if any(_hom(F, Graph(0)) is None for F in coeff) else tuple(coeff.items())


def inj_homs(H: Graph, G: Graph) -> int:
    """Number of injective vertex maps H -> G carrying edges to edges.

    Summed over the homomorphism basis (Curticapean, Dell and Marx, STOC
    2017) of H's w vertices with an edge, relabeled in order, times
    perm(n_G - w, n_H - w) for the isolated ones; else PatternCounter counts.
    """
    if H.n > G.n:
        return 0
    label = {v: i for i, v in enumerate(v for v in range(H.n) if H.degrees[v])}
    terms = _hom_basis(Graph(len(label), [(label[u], label[v]) for u, v in H.edges]))
    if terms is None:
        return PatternCounter(H).count(G)
    return sum(mu * _hom(F, G) for F, mu in terms) * perm(G.n - len(label), H.n - len(label))


def automorphism_count(H: Graph) -> int:
    """Order of the automorphism group of H.

    An injective edge-preserving self-map is a bijection, and with equal
    edge counts it maps the edge set onto itself, so non-adjacency is
    preserved automatically and PatternCounter(H) counts exactly the group.
    Permutations within twin classes act freely on the group, so the
    counter walks only the automorphisms with increasing images along each
    class and multiplies by the product of the class-size factorials;
    isolated vertices are counted, not walked.
    """
    return PatternCounter(H).count(H)


def count_copies(H: Graph, G: Graph) -> int:
    """Number of subgraphs of G isomorphic to H."""
    a = automorphism_count(H)
    h = inj_homs(H, G)
    if h % a:
        raise RuntimeError(f"injective hom count {h} not divisible by {a} automorphisms")
    return h // a


def count_star_matching_pairs(G: Graph, k: int, m: int) -> int:
    """Vertex-disjoint pairs of a k-leaf star and an m-edge matching.

    Stars are (center, leaf set) choices; matchings are edge sets. Each
    pair is k! m! 2^m injective homomorphisms of S_k plus m disjoint edges.
    """
    if k < 1:
        raise ValueError(f"leaf count must be at least 1, got {k}")
    if m < 0:
        raise ValueError(f"matching size must be non-negative, got {m}")
    pattern = disjoint_union(star_graph(k), *[path_graph(2)] * m)
    return inj_homs(pattern, G) // (factorial(k) * factorial(m) * 2**m)
