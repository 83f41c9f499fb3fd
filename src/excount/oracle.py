"""Independent ground truth by exhaustive generation of host classes.

The maximum of N(H, G) over the e-edge hosts on n vertices (all of them,
the bipartite ones or the triangle-free ones) is found by scoring one
representative of each isomorphism class once. Classes are built one edge
level at a time, after Read ("Every one a winner", 1978): each class with
k edges gets one more edge, a child that leaves the host class is dropped
at the added edge (both filtered classes are closed under edge deletion),
and children are deduplicated by a vertex-invariant bucket and
`are_isomorphic`. Two prunes keep the children few: an edge is added at
only the first of each set of false twins (the first two within one set),
and a child is kept only when its added edge has the largest edge
invariant, a weak form of McKay's canonical augmentation (J. Algorithms
1998). Dense hosts of every kind are the complements of the sparse level.
The score is the injective homomorphism count (the degree formula for
star patterns, the backtracking counter otherwise); the maximum is that
score divided once by the pattern's automorphism count.

Witnesses are the labeled hosts a labeled sweep would keep: the earliest
pairwise non-isomorphic maximal hosts in pool-then-rank order, where a
pool is every pair or the cross pairs of one bipartition side and ranks
order a pool's e-subsets lexicographically. The budget counts those
labeled subsets, the walk's worst case, and is checked from closed-form
pool sizes before anything is built. Each pool's ranks split into
contiguous shards. A shard walks its range as an islice of
itertools.combinations, builds a host only when its sorted degree
sequence is that of a maximal class it does not hold yet, and stops once
it holds the witnesses asked for or one host of every maximal class its
pool can hold. One deterministic merge in pool-then-rank order keeps the
earliest pairwise non-isomorphic witnesses, so parallel and serial runs
return identical records.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from math import comb, perm

from .constructions import bipartite_edge_max, check_edge_count, small_side
from .counting import PatternCounter, automorphism_count, count_copies
from .graphs import Graph, GraphError, are_isomorphic, complement, make_graph, two_coloring

DEFAULT_BUDGET = 10**8
DEFAULT_WITNESSES = 3


class EnumerationBudgetError(RuntimeError):
    """The requested sweep is larger than the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} hosts, above the budget of {budget}; "
            "raise the budget to force the run"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True, slots=True)
class ExtremalRecord:
    """Result of one exhaustive sweep, witnesses deduplicated by isomorphism."""

    n: int
    e: int
    pattern: Graph
    host_class: str
    maximum: int
    witnesses: tuple[Graph, ...]


def _star_leaf_count(H: Graph) -> int | None:
    """Leaf count when H is a star (including the single edge), else None."""
    if H.n < 2 or H.edge_count != H.n - 1:
        return None
    if max(H.degrees) != H.n - 1:
        return None
    return H.n - 1


def _pool(n: int, p: int | None):
    """Candidate pairs: every pair when p is None, else the cross pairs i < p <= j."""
    if p is None:
        return combinations(range(n), 2)
    return ((i, j) for i in range(p) for j in range(p, n))


def _left_sizes(G: Graph) -> set[int]:
    """Every left-part size of a two-coloring of bipartite G, each component colored either way."""
    component, color = two_coloring(G)
    sides = [[0, 0] for _ in range(max(component, default=-1) + 1)]
    for c, k in zip(component, color):
        sides[c][k] += 1
    sizes = {0}
    for a, b in sides:
        sizes = {s + a for s in sizes} | {s + b for s in sizes}
    return sizes


def _vertex_invariants(masks: list[int]) -> list[tuple[int, ...]]:
    """Each vertex's degree, then how many of its neighbors have each degree present."""
    degrees = [m.bit_count() for m in masks]
    cells: dict[int, int] = {}
    for v, d in enumerate(degrees):
        cells[d] = cells.get(d, 0) | 1 << v
    by_degree = [cells[d] for d in sorted(cells)]
    return [(d, *((m & c).bit_count() for c in by_degree)) for d, m in zip(degrees, masks)]


def _children(G: Graph, host_class: str):
    """Yield (u, v, key): an edge to add to G and the invariant key of G plus that edge.

    An edge is tried at only the first vertex of each set of false twins
    (equal neighborhoods), or at the first two within one set, since a
    transposition of twins is an automorphism. The child must stay in
    host_class, and its added edge must have the largest edge invariant
    (the larger end's vertex invariant, then the smaller end's): every
    class has such an edge, whose deletion reaches some class one level
    down, so no class is lost. The key hashes the sorted vertex
    invariants; unequal invariants with equal hashes only share a bucket,
    which costs an isomorphism test, never a class.
    """
    n = G.n
    masks = [sum(1 << w for w in a) for a in G.adj]
    degrees = G.degrees
    top = max(degrees, default=0)
    first: dict[int, int] = {}
    reps, pairs = [], []
    for v, m in enumerate(masks):
        t = first.setdefault(m, v)
        if t == v:
            reps.append(v)
        elif t >= 0:
            pairs.append((t, v))
            first[m] = -1
    pairs += [(u, v) for u, v in combinations(reps, 2) if not masks[u] >> v & 1]
    if host_class == "bipartite":
        component, color = two_coloring(G)
    for u, v in pairs:
        if max(degrees[u], degrees[v]) + 1 < top:
            continue
        if host_class == "triangle_free" and masks[u] & masks[v]:
            continue
        if host_class == "bipartite" and (component[u], color[u]) == (component[v], color[v]):
            continue
        child = masks.copy()
        child[u] |= 1 << v
        child[v] |= 1 << u
        inv = _vertex_invariants(child)
        best = max(inv)
        if max(inv[u], inv[v]) < best:
            continue
        reach = 0
        for x in range(n):
            if inv[x] == best:
                reach |= child[x]
        if min(inv[u], inv[v]) < max(inv[w] for w in range(n) if reach >> w & 1):
            continue
        yield u, v, hash(tuple(sorted(inv)))


def _classes(n: int, e: int, host_class: str):
    """Yield one graph per isomorphism class of the e-edge hosts of host_class on n vertices.

    A level holds edge tuples, not graphs: a graph is built only to expand
    a class or to test two children of one bucket for isomorphism, so
    memory stays near one level of tuples.
    """
    flip = host_class == "all" and 2 * e > comb(n, 2)
    level: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(comb(n, 2) - e if flip else e):
        buckets: dict[int, list[tuple[tuple[int, int], ...]]] = {}
        for edges in level:
            for u, v, key in _children(make_graph(n, edges), host_class):
                child = (*edges, (u, v))
                bucket = buckets.setdefault(key, [])
                if bucket:
                    G = make_graph(n, child)
                    if any(are_isomorphic(G, make_graph(n, c)) for c in bucket):
                        continue
                bucket.append(child)
        level = [c for bucket in buckets.values() for c in bucket]
    for edges in level:
        G = make_graph(n, edges)
        yield complement(G) if flip else G


def _scan_shard(
    n: int,
    p: int | None,
    e: int,
    start: int,
    stop: int,
    targets: list[Graph],
    keep: int,
) -> list[Graph]:
    """The earliest host of each class in targets among the ranks [start, stop).

    The ranks order the e-subsets of _pool(n, p) lexicographically. A host
    is built only when its sorted degree sequence is that of a target class
    not held yet, and the walk stops once it holds keep hosts or one of
    every target. Rank 0 is the pool's first e pairs, taken directly, so a
    pool with a single e-subset (e = 0 or e the pool size) is never
    expanded by combinations.
    """
    pending: dict[tuple[int, ...], list[Graph]] = {}
    for G in targets:
        pending.setdefault(tuple(sorted(G.degrees)), []).append(G)
    want = min(keep, len(targets))
    if stop == 1:
        hosts = [tuple(islice(_pool(n, p), e))]
    else:
        hosts = islice(combinations(_pool(n, p), e), start, stop)
    wits: list[Graph] = []
    for combo in hosts:
        deg = [0] * n
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
        classes = pending.get(tuple(sorted(deg)))
        if not classes:
            continue
        g = make_graph(n, combo)
        for i, c in enumerate(classes):
            if are_isomorphic(g, c):
                del classes[i]
                wits.append(g)
                break
        if len(wits) == want:
            break
    return wits


def _sweep(
    n: int,
    e: int,
    H: Graph,
    host_class: str,
    sides: range | list[None],
    budget: int,
    witnesses: int,
    threads: int,
) -> ExtremalRecord:
    """Check the budget from the pool sizes, score each class once, walk the pools for witnesses."""
    totals = [comb(comb(n, 2) if p is None else p * (n - p), e) for p in sides]
    required = sum(totals)
    if required > budget:
        raise EnumerationBudgetError(required, budget)
    star_k = _star_leaf_count(H)
    counter = PatternCounter(H) if star_k is None else None
    best, maximal = -1, []
    for G in _classes(n, e, host_class):
        if counter is None:
            score = sum(map(perm, G.degrees, repeat(star_k)))
        else:
            score = counter.count(G.adj, G.degrees)
        if score > best:
            best, maximal = score, []
        if score == best:
            maximal.append(G)

    workers = min(threads, os.cpu_count() or 1)
    shards = 1 if workers <= 1 or required < 4 * workers else workers
    jobs = []
    for p, total in zip(sides, totals):
        targets = [G for G in maximal if p is None or p in _left_sizes(G)]
        if witnesses < 1 or not targets:
            continue
        bounds = [total * i // shards for i in range(shards + 1)]
        jobs += [
            (n, p, e, start, stop, targets, witnesses)
            for start, stop in zip(bounds, bounds[1:])
            if start < stop
        ]
    if shards == 1 or not jobs:
        results = [_scan_shard(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_scan_shard, *zip(*jobs)))

    kept: list[Graph] = []
    for g in chain.from_iterable(results):
        if len(kept) < witnesses and not any(are_isomorphic(g, w) for w in kept):
            kept.append(g)
    aut = automorphism_count(H)
    if best % aut:
        raise RuntimeError(f"injective hom count {best} not divisible by {aut} automorphisms")
    maximum = best // aut
    for w in kept:
        check = count_copies(H, w)
        if check != maximum:
            raise RuntimeError(f"witness scores {check} but the sweep reports {maximum}")
    return ExtremalRecord(n, e, H, host_class, maximum, tuple(kept))


def ex_oracle(
    n: int,
    e: int,
    H: Graph,
    *,
    budget: int = DEFAULT_BUDGET,
    witnesses: int = DEFAULT_WITNESSES,
    threads: int = 1,
) -> ExtremalRecord:
    """Exact maximum of N(H, G) over all labeled e-edge hosts on n vertices."""
    check_edge_count(n, e, comb(n, 2))
    return _sweep(n, e, H, "all", [None], budget, witnesses, threads)


def ex_bip_oracle(
    n: int,
    e: int,
    H: Graph,
    *,
    budget: int = DEFAULT_BUDGET,
    witnesses: int = DEFAULT_WITNESSES,
    threads: int = 1,
) -> ExtremalRecord:
    """Exact maximum of N(H, B) over bipartite e-edge hosts on n vertices.

    The maximum is taken over the bipartite classes. Witnesses come from
    one pool per small-side size p with p(n - p) >= e: the left part is
    the lowest p labels, and a pool is walked only for the maximal classes
    with a p-vertex left part. At e = 0 the p = 0 pool supplies the empty
    host.
    """
    check_edge_count(n, e, bipartite_edge_max(n))
    sides = range(small_side(n, e), n // 2 + 1)
    return _sweep(n, e, H, "bipartite", sides, budget, witnesses, threads)


def ex_trifree_oracle(
    n: int,
    e: int,
    H: Graph,
    *,
    budget: int = DEFAULT_BUDGET,
    witnesses: int = DEFAULT_WITNESSES,
    threads: int = 1,
) -> ExtremalRecord:
    """Exact maximum of N(H, G) over triangle-free e-edge hosts."""
    check_edge_count(n, e, comb(n, 2))
    top = bipartite_edge_max(n)
    if e > top:
        raise GraphError(f"no triangle-free host exists: {e} edges exceed the bound {top}")
    return _sweep(n, e, H, "triangle_free", [None], budget, witnesses, threads)


def nonmonotonicity_demo(**kwargs) -> tuple[int, int]:
    """Bipartite maxima of the 2-leaf star at (n, e) = (8, 12) and (8, 13).

    More edges, strictly fewer stars: the 12-edge optimum is a complete
    bipartite graph already using every allowed vertex, so the 13-edge
    problem cannot extend it.
    """
    pattern = make_graph(3, [(0, 1), (0, 2)])
    first = ex_bip_oracle(8, 12, pattern, **kwargs)
    second = ex_bip_oracle(8, 13, pattern, **kwargs)
    if first.maximum <= second.maximum:
        raise RuntimeError(
            f"expected a strict drop, got {first.maximum} and {second.maximum}"
        )
    return (first.maximum, second.maximum)
