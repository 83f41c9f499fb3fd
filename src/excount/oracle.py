"""Independent ground truth by exhaustive host enumeration.

The maximum of N(H, G) over labeled e-edge hosts on n vertices is
computed by one sweep over every e-subset of each pair pool (all pairs,
or the cross pairs of one bipartition side), with no canonical-form
reduction; isomorphism deduplication is applied only to the reported
witnesses. The budget is checked from the pool sizes before any pool is
built. Each pool's subset space splits into contiguous lexicographic
rank ranges; each shard builds its pool and walks its range as an islice
of itertools.combinations over the pairs. A shard drops hosts with a
triangle when asked, scores the rest by the injective homomorphism count
(the degree formula for star patterns, the backtracking counter
otherwise) and keeps its local maximum. One deterministic merge in
pool-then-rank order keeps the global maximum with the earliest pairwise
non-isomorphic witnesses, so parallel and serial runs return identical
records; the maximum is that score divided once by the pattern's
automorphism count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, perm

from .constructions import check_edge_count, small_side
from .counting import PatternCounter, automorphism_count, count_copies
from .graphs import Graph, GraphError, are_isomorphic, make_graph

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


def _has_triangle(n: int, edges) -> bool:
    """True iff some edge joins two vertices that already share a neighbour."""
    nbrs = [0] * n
    for u, v in edges:
        if nbrs[u] & nbrs[v]:
            return True
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return False


def _add_witness(kept: list[Graph], g: Graph, keep: int) -> None:
    """Hold g unless keep witnesses are held or one of them is isomorphic to g."""
    if len(kept) < keep and not any(are_isomorphic(g, w) for w in kept):
        kept.append(g)


def _scan_shard(
    n: int,
    p: int | None,
    e: int,
    start: int,
    stop: int,
    H: Graph,
    triangle_free_only: bool,
    keep: int,
) -> tuple[int, list[Graph]]:
    """Scan the ranks [start, stop) of the e-subsets of _pool(n, p); return max, witnesses.

    Each host is a tuple of pairs. With triangle_free_only it is dropped at
    the first pair whose ends already share a neighbour, which catches every
    triangle at its last pair. The score is H's injective homomorphism count:
    the sum of d!/(d-k)! over the degrees for a k-leaf star, else the counter.
    """
    star_k = _star_leaf_count(H)
    counter = PatternCounter(H) if star_k is None else None
    lut = None if star_k is None else [perm(d, star_k) for d in range(n)]

    best = -1
    wits: list[Graph] = []
    for combo in islice(combinations(_pool(n, p), e), start, stop):
        if triangle_free_only and _has_triangle(n, combo):
            continue
        if lut is not None:
            deg = [0] * n
            for u, v in combo:
                deg[u] += 1
                deg[v] += 1
            score = sum(map(lut.__getitem__, deg))
        else:
            adj: list[set[int]] = [set() for _ in range(n)]
            for u, v in combo:
                adj[u].add(v)
                adj[v].add(u)
            score = counter.count(adj, [len(s) for s in adj])
        if score > best:
            best, wits = score, []
        if score == best and len(wits) < keep:
            _add_witness(wits, make_graph(n, combo), keep)
    return (best, wits)


def _sweep(
    n: int,
    e: int,
    H: Graph,
    host_class: str,
    sides: range | list[None],
    triangle_free_only: bool,
    budget: int,
    witnesses: int,
    threads: int,
) -> ExtremalRecord:
    """Check the budget from the pool sizes, then score every pool's e-subsets and merge."""
    totals = [comb(comb(n, 2) if p is None else p * (n - p), e) for p in sides]
    required = sum(totals)
    if required > budget:
        raise EnumerationBudgetError(required, budget)
    workers = min(threads, os.cpu_count() or 1)
    shards = 1 if workers <= 1 or required < 4 * workers else workers
    jobs = []
    for p, total in zip(sides, totals):
        bounds = [total * i // shards for i in range(shards + 1)]
        jobs += [
            (n, p, e, start, stop, H, triangle_free_only, witnesses)
            for start, stop in zip(bounds, bounds[1:])
            if start < stop
        ]
    if shards == 1:
        results = list(map(_scan_shard, *zip(*jobs)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_scan_shard, *zip(*jobs)))

    best = max(score for score, _ in results)
    if best < 0:
        raise GraphError("enumeration produced no hosts")
    kept: list[Graph] = []
    for score, wits in results:
        if score == best:
            for g in wits:
                _add_witness(kept, g, witnesses)
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
    return _sweep(n, e, H, "all", [None], False, budget, witnesses, threads)


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

    For each small-side size p with p(n - p) >= e the left part is fixed
    to the lowest p labels and every e-subset of the cross pairs is
    scanned; together with labeled enumeration this reaches every
    bipartite host up to isomorphism. At e = 0 the p = 0 pool supplies the
    empty host.
    """
    check_edge_count(n, e, n * n // 4)
    sides = range(small_side(n, e), n // 2 + 1)
    return _sweep(n, e, H, "bipartite", sides, False, budget, witnesses, threads)


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
    if e > n * n // 4:
        raise GraphError(
            f"no triangle-free host exists: {e} edges exceed the bound {n * n // 4}"
        )
    return _sweep(n, e, H, "triangle_free", [None], True, budget, witnesses, threads)


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
