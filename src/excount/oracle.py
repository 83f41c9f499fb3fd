"""Independent ground truth by exhaustive generation of host classes.

The maximum of N(H, G) over the e-edge hosts on n vertices (all of them,
the bipartite ones or the triangle-free ones) is found by scoring one
representative of each isomorphism class once: its first host, the
lowest-rank labeled copy in the every-pair pool. Classes are built one
edge level at a time by Read's orderly generation ("Every one a winner",
1978), see `_classes`: deleting a first host's last pair leaves a first
host, so a child adds a later pair to a class one level down and is kept
only if it is a first host, and each class is reached once. That test and
the witness search below are one first-labeling search after McKay and
Piperno (J. Symb. Comput. 2014), see `_first_labeling`. Only all-host
levels flip: above C(n, 2) / 2 edges they are the complements of the
sparse level. Between calls only the levels of the last (n, host_class)
are kept, the ones a call within its budget generated, so a sweep over e
extends them. The score is the injective homomorphism count from the
backtracking `PatternCounter`, for stars too: it walks a star's leaves as
one twin class, so it visits the C(d, k) terms of the degree formula; the
maximum is that score divided once by the pattern's automorphism count.

Witnesses are the labeled hosts a labeled sweep would keep: the earliest
maximal hosts of distinct classes in pool-then-rank order, where a pool is
every pair or the cross pairs of one bipartition side p (left part 0..p-1)
and ranks order a pool's e-subsets lexicographically. The lowest-rank copy
of a class in each pool comes from the same search, so no labeled host is
walked. The budget still counts the labeled e-subsets of the pools, the
size of the labeled sweep, and is checked from closed-form pool sizes
before anything is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .constructions import bipartite_edge_max, check_edge_count, small_side
from .counting import PatternCounter, automorphism_count, count_copies
from .graphs import Graph, GraphError, complement, make_graph, twin_classes, two_coloring
# bench/tracer.py wraps are_isomorphic here, so it stays imported.
from .graphs import are_isomorphic  # noqa: F401

DEFAULT_BUDGET = 10**8
DEFAULT_WITNESSES = 3
# (n, host_class) and its levels 0..k of first hosts, see `_classes`.
_store: tuple[tuple[int, str] | None, list[list[tuple[tuple[int, int], ...]]]] = (None, [])


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
    """Result of one exhaustive sweep; the witnesses are of distinct classes by construction."""

    n: int
    e: int
    pattern: Graph
    host_class: str
    maximum: int
    witnesses: tuple[Graph, ...]


def _classes(n: int, e: int, host_class: str):
    """Yield one graph per isomorphism class of the e-edge hosts of host_class on n vertices.

    Read's orderly generation: a level holds the first hosts (see
    `_first_host`) with k edges as sorted pair tuples, and a first host
    with k + 1 edges is its parent plus one pair after the parent's last
    pair. Deleting the last pair of a first host leaves a first host, since
    a lesser relabeling of the rest, with the last pair relabeled alike,
    would sort below the whole; both filtered host classes are closed
    under edge deletion. So each class is reached from exactly one parent,
    a child is kept only if it is a first host, and nothing is
    deduplicated. A child leaving host_class is dropped at its added pair.
    A first host's isolated vertices take the last labels, so a parent
    with edges on vertices 0..k-1 takes only a pair within 0..k or the pair
    (k, k + 1). Levels are tuples in a one-entry store, the levels 0..k of
    the last (n, host_class): a call reads its level there or extends a
    copy and rebinds the store at once, so a published level never changes
    and concurrent callers at worst repeat work; another (n, host_class)
    replaces the store. A Graph is built for a yielded class and for each
    bipartite parent's two-coloring.
    """
    global _store
    flip = host_class == "all" and 2 * e > comb(n, 2)
    depth = comb(n, 2) - e if flip else e
    key, (stored, levels) = (n, host_class), _store
    if stored != key or len(levels) <= depth:
        levels = levels.copy() if stored == key else [[()]]
        while len(levels) <= depth:
            children = []
            for edges in levels[-1]:
                masks = [0] * n
                for u, v in edges:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
                k = max(masks).bit_length()
                last = edges[-1] if edges else (0, 0)
                pairs = [
                    (u, v) for u in range(last[0], k) for v in range(u + 1, min(k + 1, n)) if (u, v) > last
                ]
                if k + 1 < n:
                    pairs.append((k, k + 1))
                if host_class == "bipartite":
                    component, color = two_coloring(make_graph(n, edges))
                for u, v in pairs:
                    if host_class == "triangle_free" and masks[u] & masks[v]:
                        continue
                    if host_class == "bipartite" and (component[u], color[u]) == (component[v], color[v]):
                        continue
                    child = masks.copy()
                    child[u] |= 1 << v
                    child[v] |= 1 << u
                    if _is_first_host(child):
                        children.append((*edges, (u, v)))
            levels.append(children)
        _store = key, levels
    for edges in levels[depth]:
        G = make_graph(n, edges)
        yield complement(G) if flip else G


def _first_labeling(
    masks: list[int], twins: list[int], rows: int, cols: int | None, own: list[int] | None = None
) -> list[int] | None:
    """Row vertices, then column vertices, in the label order with the lex-max indicator string.

    The string reads each row over its columns in label order. With cols
    None the pool is every pair: the rows are also the columns, and a
    row's columns are the vertices labeled after it. Otherwise rows is the
    left part and cols the right part. The unlabeled columns form an
    ordered partition into cells; each new label splits every cell into
    its neighbors, then its non-neighbors, so a candidate's best row is
    1^a 0^(s-a) per cell, held as an integer with its first column at bit
    0: a row beats another when it holds their lowest differing bit. With
    every pair a candidate must lie in the first cell. Only the candidates
    with the best row are kept, one per twin class, and states are
    deduplicated by their unlabeled rows and ordered partition, since
    earlier labels do not affect later rows.

    own, if given, holds the rows of the identity labeling in that
    encoding. The search then keeps only candidates whose row equals own's
    and returns None at the first that beats it, so it returns a labeling
    exactly when the identity labeling is already lex-max.
    """
    same = cols is None
    states = {(rows, (rows if same else cols,)): []}
    for i in range(rows.bit_count()):
        best, found = 0 if own is None else own[i], {}
        for (left, cells), seq in states.items():
            pick = cells[0] if same else left
            for twin in twins:
                bit = (m := twin & pick) & -m
                if not bit:
                    continue
                v = bit.bit_length() - 1
                near = masks[v]
                split = (cells[0] ^ bit, *cells[1:]) if same else cells
                row = shift = 0
                for c in split:
                    row |= ((1 << (near & c).bit_count()) - 1) << shift
                    shift += c.bit_count()
                if row != best:
                    if not (d := row ^ best) & -d & row:
                        continue
                    if own is not None:
                        return None
                    best, found = row, {}
                after = tuple(x for c in split for x in (c & near, c & ~near) if x)
                found.setdefault((left ^ bit, after), seq + [v])
        states = found
    (_, cells), seq = next(iter(states.items()))
    return seq + [v for c in cells for v in range(c.bit_length()) if c >> v & 1]


def _is_first_host(masks: list[int]) -> bool:
    """Whether the labeled host whose vertex v has neighbor bitmask masks[v] is its own first host.

    The vertices after the last one with edges are isolated and already
    take the last labels, so the search runs on the others. A vertex's row
    in the identity labeling, over the vertices after it, is its mask
    shifted down past its own label.
    """
    live = masks[:max(masks).bit_length()]
    twins = [sum(1 << v for v in members) for members in twin_classes(live)]
    own = [m >> v + 1 for v, m in enumerate(live)]
    return _first_labeling(live, twins, (1 << len(live)) - 1, None, own) is not None


def _first_host(G: Graph, p: int | None) -> tuple[tuple[int, int], ...] | None:
    """The lowest-rank labeled copy of G in pool p as sorted pairs, or None if p holds none.

    Pool None is every pair; pool p is the cross pairs of left part
    0..p-1. Pairs in row order sort as their ranks, so the least sorted
    pair tuple is the lowest rank. For pool p every two-coloring of the
    components with edges that reaches p left vertices once isolated
    vertices are added is searched, keeping the least host. Isolated
    vertices take the last labels: the last left labels, then the last
    right labels. Permuting twins is an automorphism, so the search tries
    one member of each `twin_classes` class among the vertices with edges.
    """
    masks = [sum(1 << w for w in a) for a in G.adj]
    live = [v for v in range(G.n) if masks[v]]
    isolated = [v for v in range(G.n) if not masks[v]]
    twins = [sum(1 << v for v in members) for members in twin_classes(masks) if masks[members[0]]]
    everyone = sum(1 << v for v in live)
    if p is None:
        orders = [_first_labeling(masks, twins, everyone, None) + isolated]
    else:
        component, color = two_coloring(G)
        sides: dict[int, list[int]] = {}
        for v in live:
            sides.setdefault(component[v], [0, 0])[color[v]] |= 1 << v
        orders = []
        for flips in product((0, 1), repeat=len(sides)):
            left = sum(map(list.__getitem__, sides.values(), flips))
            k, rows = p - left.bit_count(), left.bit_count()
            if 0 <= k <= len(isolated):
                order = _first_labeling(masks, twins, left, everyone ^ left)
                orders.append(order[:rows] + isolated[:k] + order[rows:] + isolated[k:])
    hosts = []
    for order in orders:
        label = [0] * G.n
        for i, v in enumerate(order):
            label[v] = i
        hosts.append(tuple(
            (i, j) for i, v in enumerate(order) for j in sorted([label[w] for w in G.adj[v]]) if j > i
        ))
    return min(hosts, default=None)


def _sweep(
    n: int,
    e: int,
    H: Graph,
    host_class: str,
    sides: range | list[None],
    budget: int,
    witnesses: int,
) -> ExtremalRecord:
    """Check the budget from the pool sizes, score each class once, search the maximal ones for witnesses.

    Every class is scored by one `PatternCounter` for H. A maximal class is
    keyed by the first pool in sides that holds it and its lowest-rank copy
    there; the witnesses are the first keys.
    """
    if witnesses < 0:
        raise ValueError(f"witness count must be non-negative, got {witnesses}")
    required = sum(comb(comb(n, 2) if p is None else p * (n - p), e) for p in sides)
    if required > budget:
        raise EnumerationBudgetError(required, budget)
    counter = PatternCounter(H)
    best, maximal = -1, []
    for G in _classes(n, e, host_class):
        score = counter.count(G)
        if score > best:
            best, maximal = score, []
        if score == best:
            maximal.append(G)

    keys = []
    for G in maximal if witnesses > 0 else ():
        hosts = (_first_host(G, p) for p in sides)
        keys.append(next((i, host) for i, host in enumerate(hosts) if host is not None))
    kept = [make_graph(n, host) for _, host in sorted(keys)[:witnesses]]
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
    """Exact maximum of N(H, G) over all labeled e-edge hosts on n vertices.

    threads is accepted for compatibility and selects no code path: every
    sweep runs in the calling thread.
    """
    check_edge_count(n, e, comb(n, 2))
    return _sweep(n, e, H, "all", [None], budget, witnesses)


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
    one pool per small-side size p with p(n - p) >= e, whose left part is
    the lowest p labels: each maximal class takes its lowest-rank copy in
    the first pool where it has a p-vertex left part. At e = 0 the p = 0
    pool supplies the empty host. threads selects no code path, as in
    `ex_oracle`.
    """
    check_edge_count(n, e, bipartite_edge_max(n))
    sides = range(small_side(n, e), n // 2 + 1)
    return _sweep(n, e, H, "bipartite", sides, budget, witnesses)


def ex_trifree_oracle(
    n: int,
    e: int,
    H: Graph,
    *,
    budget: int = DEFAULT_BUDGET,
    witnesses: int = DEFAULT_WITNESSES,
    threads: int = 1,
) -> ExtremalRecord:
    """Exact maximum of N(H, G) over triangle-free e-edge hosts; threads as in `ex_oracle`."""
    check_edge_count(n, e, comb(n, 2))
    top = bipartite_edge_max(n)
    if e > top:
        raise GraphError(f"no triangle-free host exists: {e} edges exceed the bound {top}")
    return _sweep(n, e, H, "triangle_free", [None], budget, witnesses)


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
