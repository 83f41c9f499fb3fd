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
of a class in the first pool that holds it comes from the same search, so
no labeled host is walked. The budget counts the labeled hosts of the
largest level built and is checked before anything is built, see `_sweep`.
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
    """The largest level the requested sweep builds holds more labeled hosts than the budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs at least {required} hosts, above the budget of {budget}; "
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


def _depth(n: int, e: int, host_class: str) -> int:
    """The last level `_classes` builds: all-host levels above C(n, 2) / 2 edges are complements."""
    return comb(n, 2) - e if host_class == "all" and 2 * e > comb(n, 2) else e


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
    depth = _depth(n, e, host_class)
    flip = depth < e
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
    masks: list[int], rows: int, cols: int | None, own: list[int] | None = None
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
    with the best row are kept, one per `twin_classes` class of masks, as
    permuting twins is an automorphism, and states are deduplicated by
    their unlabeled rows and ordered partition: earlier labels do not
    affect later rows.

    own, if given, holds the rows of the identity labeling in that
    encoding. The search then keeps only candidates whose row equals own's
    and returns None at the first that beats it, so it returns a labeling
    exactly when the identity labeling is already lex-max.
    """
    twins = [sum(1 << v for v in members) for members in twin_classes(masks)]
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
    own = [m >> v + 1 for v, m in enumerate(live)]
    return _first_labeling(live, (1 << len(live)) - 1, None, own) is not None


def _first_host(G: Graph, sides: range | list[None]) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """(Index of the first pool in sides that holds G, G's lowest-rank copy there), or None if none does.

    Pool None is every pair; pool p is the cross pairs of left part
    0..p-1. Pairs in row order sort as their ranks, so the least sorted
    pair tuple is the lowest rank. Pool p holds G when a two-coloring of
    the components with edges reaches p left vertices once isolated
    vertices are added; each such coloring of the first pool is searched,
    keeping the least host. Isolated vertices take the last labels: the
    last left labels, then the last right labels.
    """
    masks = [sum(1 << w for w in a) for a in G.adj]
    live = [v for v in range(G.n) if masks[v]]
    isolated = [v for v in range(G.n) if not masks[v]]
    everyone = sum(1 << v for v in live)
    if sides[0] is None:
        index, orders = 0, [_first_labeling(masks, everyone, None) + isolated]
    else:
        component, color = two_coloring(G)
        parts: dict[int, list[int]] = {}
        for v in live:
            parts.setdefault(component[v], [0, 0])[color[v]] |= 1 << v
        lefts = [sum(map(list.__getitem__, parts.values(), f)) for f in product((0, 1), repeat=len(parts))]
        fits = ([left for left in lefts if 0 <= p - left.bit_count() <= len(isolated)] for p in sides)
        index, fit = next(((i, fit) for i, fit in enumerate(fits) if fit), (None, []))
        orders = []
        for left in fit:
            rows, k = left.bit_count(), sides[index] - left.bit_count()
            order = _first_labeling(masks, left, everyone ^ left)
            orders.append(order[:rows] + isolated[:k] + order[rows:] + isolated[k:])
    labels = [dict(zip(order, range(G.n))) for order in orders]
    hosts = [sorted((min(at[u], at[v]), max(at[u], at[v])) for u, v in G.edges) for at in labels]
    return (index, tuple(min(hosts))) if hosts else None


def _sweep(
    n: int,
    e: int,
    H: Graph,
    host_class: str,
    sides: range | list[None],
    budget: int,
    witnesses: int,
) -> ExtremalRecord:
    """Check the budget, score each class once, search the maximal ones for witnesses.

    The budget counts C(m, min(depth, m // 2)) labeled hosts per pool m at
    the largest level `_classes` builds, by partial products that stop past
    it. One `PatternCounter` scores every class; one `_first_host` call per
    maximal class gives its key, and the witnesses are the first keys.
    """
    if witnesses < 0:
        raise ValueError(f"witness count must be non-negative, got {witnesses}")
    depth, required = _depth(n, e, host_class), 0
    for m in (p * (n - p) for p in range(n // 2 + 1)) if host_class == "bipartite" else [comb(n, 2)]:
        hosts = 1
        for i in range(1, min(depth, m // 2) + 1):
            if required + (hosts := hosts * (m - i + 1) // i) > budget:
                break
        if (required := required + hosts) > budget:
            raise EnumerationBudgetError(required, budget)
    counter = PatternCounter(H)
    best, maximal = -1, []
    for G in _classes(n, e, host_class):
        score = counter.count(G)
        if score > best:
            best, maximal = score, []
        if score == best:
            maximal.append(G)

    keys = [_first_host(G, sides) for G in maximal] if witnesses > 0 else []
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


def nonmonotonicity_demo() -> tuple[int, int]:
    """Bipartite maxima of the 2-leaf star at (n, e) = (8, 12) and (8, 13).

    More edges, strictly fewer stars: the 12-edge optimum is a complete
    bipartite graph already using every allowed vertex, so the 13-edge
    problem cannot extend it.
    """
    pattern = make_graph(3, [(0, 1), (0, 2)])
    first = ex_bip_oracle(8, 12, pattern)
    second = ex_bip_oracle(8, 13, pattern)
    if first.maximum <= second.maximum:
        raise RuntimeError(
            f"expected a strict drop, got {first.maximum} and {second.maximum}"
        )
    return (first.maximum, second.maximum)
