"""The three edge-budget extremal families.

For n vertices and e edges these build the quasi-clique (a clique plus one
partial vertex plus isolated vertices), the quasi-star (its complement
family), and the quasi-complete bipartite graph (a complete bipartite
graph with the surplus edges deleted at a single vertex).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt

from .graphs import Graph, GraphError, empty_graph, make_graph
# bench/tracer.py wraps complement here, so it stays imported.
from .graphs import complement  # noqa: F401


@dataclass(frozen=True, slots=True)
class CliqueDecomposition:
    """e = C(a, 2) + b with 0 <= b < a."""

    a: int
    b: int


def clique_decomposition(e: int) -> CliqueDecomposition:
    if e < 0:
        raise GraphError(f"edge count must be non-negative, got {e}")
    a = (1 + isqrt(8 * e + 1)) // 2
    b = e - comb(a, 2)
    if not 0 <= b < a:
        raise RuntimeError(f"decomposition {e} = C({a}, 2) + {b} needs 0 <= b < a")
    return CliqueDecomposition(a, b)


def check_edge_count(n: int, e: int, top: int) -> None:
    """Raise GraphError unless 0 <= e <= top, the edge budget of an n-vertex host class."""
    if not 0 <= e <= top:
        raise GraphError(f"edge count {e} outside [0, {top}] for n={n}")


def bipartite_edge_max(n: int) -> int:
    """floor(n^2 / 4), the most edges of a bipartite (or triangle-free) host on n vertices."""
    return n * n // 4


def small_side(n: int, e: int) -> int:
    """Least t with t(n - t) >= e, for 0 <= e <= n^2/4: the small side of B_n^e."""
    return (n - isqrt(n * n - 4 * e) + 1) // 2


def quasi_clique(n: int, e: int) -> Graph:
    """Clique on 0..a-1; if b > 0 vertex a is joined to 0..b-1; rest isolated."""
    check_edge_count(n, e, comb(n, 2))
    dec = clique_decomposition(e)
    edges = list(combinations(range(dec.a), 2))
    edges.extend((i, dec.a) for i in range(dec.b))
    return make_graph(n, edges)


def quasi_star(n: int, e: int) -> Graph:
    """Complement of the quasi-clique on the complementary edge budget, built directly.

    With C(n, 2) - e = C(a, 2) + b, vertices a+1..n-1 are joined to every
    vertex and vertex a, if a < n, to b..a-1. Pairs come in the order
    `complement` lists them; a vertex below b has none unless a + 1 < n.
    """
    check_edge_count(n, e, comb(n, 2))
    dec = clique_decomposition(comb(n, 2) - e)
    a, b = dec.a, dec.b
    first = 0 if a + 1 < n else b
    return make_graph(n, [(u, v) for u in range(first, n) for v in range(max(u + 1, a + (u < b)), n)])


def family_degrees(n: int, e: int) -> tuple[list[int], list[int]]:
    """Degree sequences of quasi_clique(n, e) and quasi_star(n, e), without building them."""
    check_edge_count(n, e, comb(n, 2))
    clique, complement_clique = (
        ([dec.a] * dec.b + [dec.a - 1] * (dec.a - dec.b) + [dec.b] + [0] * n)[:n]
        for dec in map(clique_decomposition, (e, comb(n, 2) - e))
    )
    return clique, [n - 1 - d for d in complement_clique]


@dataclass(frozen=True, slots=True)
class BipartiteShape:
    """Shape parameters of the quasi-complete bipartite graph.

    t is minimal with t(n-t) >= e; deficiency counts the edges deleted at
    the single deficient vertex, which keeps degree >= t whenever e >= 1.
    """

    t: int
    deficiency: int
    deficient_vertex_degree: int


def bipartite_shape(n: int, e: int) -> BipartiteShape:
    check_edge_count(n, e, bipartite_edge_max(n))
    if e < 1:
        raise GraphError(f"shape is defined for e >= 1, got {e}")
    t = small_side(n, e)
    deficiency = t * (n - t) - e
    degree = (n - t) - deficiency
    if not (1 <= t <= n // 2 and degree >= t):
        raise RuntimeError(f"shape t={t}, degree={degree} is invalid for n={n}, e={e}")
    return BipartiteShape(t, deficiency, degree)


def quasi_complete_bipartite(n: int, e: int) -> Graph:
    """K_{t,n-t} with the deficiency removed at vertex 0 of the small side.

    The small side is 0..t-1, the large side t..n-1, and the deleted edges
    join vertex 0 to the highest-labeled large-side vertices. For e = 0
    the graph is empty (the shape parameter t is undefined there).
    """
    if e == 0:
        return empty_graph(n)
    shape = bipartite_shape(n, e)
    t = shape.t
    deleted = {(0, n - 1 - r) for r in range(shape.deficiency)}
    edges = [(i, j) for i in range(t) for j in range(t, n) if (i, j) not in deleted]
    return make_graph(n, edges)
