"""The three edge-budget extremal families.

For n vertices and e edges these build the quasi-clique (a clique plus one
partial vertex plus isolated vertices), the quasi-star (its complement
family), and the quasi-complete bipartite graph (a complete bipartite
graph with the surplus edges deleted at a single vertex).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import Graph, GraphError, complement, empty_graph, make_graph


@dataclass(frozen=True, slots=True)
class CliqueDecomposition:
    """e = C(a, 2) + b with 0 <= b < a."""

    a: int
    b: int


def clique_decomposition(e: int) -> CliqueDecomposition:
    if e < 0:
        raise GraphError(f"edge count must be non-negative, got {e}")
    a = 1
    while comb(a + 1, 2) <= e:
        a += 1
    b = e - comb(a, 2)
    if not 0 <= b < a:
        raise RuntimeError(f"decomposition {e} = C({a}, 2) + {b} needs 0 <= b < a")
    return CliqueDecomposition(a, b)


def quasi_clique(n: int, e: int) -> Graph:
    """Clique on 0..a-1; if b > 0 vertex a is joined to 0..b-1; rest isolated."""
    if not 0 <= e <= comb(n, 2):
        raise GraphError(f"edge count {e} outside [0, {comb(n, 2)}] for n={n}")
    dec = clique_decomposition(e)
    edges = list(combinations(range(dec.a), 2))
    edges.extend((i, dec.a) for i in range(dec.b))
    return make_graph(n, edges)


def quasi_star(n: int, e: int) -> Graph:
    """Complement of the quasi-clique on the complementary edge budget."""
    if not 0 <= e <= comb(n, 2):
        raise GraphError(f"edge count {e} outside [0, {comb(n, 2)}] for n={n}")
    return complement(quasi_clique(n, comb(n, 2) - e))


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
    if e < 1:
        raise GraphError(f"shape is defined for e >= 1, got {e}")
    if e > n * n // 4:
        raise GraphError(f"edge count {e} exceeds bipartite maximum {n * n // 4} for n={n}")
    t = 1
    while t * (n - t) < e:
        t += 1
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
    if not 0 <= e <= n * n // 4:
        raise GraphError(f"edge count {e} outside [0, {n * n // 4}] for n={n}")
    if e == 0:
        return empty_graph(n)
    shape = bipartite_shape(n, e)
    t = shape.t
    deleted = {(0, n - 1 - r) for r in range(shape.deficiency)}
    edges = [
        (i, j)
        for i in range(t)
        for j in range(t, n)
        if (i, j) not in deleted
    ]
    return make_graph(n, edges)
