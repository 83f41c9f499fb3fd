"""Cross-checks against an unrelated library implementation (optional).

These tests compare the in-house isomorphism and injective homomorphism
machinery with networkx's VF2 matcher on random instances and with its
atlas of small graphs; they are skipped silently when networkx is not
installed.
"""
import random
from itertools import combinations

import pytest

nx = pytest.importorskip("networkx")

from excount.counting import automorphism_count, inj_homs
from excount.graphs import are_isomorphic, make_graph
from test_graphs import relabeled


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def random_graph(rng, nmax):
    n = rng.randint(1, nmax)
    pool = list(combinations(range(n), 2))
    return make_graph(n, rng.sample(pool, rng.randint(0, len(pool))))


def test_isomorphism_agrees_with_vf2():
    rng = random.Random(101)
    for _ in range(120):
        g = random_graph(rng, 7)
        h = random_graph(rng, 7)
        assert are_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))
        # the same pair padded to one size with isolated vertices
        n = max(g.n, h.n) + 3
        g, h = make_graph(n, g.edges), make_graph(n, h.edges)
        assert are_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_isomorphism_separates_the_atlas_classes():
    # the atlas lists each class on at most 7 vertices once, so distinct entries are not isomorphic
    atlas = [make_graph(g.number_of_nodes(), g.edges()) for g in nx.graph_atlas_g()]
    rng = random.Random(109)
    assert all(are_isomorphic(g, relabeled(g, rng)) for g in atlas)
    pairs = [(g, h) for g, h in combinations(atlas, 2) if g.n == h.n and sorted(g.degrees) == sorted(h.degrees)]
    assert len(pairs) == 3375
    assert not any(are_isomorphic(g, h) for g, h in pairs)


def test_automorphism_count_agrees_with_vf2():
    # every graph of the atlas: all 1,253 classes on at most 7 vertices
    for g in nx.graph_atlas_g():
        h = make_graph(g.number_of_nodes(), g.edges())
        matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
        assert automorphism_count(h) == sum(1 for _ in matcher.isomorphisms_iter())


def test_inj_homs_agree_with_vf2_monomorphisms():
    rng = random.Random(107)
    for _ in range(40):
        pattern = random_graph(rng, 4)
        host = random_graph(rng, 6)
        matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(host), to_nx(pattern))
        mono = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert inj_homs(pattern, host) == mono
