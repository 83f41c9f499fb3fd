import tracemalloc
from math import comb

import pytest

from excount.constructions import (
    CliqueDecomposition,
    bipartite_edge_max,
    bipartite_shape,
    check_edge_count,
    clique_decomposition,
    family_degrees,
    quasi_clique,
    quasi_complete_bipartite,
    quasi_star,
    small_side,
)
from excount.graphs import (
    GraphError,
    are_isomorphic,
    bipartition_of,
    complement,
    complete_bipartite,
    complete_graph,
    empty_graph,
)
from test_counting import deadline


class TestCliqueDecomposition:
    def test_exact_binomial(self):
        dec = clique_decomposition(10)
        assert (dec.a, dec.b) == (5, 0)

    def test_with_surplus(self):
        dec = clique_decomposition(11)
        assert (dec.a, dec.b) == (5, 1)

    def test_zero(self):
        dec = clique_decomposition(0)
        assert (dec.a, dec.b) == (1, 0)

    def test_matches_a_search_for_the_largest_clique(self):
        for e in range(10**4):
            a = 1
            while comb(a + 1, 2) <= e:
                a += 1
            assert clique_decomposition(e) == CliqueDecomposition(a, e - comb(a, 2))

    def test_split_of_a_huge_budget(self):
        e = 10**18
        dec = clique_decomposition(e)
        assert comb(dec.a, 2) <= e < comb(dec.a + 1, 2)
        assert 0 <= dec.b < dec.a and comb(dec.a, 2) + dec.b == e

    def test_identity_everywhere(self):
        for e in range(0, 300):
            dec = clique_decomposition(e)
            assert comb(dec.a, 2) + dec.b == e
            assert 0 <= dec.b < dec.a


class TestQuasiClique:
    def test_k5(self):
        assert quasi_clique(5, 10) == complete_graph(5)

    def test_surplus_vertex(self):
        g = quasi_clique(10, 11)
        assert g.edges == complete_graph(5).edges | {(0, 5)}
        assert g.degrees[5] == 1 and g.degrees[6:] == (0, 0, 0, 0)

    def test_too_many_edges(self):
        with pytest.raises(GraphError):
            quasi_clique(4, 7)

    def test_edge_counts(self):
        for n in range(1, 9):
            for e in range(comb(n, 2) + 1):
                assert quasi_clique(n, e).edge_count == e


class TestQuasiStar:
    def test_empty(self):
        assert quasi_star(5, 0) == empty_graph(5)

    def test_star_at_tree_budget(self):
        g = quasi_star(6, 5)
        assert max(g.degrees) == 5 and sorted(g.degrees) == [1, 1, 1, 1, 1, 5]

    def test_complete(self):
        assert quasi_star(4, 6) == complete_graph(4)

    def test_complement_pairing_exhaustive(self):
        # The quasi-star is the complement of the quasi-clique, down to the
        # order in which pairs enter the Graph.
        for n in range(13):
            top = comb(n, 2)
            for e in range(top + 1):
                built, reference = quasi_star(n, top - e), complement(quasi_clique(n, e))
                assert built == reference and list(built.edges) == list(reference.edges)

    def test_wide_host_costs_its_edges_not_its_pairs(self):
        # A complement of the quasi-clique would walk all C(n, 2) pairs.
        tracemalloc.start()
        try:
            with deadline(1):
                g = quasi_star(10**5, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.sorted_edges() == [(99996, 99999), (99997, 99999), (99998, 99999)]
        assert peak < 10 * 2**20


class TestFamilyDegrees:
    def test_matches_built_families(self):
        for n in range(13):
            for e in range(comb(n, 2) + 1):
                assert family_degrees(n, e) == (
                    list(quasi_clique(n, e).degrees),
                    list(quasi_star(n, e).degrees),
                )

    @pytest.mark.parametrize("n, e", [(0, 1), (4, -1), (4, 7), (12, 67)])
    def test_out_of_range_edge_count(self, n, e):
        with pytest.raises(GraphError):
            family_degrees(n, e)


class TestQuasiCompleteBipartite:
    def test_8_12_is_k26(self):
        assert are_isomorphic(quasi_complete_bipartite(8, 12), complete_bipartite(2, 6))

    def test_8_13_degree_multiset(self):
        g = quasi_complete_bipartite(8, 13)
        assert sorted(g.degrees, reverse=True) == [5, 5, 3, 3, 3, 3, 2, 2]

    def test_zero_edges(self):
        assert quasi_complete_bipartite(6, 0) == empty_graph(6)

    def test_too_many_edges(self):
        with pytest.raises(GraphError):
            quasi_complete_bipartite(6, 10)

    def test_bipartite_with_exact_edge_count_sweep(self):
        for n in range(2, 41):
            for e in range(0, n * n // 4 + 1):
                g = quasi_complete_bipartite(n, e)
                assert g.edge_count == e
                assert bipartition_of(g) is not None

    def test_deficient_degree_formula(self):
        for n in range(2, 30):
            for e in range(1, n * n // 4 + 1):
                shape = bipartite_shape(n, e)
                g = quasi_complete_bipartite(n, e)
                assert g.degrees[0] == shape.deficient_vertex_degree
                assert shape.deficient_vertex_degree == e - (shape.t - 1) * (n - shape.t)
                assert shape.deficient_vertex_degree >= shape.t

    def test_shape_t_minimal(self):
        shape = bipartite_shape(8, 13)
        assert (shape.t, shape.deficiency, shape.deficient_vertex_degree) == (3, 2, 3)


class TestEdgeBudget:
    def test_accepts_the_closed_interval(self):
        for e in (0, 5, 10):
            check_edge_count(5, e, 10)

    @pytest.mark.parametrize("e", [-1, 11])
    def test_message(self, e):
        with pytest.raises(GraphError) as info:
            check_edge_count(5, e, 10)
        assert str(info.value) == f"edge count {e} outside [0, 10] for n=5"

    @pytest.mark.parametrize("e", [-1, 17])
    def test_bipartite_budget_is_checked_once_with_the_shared_message(self, e):
        for build in (bipartite_shape, quasi_complete_bipartite):
            with pytest.raises(GraphError) as info:
                build(8, e)
            assert str(info.value) == f"edge count {e} outside [0, 16] for n=8"

    def test_bipartite_edge_max_is_the_largest_balanced_product(self):
        for n in range(60):
            assert bipartite_edge_max(n) == max(p * (n - p) for p in range(n // 2 + 1))


class TestSmallSide:
    def test_equals_the_least_side_by_search(self):
        for n in range(81):
            for e in range(n * n // 4 + 1):
                t = 0
                while t * (n - t) < e:
                    t += 1
                assert small_side(n, e) == t, (n, e)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: clique_decomposition(-1), GraphError, "edge count must be non-negative, got -1"),
        (lambda: bipartite_shape(8, 0), GraphError, "shape is defined for e >= 1, got 0"),
    ],
    ids=["decomposition-e-negative", "shape-e-0"],
)
def test_argument_checks_raise(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and str(info.value) == message
