import os
import tracemalloc
from itertools import combinations
from math import comb

import pytest

import excount.oracle as oracle
from excount.constructions import quasi_clique, quasi_complete_bipartite, quasi_star
from excount.counting import count_copies
from excount.graphs import (
    are_isomorphic,
    bipartition_of,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_triangle_free,
    make_graph,
    path_graph,
    star_graph,
)
from excount.oracle import (
    EnumerationBudgetError,
    ex_bip_oracle,
    ex_oracle,
    ex_trifree_oracle,
    nonmonotonicity_demo,
)


class TestExOracle:
    def test_forced_host_k4_minus_edge(self):
        rec = ex_oracle(4, 5, complete_graph(3))
        assert rec.maximum == 2

    def test_forced_host_k5(self):
        rec = ex_oracle(5, 10, complete_graph(3))
        assert rec.maximum == 10
        assert rec.witnesses[0] == complete_graph(5)

    def test_sandwich_against_construction(self):
        H = path_graph(4)
        rec = ex_oracle(6, 12, H)
        assert rec.maximum >= count_copies(H, quasi_clique(6, 12))

    def test_witnesses_score_the_maximum(self):
        rec = ex_oracle(5, 6, path_graph(4))
        assert rec.witnesses
        for w in rec.witnesses:
            assert count_copies(rec.pattern, w) == rec.maximum

    def test_witnesses_pairwise_non_isomorphic(self):
        rec = ex_oracle(5, 4, path_graph(2))
        for i in range(len(rec.witnesses)):
            for j in range(i + 1, len(rec.witnesses)):
                assert not are_isomorphic(rec.witnesses[i], rec.witnesses[j])

    def test_edge_pattern_maximum_is_e(self):
        for n in range(2, 6):
            for e in range(comb(n, 2) + 1):
                assert ex_oracle(n, e, path_graph(2)).maximum == e

    def test_determinism(self):
        a = ex_oracle(5, 5, star_graph(2))
        b = ex_oracle(5, 5, star_graph(2))
        assert a == b

    def test_general_hosts_are_monotone_in_e(self):
        S2 = star_graph(2)
        values = [ex_oracle(6, e, S2).maximum for e in range(comb(6, 2) + 1)]
        assert values == sorted(values)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError, match="raise the budget"):
            ex_oracle(10, 20, star_graph(2), budget=1000)

    def test_threads_match_serial(self):
        serial = ex_oracle(5, 5, star_graph(2), threads=1)
        parallel = ex_oracle(5, 5, star_graph(2), threads=2)
        assert serial == parallel

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize(
        "sweep, n, e, pattern",
        [
            (ex_oracle, 6, 7, path_graph(4)),
            (ex_trifree_oracle, 6, 7, path_graph(4)),
            (ex_bip_oracle, 8, 10, path_graph(4)),
        ],
        ids=["counter", "triangle-filter", "bipartite-pools"],
    )
    def test_shards_match_serial(self, monkeypatch, sweep, n, e, pattern, threads):
        # Three reported CPUs keep threads=3 from being clamped to fewer shards.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep(n, e, pattern, threads=threads) == sweep(n, e, pattern, threads=1)

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        class InlineExecutor:
            max_workers = []

            def __init__(self, max_workers):
                self.max_workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", InlineExecutor)
        serial = ex_oracle(6, 7, path_graph(4), threads=1)
        clamped = ex_oracle(6, 7, path_graph(4), threads=10**6)
        assert InlineExecutor.max_workers == [2]
        assert clamped == serial


class TestExBipOracle:
    def test_bipartite_maxima_drop_at_eight_vertices(self):
        S2 = star_graph(2)
        rec12 = ex_bip_oracle(8, 12, S2)
        rec13 = ex_bip_oracle(8, 13, S2)
        assert rec12.maximum == 36 and rec13.maximum == 34
        assert any(are_isomorphic(w, quasi_complete_bipartite(8, 12)) for w in rec12.witnesses)

    def test_edge_pattern(self):
        for n in range(2, 6):
            for e in range(n * n // 4 + 1):
                assert ex_bip_oracle(n, e, path_graph(2)).maximum == e

    def test_zero_edges(self):
        rec = ex_bip_oracle(5, 0, star_graph(2))
        assert rec.maximum == 0 and rec.witnesses[0].edge_count == 0

    @pytest.mark.parametrize("n, pattern", [(1, star_graph(2)), (5, path_graph(4))])
    def test_zero_edges_single_empty_witness(self, n, pattern):
        rec = ex_bip_oracle(n, 0, pattern)
        assert rec.maximum == 0
        assert rec.witnesses == (empty_graph(n),)

    def test_infeasible_budget_rejected(self):
        from excount.graphs import GraphError

        with pytest.raises(GraphError):
            ex_bip_oracle(4, 5, star_graph(2))

    def test_witness_is_bipartite(self):
        from excount.graphs import bipartition_of

        rec = ex_bip_oracle(6, 7, star_graph(3))
        for w in rec.witnesses:
            assert bipartition_of(w) is not None


class TestExTrifreeOracle:
    def test_square_is_the_only_host(self):
        rec = ex_trifree_oracle(4, 4, path_graph(4))
        assert rec.maximum == 4
        assert are_isomorphic(rec.witnesses[0], cycle_graph(4))

    def test_sandwich_against_bipartite_construction(self):
        H = path_graph(4)
        rec = ex_trifree_oracle(5, 6, H)
        assert rec.maximum >= count_copies(H, quasi_complete_bipartite(5, 6))

    def test_rejects_beyond_balanced_bound(self):
        from excount.graphs import GraphError

        with pytest.raises(GraphError, match="triangle-free"):
            ex_trifree_oracle(4, 5, path_graph(4))

    def test_witnesses_triangle_free(self):
        from excount.graphs import is_triangle_free

        rec = ex_trifree_oracle(5, 5, star_graph(2))
        for w in rec.witnesses:
            assert is_triangle_free(w)


class TestOraclesDominateConstructions:
    @pytest.mark.parametrize(
        "H", [star_graph(2), path_graph(4), complete_graph(3), cycle_graph(4)],
        ids=["S2", "P4", "K3", "C4"],
    )
    def test_maxima_at_least_the_construction_counts(self, H):
        for n in range(1, 6):
            for e in range(comb(n, 2) + 1):
                best = ex_oracle(n, e, H).maximum
                assert best >= count_copies(H, quasi_clique(n, e)), (n, e)
                assert best >= count_copies(H, quasi_star(n, e)), (n, e)
            for e in range(n * n // 4 + 1):
                bip = count_copies(H, quasi_complete_bipartite(n, e))
                assert ex_bip_oracle(n, e, H).maximum >= bip, (n, e)
                assert ex_trifree_oracle(n, e, H).maximum >= bip, (n, e)


class TestFilteredOraclesMatchLabeledReference:
    @pytest.mark.parametrize(
        "H", [star_graph(2), path_graph(4), complete_graph(3), cycle_graph(4)],
        ids=["S2", "P4", "K3", "C4"],
    )
    def test_maxima_equal_the_best_labeled_host_of_the_class(self, H):
        for n in range(1, 6):
            for e in range(n * n // 4 + 1):
                hosts = [make_graph(n, c) for c in combinations(combinations(range(n), 2), e)]
                trifree = max(count_copies(H, g) for g in hosts if is_triangle_free(g))
                bip = max(count_copies(H, g) for g in hosts if bipartition_of(g) is not None)
                assert ex_trifree_oracle(n, e, H).maximum == trifree, (n, e)
                assert ex_bip_oracle(n, e, H).maximum == bip, (n, e)


def _traced_peak_mb(fn, *args):
    """Run fn(*args) under tracemalloc; return its result or exception and the peak in MB."""
    tracemalloc.start()
    try:
        outcome = fn(*args)
    except EnumerationBudgetError as exc:
        outcome = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return outcome, peak


class TestOracleAllocation:
    @pytest.mark.parametrize(
        "sweep, n", [(ex_oracle, 2000), (ex_bip_oracle, 400)], ids=["all", "bipartite"]
    )
    def test_budget_error_before_any_pool_is_built(self, sweep, n):
        outcome, peak = _traced_peak_mb(sweep, n, 5, path_graph(4))
        assert isinstance(outcome, EnumerationBudgetError)
        assert peak < 1

    def test_single_host_sweep_allocates_no_pool_sized_table(self):
        outcome, peak = _traced_peak_mb(ex_oracle, 300, 0, path_graph(4))
        assert outcome.maximum == 0
        assert peak < 8


class TestNonmonotonicity:
    def test_demo_values(self):
        assert nonmonotonicity_demo() == (36, 34)
