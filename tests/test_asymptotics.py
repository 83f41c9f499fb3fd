import math
from math import comb

import pytest

from excount.asymptotics import (
    crossover_density_estimate,
    crossover_scan,
    disjoint_star_tuple_bound,
    max_small_side,
    star_factor_upper_bound,
    star_matching_pair_bound,
)
from excount.constructions import family_degrees, quasi_clique, quasi_complete_bipartite, quasi_star
from excount.counting import (
    automorphism_count,
    count_star_matching_pairs,
    count_stars,
    inj_homs,
)
from excount.decomposition import star_factor_profile
from excount.graphs import (
    GraphError,
    complete_graph,
    disjoint_union,
    make_graph,
    path_graph,
    star_graph,
)
from excount.oracle import ex_oracle


class TestMaxSmallSide:
    def test_balanced_exact(self):
        assert max_small_side(8, 12) == 2

    def test_three(self):
        assert max_small_side(8, 15) == 3

    def test_one(self):
        assert max_small_side(10, 9) == 1

    def test_rejects_below_tree_budget(self):
        with pytest.raises(GraphError):
            max_small_side(10, 8)

    def test_defining_property(self):
        for n in range(2, 20):
            for e in range(n - 1, n * n // 2):
                a = max_small_side(n, e)
                assert 1 <= a <= n // 2 and a * (n - a) <= e
                if a < n // 2:
                    assert (a + 1) * (n - a - 1) > e


class TestDisjointStarTupleBound:
    def test_single_edge_profile(self):
        assert disjoint_star_tuple_bound((1,), 10) == 2 * comb(6, 2)

    def test_two_part_profile(self):
        assert disjoint_star_tuple_bound((2, 1), 10) == 3 * comb(6, 3) * 2 * comb(6, 2)

    def test_is_an_upper_bound_on_exact_tuples(self):
        pattern = disjoint_union(star_graph(2), star_graph(1))
        for v in (6, 8, 10, 12):
            e = comb(v, 2)
            G = quasi_clique(v + 2, e)
            exact = inj_homs(pattern, G) // 2  # two leaf orders of the 2-star
            assert exact <= disjoint_star_tuple_bound((2, 1), e)

    def test_ratio_trend_is_non_decreasing(self):
        pattern = disjoint_union(star_graph(2), star_graph(1))
        ratios = []
        for v in (8, 10, 12, 14, 16):
            e = comb(v, 2)
            G = quasi_clique(v + 2, e)
            exact = inj_homs(pattern, G) // 2
            ratios.append(exact / disjoint_star_tuple_bound((2, 1), e))
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))


class TestStarMatchingPairBound:
    def test_worked_example(self):
        assert star_matching_pair_bound(2, 1, 8, 12) == 756

    def test_empty_matching(self):
        assert star_matching_pair_bound(2, 0, 8, 12) == 63
        assert count_star_matching_pairs(quasi_complete_bipartite(8, 12), 2, 0) == 36

    def test_is_an_upper_bound_on_exact_pairs(self):
        for n in (12, 20, 30):
            for e in (2 * n, 3 * n):
                exact = count_star_matching_pairs(quasi_complete_bipartite(n, e), 2, 1)
                assert exact <= star_matching_pair_bound(2, 1, n, e)

    def test_ratio_grows_along_doubling_sizes(self):
        ratios = []
        for n in (30, 60, 120):
            e = math.ceil(n**1.5)
            exact = count_star_matching_pairs(quasi_complete_bipartite(n, e), 2, 1)
            ratios.append(exact / star_matching_pair_bound(2, 1, n, e))
        assert all(r <= 1.0 for r in ratios)
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))


class TestStarFactorUpperBound:
    def test_edge_pattern(self):
        for n, e in ((5, 4), (7, 11), (9, 20)):
            assert star_factor_upper_bound(path_graph(2), n, e) == 2 * e

    def test_triangle_at_full_clique(self):
        bound = star_factor_upper_bound(complete_graph(3), 5, 10)
        assert bound == 60
        assert bound >= inj_homs(complete_graph(3), complete_graph(5))

    def test_bounds_the_oracle_times_automorphisms(self):
        H = path_graph(4)
        rec = ex_oracle(6, 12, H)
        assert rec.maximum * automorphism_count(H) <= star_factor_upper_bound(H, 6, 12)

    def test_equals_the_product_of_injective_star_sums(self):
        H = make_graph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (6, 7)])
        profile = star_factor_profile(H)
        for n in range(2, 10):
            for e in range(1, comb(n, 2) + 1):
                want = math.prod(
                    max(sum(math.perm(d, a) for d in degrees) for degrees in family_degrees(n, e))
                    for a in profile
                )
                assert star_factor_upper_bound(H, n, e) == want


class TestCrossoverScan:
    def test_density_strictly_inside_unit_interval(self):
        scan = crossover_scan(2, 20, 1)
        top = comb(20, 2)
        assert scan.crossover_e is not None
        assert 0 < scan.crossover_e < top

    def test_endpoint_values_equal(self):
        scan = crossover_scan(2, 12, 1)
        e, clique, star = scan.samples[-1]
        assert e == comb(12, 2) and clique == star

    def test_start_favors_the_star_or_ties(self):
        for j in (2, 3):
            scan = crossover_scan(j, 10, 1)
            _, clique, star = scan.samples[0]
            assert clique <= star

    def test_crossover_consistent_with_samples(self):
        scan = crossover_scan(3, 14, 2)
        for e, clique, star in scan.samples:
            if e >= scan.crossover_e:
                assert clique >= star
        for e, clique, star in scan.samples:
            assert clique == count_stars(quasi_clique(14, e), 3)
            assert star == count_stars(quasi_star(14, e), 3)

    def test_small_n_crossover_matches_oracle_leader(self):
        # wherever the scan says one family leads strictly, the oracle's
        # maximum equals that family's count (n <= 6 cherry sweep)
        S2 = star_graph(2)
        for n in (5, 6):
            scan = crossover_scan(2, n, 1)
            for e, clique, star in scan.samples:
                rec = ex_oracle(n, e, S2)
                assert rec.maximum == max(clique, star)

    def test_last_sample_ties_so_the_crossover_always_exists(self):
        # at e = C(n, 2) both families are K_n
        for j in range(2, 6):
            for n in range(j + 2, 30):
                for step in (1, 2, 3, 7):
                    scan = crossover_scan(j, n, step)
                    e, clique, star = scan.samples[-1]
                    assert e == comb(n, 2) and clique == star
                    assert type(scan.crossover_e) is int

    def test_rejects_tiny_hosts(self):
        with pytest.raises(ValueError):
            crossover_scan(2, 3)

    def test_step_includes_final_point(self):
        scan = crossover_scan(2, 9, 7)
        assert scan.samples[-1][0] == comb(9, 2)


class TestCrossoverDensityEstimate:
    def test_single_edge_profile_gives_zero(self):
        assert crossover_density_estimate(path_graph(2), 12) == 0.0

    def test_triangle_profile_matches_direct_scan(self):
        scan = crossover_scan(2, 12, 1)
        want = scan.crossover_e / comb(12, 2)
        assert crossover_density_estimate(complete_graph(3), 12) == want
