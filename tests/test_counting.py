import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excount.constructions import quasi_complete_bipartite
from excount.counting import (
    PatternCounter,
    _hom_basis,
    automorphism_count,
    count_copies,
    count_star_matching_pairs,
    count_stars,
    inj_homs,
    star_sum,
)
from excount.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    make_graph,
    path_graph,
    star_graph,
)


def random_graph(rng, nmax=8):
    n = rng.randint(1, nmax)
    pool = list(combinations(range(n), 2))
    return make_graph(n, rng.sample(pool, rng.randint(0, len(pool))))


@st.composite
def graphs_st(draw, nmax=7):
    n = draw(st.integers(1, nmax))
    pool = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()))
    return make_graph(n, edges)


class TestPatternOrder:
    @pytest.mark.parametrize(
        "pattern, order",
        [
            (path_graph(5), (1, 0, 2, 3, 4)),
            (cycle_graph(5), (0, 1, 4, 2, 3)),
            (complete_graph(4), (0, 1, 2, 3)),
            (star_graph(3), (0, 1, 2, 3)),
            (disjoint_union(star_graph(2), path_graph(2), path_graph(2)), (0, 1, 2, 3, 4, 5, 6)),
            (disjoint_union(path_graph(3), complete_graph(3), empty_graph(1)), (1, 0, 2, 3, 4, 5, 6)),
            (make_graph(6, [(5, 0), (5, 3), (3, 1), (2, 4)]), (3, 1, 5, 0, 2, 4)),
        ],
    )
    def test_bfs_order_from_highest_degree(self, pattern, order):
        assert PatternCounter(pattern).order == order


class TestCountStars:
    def test_golden_bipartite_star_counts(self):
        assert count_stars(quasi_complete_bipartite(8, 12), 2) == 36
        assert count_stars(quasi_complete_bipartite(8, 13), 2) == 34

    def test_one_leaf_counts_every_edge_twice(self):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
        assert count_stars(g, 1) == 2 * g.edge_count

    def test_equals_the_star_sum_of_the_degrees(self):
        rng = random.Random(3)
        for _ in range(200):
            G = random_graph(rng)
            for k in range(1, 5):
                assert star_sum(G.degrees, k) == count_stars(G, k)

    def test_rejects_zero_leaves(self):
        with pytest.raises(ValueError):
            count_stars(complete_graph(3), 0)


class TestInjHoms:
    def test_cherry_into_triangle(self):
        assert inj_homs(star_graph(2), complete_graph(3)) == 6

    def test_edge_into_any_graph(self):
        g = make_graph(7, [(0, 1), (2, 5), (3, 4), (5, 6)])
        assert inj_homs(path_graph(2), g) == 2 * g.edge_count

    def test_triangle_into_square(self):
        assert inj_homs(complete_graph(3), cycle_graph(4)) == 0

    def test_pattern_larger_than_host(self):
        assert inj_homs(path_graph(4), complete_graph(3)) == 0

    def test_brute_force_cross_check(self):
        from itertools import permutations

        rng = random.Random(5)
        for _ in range(40):
            H = random_graph(rng, 4)
            G = random_graph(rng, 6)
            brute = 0
            for image in permutations(range(G.n), H.n):
                if all(G.has_edge(image[u], image[v]) for u, v in H.edges):
                    brute += 1
            assert inj_homs(H, G) == brute

    @given(graphs_st(nmax=6), st.sampled_from(["P4", "K3", "S2"]))
    @settings(max_examples=40, deadline=None)
    def test_adding_an_edge_never_decreases(self, G, name):
        H = {"P4": path_graph(4), "K3": complete_graph(3), "S2": star_graph(2)}[name]
        missing = [p for p in combinations(range(G.n), 2) if p not in G.edges]
        if not missing:
            return
        bigger = make_graph(G.n, list(G.edges) + [missing[0]])
        assert inj_homs(H, bigger) >= inj_homs(H, G)


class TestAutomorphisms:
    def test_path4(self):
        assert automorphism_count(path_graph(4)) == 2

    def test_k4(self):
        assert automorphism_count(complete_graph(4)) == 24

    def test_star3(self):
        assert automorphism_count(star_graph(3)) == 6

    def test_cycle5(self):
        assert automorphism_count(cycle_graph(5)) == 10

    def test_union_with_isolated_vertex(self):
        g = make_graph(3, [(0, 1)])
        assert automorphism_count(g) == 2


class TestCountCopies:
    def test_triangles_in_k5(self):
        assert count_copies(complete_graph(3), complete_graph(5)) == 10

    def test_cherries_agree_with_star_formula(self):
        B = quasi_complete_bipartite(8, 12)
        assert count_copies(star_graph(2), B) == 36

    def test_paths_in_square(self):
        assert count_copies(path_graph(4), cycle_graph(4)) == 4

    def test_identity_with_automorphisms(self):
        rng = random.Random(9)
        for _ in range(30):
            H = random_graph(rng, 5)
            G = random_graph(rng, 7)
            assert inj_homs(H, G) == count_copies(H, G) * automorphism_count(H)

    def test_stars_cross_validation(self):
        rng = random.Random(3)
        for _ in range(40):
            G = random_graph(rng, 8)
            for k in (1, 2, 3, 4):
                centered = count_stars(G, k)
                copies = count_copies(star_graph(k), G)
                assert centered == copies * (2 if k == 1 else 1)

    def test_disjoint_union_factorization_bound(self):
        rng = random.Random(17)
        for _ in range(25):
            H1 = random_graph(rng, 4)
            H2 = random_graph(rng, 4)
            G = random_graph(rng, 7)
            joint = inj_homs(disjoint_union(H1, H2), G)
            assert joint <= inj_homs(H1, G) * inj_homs(H2, G)


BASIS_PATTERNS = {
    "P4": path_graph(4),
    "P5": path_graph(5),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "K3": complete_graph(3),
    "S3": star_graph(3),
    "S2+K2": disjoint_union(star_graph(2), path_graph(2)),
    "S2+2K2": disjoint_union(star_graph(2), path_graph(2), path_graph(2)),
}
# K4 has treewidth 3; the 9-vertex star exceeds the basis's pattern size.
FALLBACK_PATTERNS = {"K4": complete_graph(4), "S8": star_graph(8)}


class TestHomomorphismBasis:
    @given(graphs_st(nmax=9), st.sampled_from(sorted(BASIS_PATTERNS)))
    @settings(max_examples=120, deadline=None)
    def test_basis_equals_backtracker(self, G, name):
        H = BASIS_PATTERNS[name]
        assert _hom_basis(H) is not None
        assert inj_homs(H, G) == PatternCounter(H).count(G.adj, G.degrees)

    @given(graphs_st(nmax=9), st.sampled_from(sorted(FALLBACK_PATTERNS)))
    @settings(max_examples=40, deadline=None)
    def test_fallback_patterns_agree(self, G, name):
        H = FALLBACK_PATTERNS[name]
        assert _hom_basis(H) is None
        assert inj_homs(H, G) == PatternCounter(H).count(G.adj, G.degrees)

    def test_empty_pattern_has_one_map(self):
        assert inj_homs(Graph(0), complete_graph(3)) == 1

    def test_tables_hold_only_nonzero_entries(self):
        # A dense 3000 x 3000 codegree table would take over 70 MB.
        G = path_graph(3000)
        tracemalloc.start()
        try:
            assert inj_homs(cycle_graph(4), G) == 0
            assert inj_homs(path_graph(4), G) == 2 * 2997
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def brute_star_matching_pairs(G: Graph, k: int, m: int) -> int:
    """Direct enumeration over (center, leaf set, edge subset) triples."""
    edges = G.sorted_edges()
    total = 0
    for center in range(G.n):
        for leaves in combinations(sorted(G.adj[center]), k):
            blocked = {center, *leaves}
            for chosen in combinations(edges, m):
                touched = set()
                ok = True
                for u, v in chosen:
                    if u in blocked or v in blocked or u in touched or v in touched:
                        ok = False
                        break
                    touched.update((u, v))
                if ok:
                    total += 1
    return total


class TestStarMatchingPairs:
    def test_two_disjoint_edges(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert count_star_matching_pairs(g, 1, 1) == 4

    def test_empty_matching_equals_star_count(self):
        rng = random.Random(21)
        for _ in range(20):
            G = random_graph(rng, 7)
            for k in (1, 2, 3):
                assert count_star_matching_pairs(G, k, 0) == count_stars(G, k)

    def test_triangle_cannot_host_disjoint_pair(self):
        assert count_star_matching_pairs(complete_graph(3), 2, 1) == 0

    def test_bipartite_hosts_match_per_star_sum(self):
        # in a bipartite host the edges avoiding star (c, L) number
        # e - d_c - sum_{l in L} d_l + |L|, since no edge joins two leaves
        totals = {30: 280973, 40: 965412, 60: 5134500}
        for n, total in totals.items():
            G = quasi_complete_bipartite(n, math.ceil(n**1.5))
            d = G.degrees
            want = sum(
                G.edge_count - d[c] - sum(d[l] for l in leaves) + 2
                for c in range(G.n)
                for leaves in combinations(sorted(G.adj[c]), 2)
            )
            assert count_star_matching_pairs(G, 2, 1) == want == total

    @given(graphs_st(nmax=9), st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, G, k, m):
        assert count_star_matching_pairs(G, k, m) == brute_star_matching_pairs(G, k, m)

    def test_backtracker_path_matches_brute_force(self):
        # S_2 plus three disjoint edges has 9 vertices, past the basis size
        # cap, so these counts run on PatternCounter
        assert _hom_basis(disjoint_union(star_graph(2), *[path_graph(2)] * 3)) is None
        rng = random.Random(5)
        counts = []
        for _ in range(6):
            n = rng.randint(9, 10)
            pool = list(combinations(range(n), 2))
            G = make_graph(n, rng.sample(pool, rng.randint(9, 15)))
            counts.append(count_star_matching_pairs(G, 2, 3))
            assert counts[-1] == brute_star_matching_pairs(G, 2, 3)
        assert any(counts)

    def test_largest_criterion_host_pinned(self):
        G = quasi_complete_bipartite(120, math.ceil(120**1.5))
        assert count_star_matching_pairs(G, 2, 1) == 89_392_488

    def test_brute_force_cross_check(self):
        rng = random.Random(13)
        for _ in range(25):
            G = random_graph(rng, 7)
            for k in (1, 2, 3):
                for m in (0, 1, 2):
                    assert count_star_matching_pairs(G, k, m) == brute_star_matching_pairs(
                        G, k, m
                    )
