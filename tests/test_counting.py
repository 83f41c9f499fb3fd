import math
import random
import signal
import tracemalloc
from contextlib import contextmanager
from itertools import combinations, permutations

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
    complete_bipartite,
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


@st.composite
def twin_patterns(draw, nmax=6):
    """Graphs of at most nmax vertices grown from a small seed so that they have twins.

    Each step adds an isolated vertex, a false twin (a copy of a vertex's
    neighborhood), a true twin (the copy joined to the vertex) or a
    disjoint union with another small graph.
    """
    G = draw(graphs_st(nmax=3))
    while G.n < nmax:
        step = draw(st.sampled_from(["isolated", "false", "true", "union", "stop"]))
        if step == "stop":
            break
        if step == "isolated":
            G = make_graph(G.n + 1, G.edges)
        elif step == "union":
            G = disjoint_union(G, draw(graphs_st(nmax=nmax - G.n)))
        else:
            v, w = draw(st.integers(0, G.n - 1)), G.n
            edges = set(G.edges) | {(u, w) for u in G.adj[v]}
            if step == "true":
                edges.add((v, w))
            G = make_graph(w + 1, edges)
    return G


def brute_inj_homs(H: Graph, G: Graph) -> int:
    """Injective homomorphisms H -> G by trying every injective vertex map."""
    return sum(
        all(G.has_edge(image[u], image[v]) for u, v in H.edges)
        for image in permutations(range(G.n), H.n)
    )


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError once the block has run for seconds, so a blowup fails, not hangs."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
        rng = random.Random(5)
        for _ in range(40):
            H = random_graph(rng, 4)
            G = random_graph(rng, 6)
            assert inj_homs(H, G) == brute_inj_homs(H, G)

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

    @pytest.mark.parametrize(
        "G, order",
        [
            (empty_graph(30), math.factorial(30)),
            (complete_graph(10), math.factorial(10)),
            (star_graph(9), math.factorial(9)),
            (complete_bipartite(3, 3), 72),
            (disjoint_union(*[path_graph(2)] * 5), 3840),
        ],
        ids=["E30", "K10", "S9", "K33", "5K2"],
    )
    def test_closed_forms_walk_one_map_per_twin_ordering(self, G, order):
        # without twin symmetry breaking the edgeless pattern alone has 30! leaves
        with deadline(5):
            assert automorphism_count(G) == order

    @pytest.mark.parametrize(
        "count, want, walks",
        [
            (lambda: inj_homs(empty_graph(14), complete_graph(40)), math.perm(40, 14), False),
            (lambda: automorphism_count(empty_graph(5000)), math.factorial(5000), True),
            (lambda: inj_homs(disjoint_union(path_graph(4), empty_graph(10)), complete_graph(40)),
             inj_homs(path_graph(4), complete_graph(40)) * math.perm(36, 10), False),
        ],
        ids=["14K1-in-K40", "5000K1", "P4+10K1-in-K40"],
    )
    def test_isolated_vertices_are_counted_not_walked(self, monkeypatch, count, want, walks):
        # walked one increasing image at a time, the first takes C(40, 14) leaves;
        # inj_homs chooses the basis on the vertices with edges, so it never reaches the counter
        if not walks:
            monkeypatch.setattr(PatternCounter, "count", lambda self, G: pytest.fail("counter was called"))
        with deadline(1):
            assert count() == want

    def test_path_deeper_than_the_recursion_limit(self):
        # the walk keeps its own stack, so 1100 positions need no call frames
        with deadline(10):
            assert automorphism_count(path_graph(1100)) == 2


class TestTwinSymmetry:
    @given(twin_patterns(), graphs_st(nmax=7))
    @settings(max_examples=150, deadline=None)
    def test_counter_equals_permutation_count(self, H, G):
        assert PatternCounter(H).count(G) == brute_inj_homs(H, G)


class TestCountCopies:
    def test_triangles_in_k5(self):
        assert count_copies(complete_graph(3), complete_graph(5)) == 10

    def test_cherries_agree_with_star_formula(self):
        B = quasi_complete_bipartite(8, 12)
        assert count_copies(star_graph(2), B) == 36

    def test_paths_in_square(self):
        assert count_copies(path_graph(4), cycle_graph(4)) == 4

    def test_path_deeper_than_the_recursion_limit(self):
        with deadline(20):
            assert count_copies(path_graph(1100), path_graph(1101)) == 2

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
    # the basis is chosen on the vertices with edges: 9 vertices, 5 with edges
    "P4+2K1": disjoint_union(path_graph(4), empty_graph(2)),
    "S2+K2+4K1": disjoint_union(star_graph(2), path_graph(2), empty_graph(4)),
}
# K4 has treewidth 3; the 9-vertex star exceeds the basis's pattern size.
FALLBACK_PATTERNS = {"K4": complete_graph(4), "S8": star_graph(8)}


class TestHomomorphismBasis:
    @given(graphs_st(nmax=9), st.sampled_from(sorted(BASIS_PATTERNS)))
    @settings(max_examples=120, deadline=None)
    def test_basis_equals_backtracker(self, G, name):
        H = BASIS_PATTERNS[name]
        edged = [v for v in range(H.n) if H.degrees[v]]
        core = make_graph(len(edged), [(edged.index(u), edged.index(v)) for u, v in H.edges])
        assert _hom_basis(core) is not None
        assert inj_homs(H, G) == PatternCounter(H).count(G)

    @given(graphs_st(nmax=9), st.sampled_from(sorted(FALLBACK_PATTERNS)))
    @settings(max_examples=40, deadline=None)
    def test_fallback_patterns_agree(self, G, name):
        H = FALLBACK_PATTERNS[name]
        assert _hom_basis(H) is None
        assert inj_homs(H, G) == PatternCounter(H).count(G)

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
        # S_k plus three disjoint edges has k + 7 vertices, past the basis
        # size cap, so these counts run on PatternCounter
        rng = random.Random(5)
        for k, sizes, edges in ((2, (9, 10), (9, 15)), (3, (10, 11), (12, 20))):
            assert _hom_basis(disjoint_union(star_graph(k), *[path_graph(2)] * 3)) is None
            counts = []
            for _ in range(6):
                n = rng.randint(*sizes)
                pool = list(combinations(range(n), 2))
                G = make_graph(n, rng.sample(pool, rng.randint(*edges)))
                counts.append(count_star_matching_pairs(G, k, 3))
                assert counts[-1] == brute_star_matching_pairs(G, k, 3)
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


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: count_star_matching_pairs(path_graph(4), 0, 1), ValueError,
         "leaf count must be at least 1, got 0"),
        (lambda: count_star_matching_pairs(path_graph(4), 2, -1), ValueError,
         "matching size must be non-negative, got -1"),
    ],
    ids=["pairs-k-0", "pairs-m-negative"],
)
def test_argument_checks_raise(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and str(info.value) == message
