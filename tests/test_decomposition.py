import random
from itertools import combinations

import pytest

from excount.decomposition import (
    edge_star_cover,
    spanning_tree,
    star_factor_profile,
    star_partition,
)
from excount.graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    make_graph,
    path_graph,
    star_graph,
)


def partition_violation(T: Graph, sp) -> str | None:
    covered = set()
    for part, center in zip(sp.parts, sp.centers):
        if len(part) < 2:
            return "part below two vertices"
        if part & covered:
            return "parts overlap"
        covered |= part
        inside = [(u, v) for u, v in T.edges if u in part and v in part]
        if len(inside) != len(part) - 1:
            return "part does not induce a spanning star"
        if any(center not in e for e in inside):
            return "induced edges miss the center"
    if covered != set(range(T.n)):
        return "parts do not cover"
    return None


class TestSpanningTree:
    def test_triangle_gives_cherry(self):
        T = spanning_tree(complete_graph(3))
        assert T.edge_count == 2 and sorted(T.degrees, reverse=True) == [2, 1, 1]

    def test_tree_is_unchanged(self):
        T = path_graph(5)
        assert spanning_tree(T) == T

    def test_square_gives_three_edges(self):
        T = spanning_tree(cycle_graph(4))
        assert T.edge_count == 3

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError, match="disconnected"):
            spanning_tree(disjoint_union(path_graph(2), path_graph(2)))
        with pytest.raises(GraphError, match="vertex 1 unreachable from 0$"):
            spanning_tree(make_graph(6, [(0, 4), (4, 2), (1, 3), (3, 5)]))


class TestStarPartition:
    def test_path4_two_edges(self):
        sp = star_partition(path_graph(4))
        assert sorted(sorted(p) for p in sp.parts) == [[0, 1], [2, 3]]

    def test_star_is_one_part(self):
        sp = star_partition(star_graph(5))
        assert len(sp.parts) == 1 and sp.centers == (0,)

    def test_path5_splits_after_first_edge(self):
        sp = star_partition(path_graph(5))
        assert sorted(sorted(p) for p in sp.parts) == [[0, 1], [2, 3, 4]]
        by_min = {min(p): c for p, c in zip(sp.parts, sp.centers)}
        assert by_min[2] == 3

    def test_rejects_single_vertex(self):
        with pytest.raises(GraphError):
            star_partition(empty_graph(1))

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError, match="tree"):
            star_partition(cycle_graph(4))

    def test_random_trees_satisfy_invariants(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 11)
            edges = []
            for v in range(1, n):
                edges.append((rng.randrange(v), v))
            T = make_graph(n, edges)
            assert partition_violation(T, star_partition(T)) is None


class TestStarFactorProfile:
    def test_triangle(self):
        assert star_factor_profile(complete_graph(3)) == (2,)

    def test_single_edge(self):
        assert star_factor_profile(path_graph(2)) == (1,)

    def test_path4(self):
        assert star_factor_profile(path_graph(4)) == (1, 1)

    def test_profile_sums_to_vertex_count_minus_parts(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 9)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            extra = [
                p
                for p in combinations(range(n), 2)
                if p not in set(tuple(sorted(e)) for e in edges)
            ]
            rng.shuffle(extra)
            H = make_graph(n, edges + extra[: rng.randint(0, len(extra))])
            profile = star_factor_profile(H)
            assert sum(a + 1 for a in profile) == n

    def test_profile_factorization_bounds_inj_homs(self):
        from excount.counting import inj_homs

        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(2, 6)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            extra = [
                p
                for p in combinations(range(n), 2)
                if p not in set(tuple(sorted(e)) for e in edges)
            ]
            rng.shuffle(extra)
            H = make_graph(n, edges + extra[: rng.randint(0, len(extra))])
            m = rng.randint(1, 8)
            pool = list(combinations(range(m), 2))
            G = make_graph(m, rng.sample(pool, rng.randint(0, len(pool))))
            bound = 1
            for a in star_factor_profile(H):
                bound *= inj_homs(star_graph(a), G)
            assert inj_homs(H, G) <= bound


def cover_violation(B: Graph, cover) -> str | None:
    seen = set()
    for u, v in cover.matching:
        if not B.has_edge(u, v):
            return "matching uses a non-edge"
        if u in seen or v in seen:
            return "matching edges overlap"
        seen.update((u, v))
    if cover.star is not None:
        center, leaves = cover.star
        if len(leaves) < 2:
            return "star has fewer than two leaves"
        if center in seen or leaves & seen:
            return "star touches the matching"
        if any(not B.has_edge(center, leaf) for leaf in leaves):
            return "star uses a non-edge"
        seen.update({center, *leaves})
    if seen != set(range(B.n)):
        return "cover misses vertices"
    return None


class TestEdgeStarCover:
    def test_path4_pure_matching(self):
        cover = edge_star_cover(path_graph(4))
        assert cover is not None and cover.star is None
        assert cover_violation(path_graph(4), cover) is None

    def test_single_edge(self):
        cover = edge_star_cover(path_graph(2))
        assert cover is not None
        assert cover.matching == frozenset({(0, 1)}) and cover.star is None

    def test_k24_star_plus_edge(self):
        g = complete_bipartite(2, 4)
        cover = edge_star_cover(g)
        assert cover is not None and cover.star is not None
        assert cover_violation(g, cover) is None

    def test_k23_has_a_cover(self):
        # a 2-leaf star at one small-side vertex leaves a covered edge
        g = complete_bipartite(2, 3)
        cover = edge_star_cover(g)
        assert cover is not None
        assert cover_violation(g, cover) is None

    def test_star_pattern_is_covered_by_itself(self):
        g = star_graph(4)
        cover = edge_star_cover(g)
        assert cover is not None and cover_violation(g, cover) is None

    def test_uncoverable_graph(self):
        # two isolated vertices cannot be covered by edges or a star
        g = empty_graph(2)
        assert edge_star_cover(g) is None

    def test_odd_independent_remainder(self):
        # a triangle with a pendant path of one edge plus an isolated vertex
        g = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert edge_star_cover(g) is None

    def test_too_large_rejected(self):
        with pytest.raises(GraphError, match="12"):
            edge_star_cover(empty_graph(13))

    def test_complete_bipartite_family(self):
        for s in range(1, 4):
            for t in range(s, 5):
                g = complete_bipartite(s, t)
                cover = edge_star_cover(g)
                assert cover is not None
                assert cover_violation(g, cover) is None


@pytest.mark.parametrize(
    "call, exc, message",
    [(lambda: spanning_tree(Graph(0)), GraphError, "graph has no vertices")],
    ids=["tree-of-no-vertices"],
)
def test_argument_checks_raise(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and str(info.value) == message
