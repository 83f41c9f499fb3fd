import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excount.graphs import (
    Bipartition,
    FerrersDiagram,
    Graph,
    GraphError,
    are_isomorphic,
    bipartition_of,
    complete_bipartite,
    complete_graph,
    conjugate,
    cycle_graph,
    diagram_of,
    disjoint_union,
    empty_graph,
    is_triangle_free,
    make_graph,
    nested_violation,
    path_graph,
    realize_diagram,
    star_graph,
    twin_classes,
)
from test_counting import deadline


@st.composite
def graphs_st(draw, nmax=10):
    n = draw(st.integers(0, nmax))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    return make_graph(n, edges)


def partitions_st(max_total=14):
    return st.lists(st.integers(1, 6), min_size=0, max_size=5).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def random_cubic(rng, n=24):
    """A uniform random 3-regular graph by the pairing model, redrawn until simple."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return make_graph(n, edges)


def relabeled(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return make_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def cayley_z4z4(steps):
    """Cayley graph of Z4 x Z4, vertex (a, b) labeled 4a + b, joined along each step and its inverse."""
    return make_graph(16, {
        tuple(sorted((4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)))
        for a in range(4) for b in range(4) for x, y in steps
    })


class TestMakeGraph:
    def test_triangle(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert g.degrees == (2, 2, 2)

    def test_empty_four(self):
        g = make_graph(4, [])
        assert g.degrees == (0, 0, 0, 0)

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match=r"loop \(0, 0\)"):
            make_graph(2, [(0, 0)])

    def test_duplicate_rejected_after_normalization(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            make_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match=r"\(1, 3\)"):
            make_graph(3, [(1, 3)])

    def test_degree_sum_is_twice_edges(self):
        g = make_graph(6, [(0, 1), (2, 3), (0, 5), (1, 5)])
        assert sum(g.degrees) == 2 * g.edge_count


class TestBipartition:
    def test_cycle4(self):
        P = bipartition_of(cycle_graph(4))
        assert P == Bipartition(frozenset({0, 2}), frozenset({1, 3}))

    def test_triangle_has_none(self):
        assert bipartition_of(complete_graph(3)) is None

    def test_isolated_vertices_go_left(self):
        P = bipartition_of(empty_graph(3))
        assert P.left == frozenset({0, 1, 2}) and P.right == frozenset()

    def test_every_edge_crosses(self):
        g = make_graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
        P = bipartition_of(g)
        for u, v in g.edges:
            assert (u in P.left) != (v in P.left)

    @given(graphs_st())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_and_lowest_label_goes_left(self, g):
        proper = any(
            all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges)
            for mask in range(1 << g.n)
        )
        P = bipartition_of(g)
        assert (P is not None) == proper
        if P is None:
            return
        assert P.left | P.right == frozenset(range(g.n)) and not P.left & P.right
        for u, v in g.edges:
            assert (u in P.left) != (v in P.left)
        root = list(range(g.n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in g.sorted_edges():
            root[max(find(u), find(v))] = min(find(u), find(v))
        assert all(find(v) in P.left for v in range(g.n))
        assert all(v in P.left for v in range(g.n) if g.degrees[v] == 0)


class TestTriangleFree:
    def test_cycle4(self):
        assert is_triangle_free(cycle_graph(4))

    def test_k4_minus_edge(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert not is_triangle_free(g)

    def test_empty(self):
        assert is_triangle_free(empty_graph(5))

    def test_matches_brute_force_on_small_graphs(self):
        from itertools import combinations
        import random

        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 7)
            pool = list(combinations(range(n), 2))
            g = make_graph(n, rng.sample(pool, rng.randint(0, len(pool))))
            brute = any(
                g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                for a, b, c in combinations(range(n), 3)
            )
            assert is_triangle_free(g) == (not brute)


class TestTwinClasses:
    @pytest.mark.parametrize(
        "g, classes",
        [
            (star_graph(3), [(0,), (1, 2, 3)]),
            (complete_graph(4), [(0, 1, 2, 3)]),
            (path_graph(4), [(0,), (1,), (2,), (3,)]),
            (complete_bipartite(2, 3), [(0, 1), (2, 3, 4)]),
            (disjoint_union(path_graph(2), empty_graph(2), path_graph(2)), [(0, 1), (2, 3), (4, 5)]),
            (make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]), [(0, 3), (1, 2), (4,)]),
        ],
        ids=["S3", "K4", "P4", "K23", "K2+2K1+K2", "diamond+K1"],
    )
    def test_false_and_true_twins(self, g, classes):
        assert twin_classes([sum(1 << w for w in near) for near in g.adj]) == classes

    def test_isolated_vertices_are_one_class_in_linear_time(self):
        # keying isolated vertex v by its closed neighborhood 1 << v is quadratic in n
        with deadline(2):
            assert twin_classes([0] * 20000) == [tuple(range(20000))]

    @given(graphs_st(nmax=7))
    @settings(max_examples=60, deadline=None)
    def test_classes_partition_and_swaps_are_automorphisms(self, g):
        classes = twin_classes([sum(1 << w for w in near) for near in g.adj])
        assert sorted(v for c in classes for v in c) == list(range(g.n))
        for c in classes:
            for u, v in zip(c, c[1:]):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                assert make_graph(g.n, [(swap[a], swap[b]) for a, b in g.edges]) == g


class TestConjugate:
    def test_rectangle(self):
        assert conjugate((6, 6)) == (2, 2, 2, 2, 2, 2)

    def test_staircase(self):
        assert conjugate((5, 5, 3)) == (3, 3, 3, 2, 2)

    def test_empty(self):
        assert conjugate(()) == ()

    @given(partitions_st())
    def test_involution(self, cols):
        assert conjugate(conjugate(cols)) == tuple(c for c in cols if c)

    @given(partitions_st())
    def test_preserves_total(self, cols):
        assert sum(conjugate(cols)) == sum(cols)


class TestDiagram:
    @given(partitions_st())
    def test_rows_are_the_conjugate_of_the_columns(self, cols):
        D = FerrersDiagram(cols)
        assert D.rows == conjugate(cols)
        assert repr(D) == f"FerrersDiagram(columns={cols!r})"
        assert D == FerrersDiagram(list(cols)) and hash(D) == hash((cols,))

    def test_columns_must_be_sorted(self):
        with pytest.raises(GraphError):
            FerrersDiagram((2, 3))

    def test_columns_must_be_positive(self):
        with pytest.raises(GraphError):
            FerrersDiagram((2, 0))

    def test_k26_columns(self):
        g = complete_bipartite(2, 6)
        assert diagram_of(g, bipartition_of(g)).columns == (6, 6)

    def test_deficient_k35_columns(self):
        # K_{3,5} with two edges removed at one small-side vertex
        g = make_graph(
            8,
            [(i, j) for i in range(3) for j in range(3, 8) if (i, j) not in {(0, 6), (0, 7)}],
        )
        assert diagram_of(g, bipartition_of(g)).columns == (5, 5, 3)

    def test_single_edge(self):
        g = make_graph(2, [(0, 1)])
        assert diagram_of(g, bipartition_of(g)).columns == (1,)

    def test_rejects_non_nested_and_names_a_pair(self):
        g = cycle_graph(6)
        P = bipartition_of(g)
        assert nested_violation(g, P) is not None
        with pytest.raises(GraphError, match="incomparable"):
            diagram_of(g, P)

    @pytest.mark.parametrize(
        "left, right, message",
        [
            ({0, 1}, {1, 2, 3}, "bipartition parts overlap"),
            ({0}, {1, 2}, "bipartition does not cover the vertex set"),
            ({0, 1, 3}, {2}, "edge (0, 1) does not cross the bipartition"),
        ],
    )
    def test_rejects_a_bad_bipartition(self, left, right, message):
        g = path_graph(4)
        with pytest.raises(GraphError) as info:
            diagram_of(g, Bipartition(frozenset(left), frozenset(right)))
        assert str(info.value) == message

    def test_auto_side_breaks_degree_ties_by_lowest_label(self):
        g = realize_diagram(FerrersDiagram((3, 3, 1)), 6)
        flipped = make_graph(6, [(5 - u, 5 - v) for u, v in g.edges])
        assert diagram_of(g, bipartition_of(g)).columns == (3, 3, 1)
        assert diagram_of(flipped, bipartition_of(flipped)).columns == (3, 2, 2)

    def test_two_sides_are_conjugate(self):
        g = make_graph(
            8,
            [(i, j) for i in range(3) for j in range(3, 8) if (i, j) not in {(0, 6), (0, 7)}],
        )
        P = bipartition_of(g)
        D = diagram_of(g, P)

        def heights(part):
            return tuple(sorted((g.degrees[v] for v in part if g.degrees[v]), reverse=True))

        assert D.columns == heights(P.left) == (5, 5, 3)
        assert D.rows == heights(P.right) == (3, 3, 3, 2, 2)

    def test_realize_k26(self):
        g = realize_diagram(FerrersDiagram((6, 6)), 8)
        assert are_isomorphic(g, complete_bipartite(2, 6))

    def test_realize_single_edge(self):
        g = realize_diagram(FerrersDiagram((1,)), 2)
        assert g.edges == frozenset({(0, 1)})

    def test_realize_553_is_the_13_edge_optimum(self):
        from excount.constructions import quasi_complete_bipartite

        g = realize_diagram(FerrersDiagram((5, 5, 3)), 8)
        assert are_isomorphic(g, quasi_complete_bipartite(8, 13))

    def test_realize_needs_enough_vertices(self):
        with pytest.raises(GraphError, match="vertices"):
            realize_diagram(FerrersDiagram((6, 6)), 7)

    @given(partitions_st())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, cols):
        D = FerrersDiagram(tuple(c for c in cols if c))
        n = D.width + D.height + 2
        g = realize_diagram(D, n)
        P = bipartition_of(g)
        assert nested_violation(g, P) is None
        back = diagram_of(g, P)
        assert back.columns in (D.columns, conjugate(D.columns))
        assert are_isomorphic(realize_diagram(back, n), g)


class TestIsomorphism:
    def test_identity(self):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert are_isomorphic(g, g)

    def test_path_vs_star(self):
        assert not are_isomorphic(path_graph(4), star_graph(3))

    def test_same_degree_sequence_not_isomorphic(self):
        two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
        assert sorted(two_triangles.degrees) == sorted(cycle_graph(6).degrees)
        assert not are_isomorphic(two_triangles, cycle_graph(6))
        padded = make_graph(300, two_triangles.edges)
        assert not are_isomorphic(padded, make_graph(300, cycle_graph(6).edges))

    def test_relabeled_graphs_are_isomorphic(self):
        from itertools import combinations

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 8)
            pool = list(combinations(range(n), 2))
            g = make_graph(n, rng.sample(pool, rng.randint(0, len(pool))))
            assert are_isomorphic(g, relabeled(g, rng))

    def test_different_sizes(self):
        assert not are_isomorphic(empty_graph(3), empty_graph(4))

    @pytest.mark.parametrize(
        "build, seed",
        [(lambda rng: cycle_graph(1100), 1), (lambda rng: path_graph(200), 1),
         (random_cubic, 0), (random_cubic, 1), (random_cubic, 4)],
        ids=["C1100", "P200", "cubic24-seed0", "cubic24-seed1", "cubic24-seed4"],
    )
    def test_large_relabeled_graphs_are_isomorphic(self, build, seed):
        # the cubic seeds are those of 0-7 whose pair ran past 2 s under the search that tried every vertex
        rng = random.Random(seed)
        G = build(rng)
        with deadline(1):
            assert are_isomorphic(G, relabeled(G, rng))

    @pytest.mark.parametrize(
        "G1, G2",
        [
            (cycle_graph(24), disjoint_union(cycle_graph(12), cycle_graph(12))),
            # the 4x4 rook's graph and the Shrikhande graph, both srg(16, 6, 2, 2)
            (cayley_z4z4([(0, 1), (0, 2), (1, 0), (2, 0)]), cayley_z4z4([(0, 1), (1, 0), (1, 1)])),
        ],
        ids=["C24-vs-2C12", "rook4x4-vs-Shrikhande"],
    )
    def test_pairs_colour_refinement_cannot_separate(self, G1, G2):
        assert G1.degrees == G2.degrees and G1.edge_count == G2.edge_count
        with deadline(1):
            assert not are_isomorphic(G1, G2)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: Graph(-1), GraphError, "vertex count must be non-negative, got -1"),
        (lambda: cycle_graph(2), GraphError, "cycle needs at least 3 vertices, got 2"),
        (lambda: star_graph(0), GraphError, "star needs at least one leaf, got 0"),
        (lambda: conjugate([-1]), ValueError, "partition entries must be non-negative"),
    ],
    ids=["graph-n-negative", "cycle-2", "star-0", "conjugate-negative"],
)
def test_argument_checks_raise(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and str(info.value) == message
