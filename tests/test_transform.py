import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excount.constructions import quasi_complete_bipartite
from excount.counting import count_stars
from excount.graphs import (
    FerrersDiagram,
    GraphError,
    are_isomorphic,
    bipartition_of,
    complete_bipartite,
    conjugate,
    cycle_graph,
    diagram_of,
    empty_graph,
    make_graph,
    nested_violation,
    realize_diagram,
)
from excount.transform import (
    cell_weight,
    durfee_fold,
    run_transformation,
    shift_to_nested,
    top_row_pack,
    total_weight,
)


def all_partitions(total):
    """Every partition of `total` as a non-increasing tuple."""
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(total, total)


# Deliberately naive cell-set re-implementations of the two diagram moves.

def fold_cells(cols):
    cells = FerrersDiagram(cols).cells()
    d = 0
    for i, a in enumerate(cols, start=1):
        if a >= i:
            d = i
    rows = conjugate(cols)
    for i in range(1, d + 1):
        above = [(i, j) for j in range(d + 1, cols[i - 1] + 1)]
        for offset, cell in enumerate(above, start=1):
            cells.remove(cell)
            cells.add((rows[i - 1] + offset, i))
    return cells


def pack_cells(cols, n):
    D = FerrersDiagram(cols)
    rows = list(D.rows)
    t = len(rows)
    if t <= 1:
        return None
    x = rows[t - 2] + 1
    fill = [j for j in range(1, t) if rows[j - 1] == rows[t - 2]]
    if len(fill) == t - 1 and rows[0] + t == n:
        return None
    cells = D.cells()
    top = rows[t - 1]
    for q, j in enumerate(fill, start=1):
        cells.remove((top - q + 1, t))
        cells.add((x, j))
    return cells


def cells_of(cols):
    return FerrersDiagram(cols).cells()


@st.composite
def bipartite_hosts(draw, nmax=11):
    """Random bipartite graph with its two parts scattered over the labels."""
    n = draw(st.integers(2, nmax))
    p = draw(st.integers(1, n // 2))
    label = draw(st.permutations(range(n)))
    pairs = [(label[a], label[b]) for a in range(p) for b in range(p, n)]
    return make_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


class TestCellWeight:
    def test_origin(self):
        assert cell_weight(1, 1, 2) == 0

    def test_small(self):
        assert cell_weight(3, 2, 2) == 3

    def test_symmetric_value(self):
        assert cell_weight(5, 5, 3) == 12

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            cell_weight(0, 1, 2)
        with pytest.raises(ValueError):
            cell_weight(1, 1, 1)


class TestTotalWeight:
    def test_k26(self):
        assert total_weight(FerrersDiagram((6, 6)), 2) == 36

    def test_b813(self):
        assert total_weight(FerrersDiagram((5, 5, 3)), 2) == 34

    def test_single_square(self):
        for k in (2, 3, 4):
            assert total_weight(FerrersDiagram((1,)), k) == 0

    def test_equals_per_cell_sum(self):
        for total in range(0, 11):
            for cols in all_partitions(total):
                D = FerrersDiagram(cols)
                for k in (2, 3):
                    per_cell = sum(cell_weight(i, j, k) for i, j in D.cells())
                    assert total_weight(D, k) == per_cell

    def test_matches_star_count_of_realized_graph(self):
        for cols in all_partitions(9):
            D = FerrersDiagram(cols)
            g = realize_diagram(D, D.width + D.height + 1)
            for k in (2, 3):
                assert total_weight(D, k) == count_stars(g, k)


class TestShiftToNested:
    def test_complete_bipartite_unchanged(self):
        g = complete_bipartite(2, 6)
        nested, trace = shift_to_nested(g, bipartition_of(g), 2)
        assert nested == g
        assert trace.steps == []

    def test_single_edge_unchanged(self):
        g = make_graph(2, [(0, 1)])
        nested, trace = shift_to_nested(g, bipartition_of(g), 3)
        assert nested == g and trace.steps == []

    def test_cycle6_reaches_nested_within_bound(self):
        g = cycle_graph(6)
        P = bipartition_of(g)
        nested, trace = shift_to_nested(g, P, 2)
        assert nested_violation(nested, P) is None
        assert len(trace.steps) <= comb(6, 2)
        assert trace.entries[-1].stars_2 >= 6

    def test_random_shifts_monotone_and_nested(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 12)
            p = rng.randint(1, n // 2)
            pairs = [(a, b) for a in range(p) for b in range(p, n)]
            g = make_graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            P = bipartition_of(g)
            for k in (2, 3):
                nested, trace = shift_to_nested(g, P, k)
                assert nested_violation(nested, P) is None
                assert nested.edge_count == g.edge_count
                assert nested.n == g.n
                for prev, cur in zip(trace.entries, trace.entries[1:]):
                    assert cur.stars_k >= prev.stars_k
                    assert cur.stars_2 > prev.stars_2
                assert len(trace.steps) <= comb(g.edge_count, 2)


class TestDurfeeFold:
    def test_square_is_fixed(self):
        D = FerrersDiagram((3, 3, 3))
        assert durfee_fold(D) is D

    def test_example_4432(self):
        out = durfee_fold(FerrersDiagram((4, 4, 3, 2)))
        assert out.squares == 13
        assert cells_of(out.columns) == fold_cells((4, 4, 3, 2))
        assert total_weight(out, 2) >= total_weight(FerrersDiagram((4, 4, 3, 2)), 2)

    def test_example_21(self):
        out = durfee_fold(FerrersDiagram((2, 1)))
        assert out.squares == 3
        assert cells_of(out.columns) == fold_cells((2, 1))

    def test_cell_oracle_exhaustive(self):
        for total in range(1, 13):
            for cols in all_partitions(total):
                out = durfee_fold(FerrersDiagram(cols))
                assert cells_of(out.columns) == fold_cells(cols)
                assert out.squares == total
                for k in (2, 3, 4):
                    assert total_weight(out, k) >= total_weight(FerrersDiagram(cols), k)

    def test_never_raises_columns_lexicographically(self):
        for total in range(1, 13):
            for cols in all_partitions(total):
                out = durfee_fold(FerrersDiagram(cols))
                assert out.columns <= cols

    def test_preserves_vertex_usage(self):
        for total in range(1, 13):
            for cols in all_partitions(total):
                D = FerrersDiagram(cols)
                out = durfee_fold(D)
                assert out.width + out.height == D.width + D.height


class TestTopRowPack:
    def test_single_row_finished(self):
        assert top_row_pack(FerrersDiagram((1, 1, 1, 1)), 5) is None
        assert top_row_pack(FerrersDiagram((1, 1, 1, 1)), 9) is None

    def test_b813_resting_orientation_finished(self):
        assert top_row_pack(FerrersDiagram((3, 3, 3, 2, 2)), 8) is None

    def test_b812_finished_both_orientations(self):
        assert top_row_pack(FerrersDiagram((2, 2, 2, 2, 2, 2)), 8) is None
        assert top_row_pack(FerrersDiagram((6, 6)), 8) is None

    def test_mid_run_step_preserves_squares_and_weight(self):
        # the fold-stable 13-square shape seen mid-run on 8 vertices
        D = FerrersDiagram((3, 3, 3, 3, 1))
        assert durfee_fold(D) is D
        out = top_row_pack(D, 8)
        assert out is not None
        assert out.squares == 13
        assert cells_of(out.columns) == pack_cells((3, 3, 3, 3, 1), 8)
        for k in (2, 3, 4):
            assert total_weight(out, k) >= total_weight(D, k)

    def test_cell_oracle_on_folded_shapes(self):
        for total in range(1, 13):
            for cols in all_partitions(total):
                folded = durfee_fold(FerrersDiagram(cols))
                n = folded.width + folded.height + 2
                got = top_row_pack(folded, n)
                want = pack_cells(folded.columns, n)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and cells_of(got.columns) == want
                    assert got.squares == total
                    for k in (2, 3):
                        assert total_weight(got, k) >= total_weight(folded, k)
                    assert got.columns < folded.columns

    def test_pack_can_empty_the_top_row(self):
        assert top_row_pack(FerrersDiagram((2, 1)), 5) == FerrersDiagram((1, 1, 1))

    def test_rejects_unfolded_top_row(self):
        # rows (2,2,2,2,1): four rows want a square but the top row has one
        with pytest.raises(GraphError, match="fold"):
            top_row_pack(FerrersDiagram((5, 4)), 20)

    def test_never_exceeds_a_tight_vertex_budget(self):
        for total in range(1, 13):
            for cols in all_partitions(total):
                folded = durfee_fold(FerrersDiagram(cols))
                tight = folded.width + folded.height
                out = top_row_pack(folded, tight)
                if out is not None:
                    assert out.width + out.height <= tight


def assert_moved_rules(trace):
    """Each entry's moved count matches the step that produced it."""
    for prev, cur in zip(trace.entries, trace.entries[1:]):
        if cur.kind == "shift":
            assert cur.moved == 1
        elif cur.kind == "step1":
            height = cur.columns[0]
            assert cur.moved == sum(a - height for a in prev.columns if a > height)
        elif cur.kind == "step2":
            top = prev.columns[0]  # the top row's index, 1-based
            top_row = sum(1 for a in prev.columns if a >= top)
            assert cur.moved == top_row - sum(1 for a in cur.columns if a >= top)


class TestRunTransformation:
    def test_moved_counts_on_a_worked_example(self):
        g = make_graph(8, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 3), (2, 4), (2, 6), (2, 7)])
        _, trace = run_transformation(g, 2)
        assert [t.kind for t in trace.entries] == ["start", "shift", "step1", "step2"]
        assert [t.moved for t in trace.entries] == [0, 1, 3, 1]
        assert_moved_rules(trace)

    def test_staircase_to_b813(self):
        g = realize_diagram(FerrersDiagram((4, 4, 3, 2)), 8)
        assert count_stars(g, 2) == 32
        endpoint, trace = run_transformation(g, 2)
        assert trace.entries[0].stars_2 == 32
        assert trace.entries[-1].stars_2 == 34
        assert are_isomorphic(endpoint, quasi_complete_bipartite(8, 13))

    def test_k26_terminates_immediately(self):
        endpoint, trace = run_transformation(complete_bipartite(2, 6), 2)
        assert are_isomorphic(endpoint, quasi_complete_bipartite(8, 12))
        assert [t.kind for t in trace.steps].count("step2") == 0
        assert all(t.stars_2 == 36 for t in trace.entries)

    def test_empty_graph(self):
        endpoint, trace = run_transformation(empty_graph(5), 2)
        assert endpoint == empty_graph(5)
        assert trace.steps == []

    def test_rejects_non_bipartite(self):
        with pytest.raises(GraphError, match="bipartite"):
            run_transformation(cycle_graph(5), 2)

    def test_vertex_budget_extends_host(self):
        g = complete_bipartite(2, 3)
        endpoint, _ = run_transformation(g, 2, n=9)
        assert endpoint.n == 9
        assert are_isomorphic(endpoint, quasi_complete_bipartite(9, 6))

    def test_lexicographic_behavior_of_diagram_steps(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 14)
            p = rng.randint(1, n // 2)
            pairs = [(a, b) for a in range(p) for b in range(p, n)]
            g = make_graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            _, trace = run_transformation(g, 2)
            for prev, cur in zip(trace.entries, trace.entries[1:]):
                if cur.kind == "step1":
                    assert cur.columns <= prev.columns
                if cur.kind == "step2":
                    assert cur.columns < prev.columns
                assert sum(cur.columns) == g.edge_count
                width = len(cur.columns)
                height = cur.columns[0] if cur.columns else 0
                assert width + height <= n

    def test_endpoint_star_count_matches_construction(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(2, 12)
            p = rng.randint(1, n // 2)
            pairs = [(a, b) for a in range(p) for b in range(p, n)]
            g = make_graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            for k in (2, 3):
                endpoint, trace = run_transformation(g, k)
                target = quasi_complete_bipartite(n, g.edge_count)
                assert count_stars(endpoint, k) == count_stars(target, k)
                assert trace.entries[-1].stars_k == count_stars(target, k)


class TestRewriteProperties:
    @given(bipartite_hosts(), st.integers(2, 5))
    @settings(max_examples=80, deadline=None)
    def test_trace_monotone_and_endpoint_extremal(self, g, k):
        P = bipartition_of(g)
        nested, shift_trace = shift_to_nested(g, P, k)
        assert shift_trace.entries[-1].columns == diagram_of(nested, P).columns
        endpoint, trace = run_transformation(g, k)
        assert trace.entries[: len(shift_trace.entries)] == shift_trace.entries
        assert_moved_rules(trace)
        for prev, cur in zip(trace.entries, trace.entries[1:]):
            assert cur.stars_k >= prev.stars_k
            if cur.kind == "shift":
                assert cur.stars_2 > prev.stars_2
        assert all(sum(t.columns) == g.edge_count for t in trace.entries)
        assert trace.entries[-1].stars_k == count_stars(endpoint, k)
        assert are_isomorphic(endpoint, quasi_complete_bipartite(g.n, g.edge_count))
