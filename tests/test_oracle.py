import functools
import multiprocessing.process
import random
import sys
import threading
import tracemalloc
from itertools import combinations, permutations
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import excount.oracle as oracle
from excount.constructions import quasi_clique, quasi_complete_bipartite, quasi_star, small_side
from excount.counting import PatternCounter, automorphism_count, count_copies, star_sum
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
    ExtremalRecord,
    ex_bip_oracle,
    ex_oracle,
    ex_trifree_oracle,
    nonmonotonicity_demo,
)
from excount.reporting import emit_report
from test_counting import deadline

ORACLES = {"all": ex_oracle, "bipartite": ex_bip_oracle, "triangle_free": ex_trifree_oracle}


@functools.lru_cache(maxsize=None)
def _orbit_roots(n):
    """The least member of each labeled graph's orbit under relabeling, by union-find.

    A graph on n vertices is a bitmask over combinations(range(n), 2). The
    transposition (0 1) and the cycle (0 1 ... n-1) generate every
    relabeling, so joining each mask with its two images joins each orbit.
    """
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    moves = [{0: 1, 1: 0} if n > 1 else {}, {v: (v + 1) % n for v in range(n)}]
    images = [
        [1 << index[tuple(sorted((g.get(u, u), g.get(v, v))))] for u, v in pairs] for g in moves
    ]
    root = list(range(1 << len(pairs)))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for mask in range(len(root)):
        for image in images:
            other = sum(bit for i, bit in enumerate(image) if mask >> i & 1)
            a, b = find(mask), find(other)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(mask) for mask in range(len(root))]


def _labeled_record(n, e, H, host_class, witnesses):
    """The labeled sweep the class oracle replaced, kept as its reference.

    Every e-subset of every pool is visited in pool-then-rank order, hosts
    with a triangle are dropped for the triangle-free class, and the
    witnesses are the earliest hosts that reach the maximum from distinct
    isomorphism classes. Isomorphism is orbit membership under relabeling,
    so each orbit is scored once: stars by the sum of d!/(d-k)! over the
    degrees, other patterns by the backtracking counter.
    """
    if host_class == "bipartite":
        pools = [
            [(i, j) for i in range(p) for j in range(p, n)]
            for p in range(n // 2 + 1)
            if p * (n - p) >= e
        ]
    else:
        pools = [list(combinations(range(n), 2))]
    bit = {pair: 1 << i for i, pair in enumerate(combinations(range(n), 2))}
    roots = _orbit_roots(n)
    star = H.n >= 2 and H.edge_count == H.n - 1 == max(H.degrees)
    counter = PatternCounter(H)
    scores = {}
    best, kept = -1, {}
    for pool in pools:
        for combo in combinations(pool, e):
            orbit = roots[sum(map(bit.__getitem__, combo))]
            if orbit not in scores:
                g = make_graph(n, combo)
                if host_class == "triangle_free" and not is_triangle_free(g):
                    scores[orbit] = -1
                elif star:
                    scores[orbit] = sum(perm(d, H.n - 1) for d in g.degrees)
                else:
                    scores[orbit] = counter.count(g)
            score = scores[orbit]
            if score > best:
                best, kept = score, {}
            if score == best and len(kept) < witnesses and orbit not in kept:
                kept[orbit] = make_graph(n, combo)
    return ExtremalRecord(
        n, e, H, host_class, best // automorphism_count(H), tuple(kept.values())
    )


def _assert_same_record(rec, ref):
    assert rec == ref
    assert [w.sorted_edges() for w in rec.witnesses] == [w.sorted_edges() for w in ref.witnesses]
    assert emit_report([rec]) == emit_report([ref])


class TestRecordsMatchTheLabeledSweep:
    @pytest.mark.parametrize("host_class", list(ORACLES))
    @pytest.mark.parametrize(
        "H",
        [
            star_graph(2),
            path_graph(4),
            complete_graph(3),
            cycle_graph(4),
            path_graph(5),
            make_graph(4, [(0, 1), (2, 3)]),
        ],
        ids=["S2", "P4", "K3", "C4", "P5", "2K2"],
    )
    def test_every_edge_count_up_to_six_vertices(self, H, host_class):
        sweep = ORACLES[host_class]
        for n in range(1, 7):
            top = comb(n, 2) if host_class == "all" else n * n // 4
            for e in range(top + 1):
                for witnesses in (1, 3):
                    ref = _labeled_record(n, e, H, host_class, witnesses)
                    for threads in (1, 2):
                        rec = sweep(n, e, H, witnesses=witnesses, threads=threads)
                        _assert_same_record(rec, ref)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_patterns(self, data):
        k = data.draw(st.integers(1, 5), label="pattern vertices")
        pairs = list(combinations(range(k), 2))
        mask = data.draw(st.integers(0, 2 ** len(pairs) - 1), label="pattern edges")
        H = make_graph(k, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        host_class = data.draw(st.sampled_from(list(ORACLES)), label="host class")
        n = data.draw(st.integers(1, 6), label="n")
        top = comb(n, 2) if host_class == "all" else n * n // 4
        e = data.draw(st.integers(0, top), label="e")
        ref = _labeled_record(n, e, H, host_class, 3)
        _assert_same_record(ORACLES[host_class](n, e, H), ref)


class TestStarsScoreAsTheDegreeFormula:
    # The counter scores stars too; the degree formula it replaced is the reference.
    @pytest.mark.parametrize("host_class", list(ORACLES))
    def test_every_star_up_to_seven_vertices(self, host_class):
        for n in range(1, 8):
            top = comb(n, 2) if host_class == "all" else n * n // 4
            for k in range(1, 5):
                S = star_graph(k)
                for e in range(top + 1):
                    rec = ORACLES[host_class](n, e, S)
                    classes = oracle._classes(n, e, host_class)
                    want = max(factorial(k) * star_sum(G.degrees, k) for G in classes)
                    assert rec.maximum * automorphism_count(S) == want, (n, e, k)


class TestWitnessCount:
    @pytest.mark.parametrize("witnesses", [-1, -2])
    @pytest.mark.parametrize("host_class", list(ORACLES))
    def test_negative_count_is_rejected_before_generation(self, host_class, witnesses, monkeypatch):
        def refuse(*args):
            raise AssertionError("generated classes for a rejected call")

        monkeypatch.setattr(oracle, "_classes", refuse)
        with pytest.raises(ValueError, match=f"non-negative, got {witnesses}"):
            ORACLES[host_class](5, 4, path_graph(4), witnesses=witnesses)

    @pytest.mark.parametrize("host_class", list(ORACLES))
    def test_zero_keeps_the_maximum_and_no_witness(self, host_class):
        rec = ORACLES[host_class](5, 4, path_graph(4), witnesses=0)
        assert rec.witnesses == ()
        assert rec.maximum == ORACLES[host_class](5, 4, path_graph(4)).maximum


class TestClasses:
    # Graphs, triangle-free graphs and bipartite graphs up to isomorphism
    # on n = 1, 2, ... vertices (OEIS A000088, A006785, A033995).
    @pytest.mark.parametrize(
        "host_class, totals",
        [
            ("all", [1, 2, 4, 11, 34, 156, 1044]),
            ("triangle_free", [1, 2, 3, 7, 14, 38, 107, 410]),
            ("bipartite", [1, 2, 3, 7, 13, 35, 88, 303]),
        ],
    )
    def test_class_counts(self, host_class, totals):
        for n, total in enumerate(totals, start=1):
            top = comb(n, 2) if host_class == "all" else n * n // 4
            found = [list(oracle._classes(n, e, host_class)) for e in range(top + 1)]
            assert sum(map(len, found)) == total, n
            for e, graphs in enumerate(found):
                for i, g in enumerate(graphs):
                    assert g.edge_count == e
                    assert not any(are_isomorphic(g, h) for h in graphs[:i])

    def test_left_sizes_are_the_left_parts_of_every_two_coloring(self):
        # A bipartite pool holds a copy of g exactly when p is a left-part size of g.
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for e in range(len(pairs) + 1):
                for combo in combinations(pairs, e):
                    g = make_graph(n, combo)
                    if bipartition_of(g) is None:
                        continue
                    want = {
                        len(left)
                        for r in range(n + 1)
                        for left in combinations(range(n), r)
                        if all((u in left) != (v in left) for u, v in combo)
                    }
                    got = {p for p in range(n + 1) if oracle._first_host(g, [p]) is not None}
                    assert got == want, combo

    def test_walk_builds_only_hosts_that_can_be_witnesses(self, monkeypatch):
        built = []

        def counting_make_graph(n, edges):
            built.append(n)
            return make_graph(n, edges)

        monkeypatch.setattr(oracle, "make_graph", counting_make_graph)
        rec = ex_oracle(300, 1, star_graph(2))
        assert rec.maximum == 0 and rec.witnesses == (make_graph(300, [(0, 1)]),)
        assert len(built) <= 4
        # A parent with edges on 0..k-1 takes pairs within 0..k or (k, k + 1) only,
        # so a wide host tests a handful of children, not every pair.
        tested, keep = [], oracle._is_first_host

        def counting_keep(masks):
            tested.append(len(masks))
            return keep(masks)

        monkeypatch.setattr(oracle, "_is_first_host", counting_keep)
        for e, classes, maximum, witnesses in ((2, 2, 0, 2), (3, 5, 1, 1)):
            built.clear()
            tested.clear()
            rec = ex_oracle(300, e, path_graph(4), budget=10**15)
            assert rec.maximum == maximum and len(rec.witnesses) == witnesses
            assert len(built) <= classes + witnesses
            assert len(tested) <= 12

    @pytest.mark.parametrize("host_class", list(ORACLES))
    def test_levels_hold_first_hosts(self, host_class):
        # Read's orderly generation keeps each class as its own first host;
        # dense levels of every pair are complements and are not.
        for n in range(1, 8):
            top = comb(n, 2) if host_class == "all" else n * n // 4
            for e in range(top + 1):
                if host_class == "all" and 2 * e > top:
                    break
                for G in oracle._classes(n, e, host_class):
                    assert tuple(G.sorted_edges()) == oracle._first_host(G, [None])[1]

    def test_keep_test_accepts_exactly_the_least_relabeling(self):
        # Brute force over all n! relabelings of every labeled graph.
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            perms = list(permutations(range(n)))
            for mask in range(1 << len(pairs)):
                edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
                least = min(
                    sorted((min(pi[u], pi[v]), max(pi[u], pi[v])) for u, v in edges) for pi in perms
                )
                masks = [0] * n
                for u, v in edges:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
                assert oracle._is_first_host(masks) == (edges == least), edges


def _record_bytes(rec):
    return rec.e, rec.maximum, [w.sorted_edges() for w in rec.witnesses], emit_report([rec])


def _family_sweep(host_class, n, H):
    """Every e of one (n, host_class) as (e, maximum, witness edge lists, CSV)."""
    top = comb(n, 2) if host_class == "all" else n * n // 4
    return [_record_bytes(ORACLES[host_class](n, e, H)) for e in range(top + 1)]


class TestLevelStore:
    """_classes keeps the levels of the last (n, host_class) and extends them on demand."""

    def test_warm_shuffled_calls_match_cold_calls(self, monkeypatch):
        H = path_graph(4)
        calls = [
            (host_class, n, e)
            for host_class in ORACLES
            for n in range(1, 7)
            for e in range((comb(n, 2) if host_class == "all" else n * n // 4) + 1)
        ]
        cold = {}
        for call in calls:
            monkeypatch.setattr(oracle, "_store", (None, []))
            cold[call] = _record_bytes(ORACLES[call[0]](call[1], call[2], H))
        random.Random(1).shuffle(calls)
        for call in calls:
            assert _record_bytes(ORACLES[call[0]](call[1], call[2], H)) == cold[call], call

    def test_sweep_over_e_tests_each_child_once(self, monkeypatch):
        tested, keep = [], oracle._is_first_host

        def counting_keep(masks):
            tested.append(len(masks))
            return keep(masks)

        monkeypatch.setattr(oracle, "_is_first_host", counting_keep)
        monkeypatch.setattr(oracle, "_store", (None, []))
        ex_oracle(6, 7, path_graph(4))
        deepest = len(tested)
        assert deepest > 0
        monkeypatch.setattr(oracle, "_store", (None, []))
        tested.clear()
        for e in range(comb(6, 2) + 1):
            ex_oracle(6, e, path_graph(4))
        assert len(tested) == deepest
        tested.clear()
        ex_oracle(6, 7, path_graph(4))
        assert tested == []

    def test_a_deeper_call_extends_a_copy(self, monkeypatch):
        # a published list never changes, so a caller still reading it is safe
        monkeypatch.setattr(oracle, "_store", (None, []))
        ex_oracle(6, 3, path_graph(4))
        published = oracle._store[1]
        snapshot = [list(level) for level in published]
        ex_oracle(6, 7, path_graph(4))
        assert oracle._store[1] is not published and len(oracle._store[1]) == 8
        assert published == snapshot and oracle._store[1][:4] == snapshot

    @pytest.mark.parametrize("e", [0, 4])
    def test_another_family_releases_the_old_levels(self, monkeypatch, e):
        monkeypatch.setattr(oracle, "_store", (None, []))
        ex_bip_oracle(6, 9, path_graph(4))
        old = oracle._store[1]
        assert len(old) == 10
        ex_trifree_oracle(6, e, path_graph(4))
        assert oracle._store[0] == (6, "triangle_free") and len(oracle._store[1]) == e + 1
        # only this frame's name and getrefcount's argument still refer to the old levels
        assert sys.getrefcount(old) == 2

    def test_two_threads_sweeping_different_families_match_serial(self, monkeypatch):
        H = path_graph(4)
        families = [("all", 6), ("bipartite", 7)]
        serial = []
        for host_class, n in families:
            monkeypatch.setattr(oracle, "_store", (None, []))
            serial.append(_family_sweep(host_class, n, H))
        monkeypatch.setattr(oracle, "_store", (None, []))
        got = [None, None]

        def run(i):
            got[i] = _family_sweep(*families[i], H)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == serial


class TestFirstHost:
    @pytest.mark.parametrize("host_class", list(ORACLES))
    def test_is_the_least_relabeling_of_every_class(self, host_class):
        # Brute force over all n! relabelings: the least sorted tuple of pool
        # indices among the relabelings whose edges all lie in the pool. The
        # bipartite oracle's pools key a class by the first that holds it.
        for n in range(1, 7):
            perms = list(permutations(range(n)))
            top = comb(n, 2) if host_class == "all" else n * n // 4
            if host_class == "bipartite":
                pools = {p: [(i, j) for i in range(p) for j in range(p, n)] for p in range(n // 2 + 1)}
            else:
                pools = {None: list(combinations(range(n), 2))}
            for e in range(top + 1):
                for G in oracle._classes(n, e, host_class):
                    edges = G.sorted_edges()
                    least = {}
                    for p, pool in pools.items():
                        index = {pair: i for i, pair in enumerate(pool)}
                        ranks = []
                        for pi in perms:
                            moved = [(min(pi[u], pi[v]), max(pi[u], pi[v])) for u, v in edges]
                            if all(pair in index for pair in moved):
                                ranks.append(tuple(sorted(index[pair] for pair in moved)))
                        key = oracle._first_host(G, [p])
                        if not ranks:
                            assert key is None, (edges, p)
                        else:
                            assert tuple(index[pair] for pair in key[1]) == min(ranks), (edges, p)
                            least[p] = min(ranks)
                    if host_class == "bipartite":
                        sides = range(small_side(n, e), n // 2 + 1)
                        first = next(i for i, p in enumerate(sides) if p in least)
                        i, host = oracle._first_host(G, sides)
                        rank = {pair: r for r, pair in enumerate(pools[sides[i]])}
                        assert i == first and tuple(rank[pair] for pair in host) == least[sides[i]]

    def test_witness_search_builds_one_graph_per_maximal_class(self, monkeypatch):
        built = []

        def counting_make_graph(n, edges):
            built.append(n)
            return make_graph(n, edges)

        monkeypatch.setattr(oracle, "make_graph", counting_make_graph)
        keyed, first_host = [], oracle._first_host

        def counting_first_host(G, sides):
            keyed.append(G)
            return first_host(G, sides)

        monkeypatch.setattr(oracle, "_first_host", counting_first_host)
        H = path_graph(4)
        classes = list(oracle._classes(8, 16, "triangle_free"))
        class_builds = len(built)
        built.clear()
        rec = ex_trifree_oracle(8, 16, H)
        maximal = [G for G in classes if count_copies(H, G) == rec.maximum]
        assert len(built) <= class_builds + len(maximal)
        assert keyed == maximal
        k44 = [(0, 1), (0, 2), (0, 3), (0, 4)] + [(i, j) for i in (1, 2, 3, 4) for j in (5, 6, 7)]
        assert [w.sorted_edges() for w in rec.witnesses] == [k44]


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

    @pytest.mark.parametrize("budget", [10**3, 10**6, 10**8])
    def test_budget_refuses_exactly_the_labeled_hosts_at_level_e(self, monkeypatch, budget):
        # all-host levels above C(n, 2) / 2 edges are complements, so the largest level
        # built holds C(C(n, 2), e) labeled hosts; a call that passes the check builds a level
        class Built(Exception):
            pass

        def build(n, e, host_class):
            raise Built

        monkeypatch.setattr(oracle, "_classes", build)
        for n in range(1, 13):
            for e in range(comb(n, 2) + 1):
                with pytest.raises((EnumerationBudgetError, Built)) as caught:
                    ex_oracle(n, e, path_graph(2), budget=budget)
                assert caught.type is (EnumerationBudgetError if comb(comb(n, 2), e) > budget else Built)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ex_bip_oracle(12, 36, star_graph(2)),
            lambda: ex_oracle(300, 10000, path_graph(4)),
            lambda: ex_oracle(3000, 10**6, path_graph(4)),
        ],
        ids=["bipartite-12-36", "all-300-10000", "all-3000-1000000"],
    )
    def test_hostile_sizes_are_refused_at_once(self, call):
        # the bipartite levels below e = 36 hold every class on 12 vertices, and the
        # exact binomials of the others run past the 4300 digits an int may print
        with deadline(1), pytest.raises(EnumerationBudgetError):
            call()

    def test_pattern_deeper_than_the_recursion_limit(self):
        # every score is 0; the automorphism count walks the 1100-vertex path with its own stack
        assert ex_oracle(3, 0, path_graph(1100)).maximum == 0

    # threads selects no code path: every thread count gives the serial record.
    def test_threads_match_serial(self):
        serial = ex_oracle(5, 5, star_graph(2), threads=1)
        for threads in (2, 10**6):
            _assert_same_record(ex_oracle(5, 5, star_graph(2), threads=threads), serial)

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
    def test_shards_match_serial(self, sweep, n, e, pattern, threads):
        _assert_same_record(sweep(n, e, pattern, threads=threads), sweep(n, e, pattern, threads=1))

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        # A huge thread count starts no thread and no process.
        def refuse(self):
            raise AssertionError("the oracle started a thread or process")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        serial = ex_oracle(6, 7, path_graph(4), threads=1)
        _assert_same_record(ex_oracle(6, 7, path_graph(4), threads=10**6), serial)


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

    def test_sides_are_every_p_whose_pool_holds_e_edges(self, monkeypatch):
        seen = []
        monkeypatch.setattr(oracle, "_sweep", lambda n, e, H, cls, sides, *rest: seen.append(sides))
        for n in range(41):
            for e in range(n * n // 4 + 1):
                ex_bip_oracle(n, e, path_graph(2))
                assert list(seen.pop()) == [p for p in range(n // 2 + 1) if p * (n - p) >= e]

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

    def test_single_host_pool_is_emitted_directly(self):
        outcome, peak = _traced_peak_mb(ex_oracle, 2000, 0, path_graph(4))
        assert outcome.witnesses == (empty_graph(2000),)
        assert peak < 1


class TestNonmonotonicity:
    def test_demo_values(self):
        assert nonmonotonicity_demo() == (36, 34)
