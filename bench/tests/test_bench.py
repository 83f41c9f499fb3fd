"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They run the real workloads once traced and once untraced, so they take
about a minute.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import excount as ec  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, PATCHES, Tracer  # noqa: E402


def _direct_host_count(host_class: str, n: int, e: int) -> int:
    if host_class == "bipartite":
        return sum(
            sum(1 for _ in combinations([(a, b) for a in range(p) for b in range(p, n)], e))
            for p in range(1, n // 2 + 1)
            if p * (n - p) >= e
        )
    return sum(1 for _ in combinations(list(combinations(range(n), 2)), e))


@pytest.mark.parametrize("host_class", ["all", "bipartite", "triangle_free"])
def test_host_count_formula_matches_enumeration(host_class):
    for n in range(1, 7):
        top = n * n // 4 if host_class != "all" else n * (n - 1) // 2
        for e in range(1, top + 1):
            assert workloads.hosts_in_range(host_class, n, e) == _direct_host_count(
                host_class, n, e
            ), (host_class, n, e)


@pytest.mark.parametrize("host_class", ["all", "bipartite", "triangle_free"])
def test_oracle_scores_every_host_in_range(host_class):
    """Counter calls under the oracle span equal the hosts that reach scoring.

    That is every host in range, except that triangle-free sweeps filter
    out the hosts with a triangle first.
    """
    name, fn = workloads.ORACLES[host_class]
    P4 = ec.path_graph(4)
    tracer = Tracer()
    for n, e in ((5, 4), (5, 6), (6, 5)):
        if host_class == "triangle_free":
            pool = list(combinations(range(n), 2))
            want = sum(
                1
                for edges in combinations(pool, e)
                if not workloads._has_triangle(ec.make_graph(n, edges))
            )
        else:
            want = workloads.hosts_in_range(host_class, n, e)
        tracer.install()
        try:
            tracer.call(f"oracle.{name}", fn, n, e, P4)
        finally:
            tracer.uninstall()
        scored = tracer.summary().n_calls(name="counting.count", parent_layer="oracle")
        assert scored == want, (n, e)


def test_tracer_restores_every_patched_attribute():
    before = [owner.__dict__[attr] for owner, attr, _ in PATCHES]
    tracer = Tracer()
    tracer.install()
    assert all(owner.__dict__[attr] is not b for (owner, attr, _), b in zip(PATCHES, before))
    tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _ in PATCHES] == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_agree(workload):
    inputs = workloads.prepare(workload, 7)
    plain = workloads.run_pass(workload, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        traced = workloads.run_pass(workload, inputs, tracer)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.attempted == traced.attempted > 0
    assert plain.digest == traced.digest
    # Layer self times plus the checks' own time cover the traced pass.
    s = tracer.summary()
    covered = sum(s.self_seconds(layer=layer) for layer in LAYERS + ("bench",))
    assert 0.95 * wall <= covered <= wall


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    draws = [workloads.make_inputs(workload, seed) for seed in range(1, 6)]
    assert any(d != draws[0] for d in draws[1:])


def test_seed_changes_every_seeded_input():
    a, b = (workloads.make_inputs("rewrite", s) for s in (1, 2))
    assert all(x != y for x, y in zip(a["hosts"], b["hosts"]))
    assert sum(x != y for x, y in zip(a["trees"], b["trees"])) > len(a["trees"]) // 2
    a, b = (workloads.make_inputs("count-large", s) for s in (1, 2))
    assert a["deep_hosts"] != b["deep_hosts"]
    texts = {workloads.make_inputs("oracle-sweep", s)["pattern_texts"]["R"] for s in range(10)}
    assert len(texts) > 1
    assert (
        workloads.make_inputs("oracle-sweep", 4)["pattern_texts"]
        == workloads.make_inputs("oracle-sharded", 4)["pattern_texts"]
    )


def test_random_pattern_is_a_labeled_path_or_four_cycle():
    import random

    seen = set()
    for seed in range(200):
        H = workloads.random_pattern(random.Random(seed))
        assert H.n == 4 and sorted(H.degrees) in ([1, 1, 2, 2], [2, 2, 2, 2])
        seen.add(H)
    assert len(seen) == 15


@pytest.mark.parametrize(
    "cpus, threads", [(None, 1), (0, 1), (1, 1), (2, 2), (3, 2), (256, 2)]
)
def test_shard_threads_never_exceed_the_cpu_count(cpus, threads):
    assert workloads.shard_threads(cpus) == threads


def test_fastest_of_is_the_mean_fastest_over_every_subset():
    import random

    rng = random.Random(5)
    k = run.FASTEST_OF
    for n in range(k, 9):
        values = [rng.random() for _ in range(n)]
        subsets = list(combinations(values, k))
        assert run.fastest_of(values) == pytest.approx(sum(map(min, subsets)) / len(subsets))
    assert run.fastest_of([2.0, 1.0]) == 1.0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ["--workload", "rewrite", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
