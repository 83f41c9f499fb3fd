"""Acceptance checks runnable at quick or full scale.

Each check returns a CheckResult; the suite passes when no check fails
(budget-limited checks may be skipped with a reason and do not fail the
suite). Randomized checks derive everything from the given seed, so
identical inputs give identical reports.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from itertools import product
from math import comb

from .asymptotics import star_matching_pair_bound
from .constructions import bipartite_edge_max, quasi_clique, quasi_complete_bipartite, quasi_star
from .counting import (
    PatternCounter,
    automorphism_count,
    count_copies,
    count_star_matching_pairs,
    count_stars,
    inj_homs,
)
from .decomposition import star_partition
from .graphs import Graph, are_isomorphic, complete_graph, make_graph, path_graph, star_graph
from .oracle import (
    EnumerationBudgetError,
    ex_bip_oracle,
    ex_oracle,
    ex_trifree_oracle,
    nonmonotonicity_demo,
)
from .transform import cell_weight, run_transformation


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


@dataclass(frozen=True, slots=True)
class SuiteReport:
    scale: str
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.results)


def _result(name: str, failures: list[str], detail: str = "") -> CheckResult:
    if failures:
        shown = "; ".join(failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        return CheckResult(name, False, f"{shown}{more}")
    return CheckResult(name, True, detail or "no violations")


def check_golden_star_counts(scale: str, seed: int) -> CheckResult:
    """2-leaf star counts of the 12- and 13-edge bipartite optima on 8 vertices."""
    got = (
        count_stars(quasi_complete_bipartite(8, 12), 2),
        count_stars(quasi_complete_bipartite(8, 13), 2),
    )
    failures = [] if got == (36, 34) else [f"expected (36, 34), got {got}"]
    return _result("golden-star-counts", failures, f"counts {got}")


def check_bipartite_star_sweep(scale: str, seed: int) -> CheckResult:
    """Bipartite oracle equals the construction count for every small case."""
    nmax = 8 if scale == "full" else 6
    failures = []
    cases = 0
    for n in range(2, nmax + 1):
        for e in range(1, bipartite_edge_max(n) + 1):
            construction = quasi_complete_bipartite(n, e)
            for k in (2, 3):
                cases += 1
                rec = ex_bip_oracle(n, e, star_graph(k))
                want = count_stars(construction, k)
                if rec.maximum != want:
                    failures.append(f"(n={n},e={e},k={k}): oracle {rec.maximum} != {want}")
    return _result("bipartite-star-sweep", failures, f"{cases} cases equal")


def check_bipartite_nonmonotonicity(scale: str, seed: int) -> CheckResult:
    """More edges, strictly fewer 2-leaf stars across (8,12) and (8,13)."""
    try:
        got = nonmonotonicity_demo()
    except RuntimeError as exc:
        return _result("bipartite-nonmonotonicity", [str(exc)])
    failures = [] if got == (36, 34) else [f"expected maxima (36, 34), got {got}"]
    return _result("bipartite-nonmonotonicity", failures, f"maxima {got}")


def _random_bipartite(rng: random.Random, nmax: int) -> Graph:
    n = rng.randint(2, nmax)
    p = rng.randint(1, n // 2)
    pairs = [(a, b) for a in range(p) for b in range(p, n)]
    e = rng.randint(0, len(pairs))
    return make_graph(n, rng.sample(pairs, e))


def check_transformation_soundness(scale: str, seed: int) -> CheckResult:
    """Random runs terminate, stay monotone, and land on the construction."""
    count, nmax = (200, 24) if scale == "full" else (40, 14)
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        G = _random_bipartite(rng, nmax)
        target = quasi_complete_bipartite(G.n, G.edge_count)
        for k in (2, 3, 4):
            endpoint, trace = run_transformation(G, k)
            label = f"graph {idx} (n={G.n}, e={G.edge_count}, k={k})"
            for prev, cur in zip(trace.entries, trace.entries[1:]):
                if cur.stars_k < prev.stars_k:
                    failures.append(f"{label}: {cur.kind} dropped k-stars")
                if cur.kind == "shift" and cur.stars_2 <= prev.stars_2:
                    failures.append(f"{label}: shift did not raise 2-stars")
                if sum(cur.columns) != G.edge_count:
                    failures.append(f"{label}: square count changed")
            if not are_isomorphic(endpoint, target):
                failures.append(f"{label}: endpoint not the construction")
    return _result(
        "transformation-soundness", failures, f"{count} graphs x 3 leaf counts"
    )


def check_weight_properties(scale: str, seed: int) -> CheckResult:
    """Symmetry, monotonicity, and the exchange inequality of the cell weight."""
    bound = 50 if scale == "full" else 20
    failures = []
    for k in range(2, 6):
        for i in range(1, bound + 1):
            for j in range(1, bound + 1):
                if cell_weight(i, j, k) != cell_weight(j, i, k):
                    failures.append(f"w({i},{j}) asymmetric at k={k}")
        for j in range(1, bound + 1):
            for i1 in range(1, bound + 1):
                for i2 in range(i1 + 1, bound + 1):
                    if cell_weight(i1, j, k) > cell_weight(i2, j, k):
                        failures.append(f"w not monotone at ({i1},{i2},{j}), k={k}")
        for x in range(1, bound + 1):
            for y in range(1, x + 1):
                for z in range(1, y):
                    if cell_weight(x - z, y, k) > cell_weight(x, y - z, k):
                        failures.append(f"exchange fails at ({x},{y},{z}), k={k}")
    return _result("weight-properties", failures, f"exhaustive to {bound}, k <= 5")


def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _star_partition_violation(T: Graph) -> str | None:
    sp = star_partition(T)
    covered: set[int] = set()
    for part, center in zip(sp.parts, sp.centers):
        if len(part) < 2:
            return f"part {sorted(part)} too small"
        if part & covered:
            return f"part {sorted(part)} overlaps"
        covered |= part
        if center not in part:
            return f"center {center} outside its part"
        inside = [(u, v) for u, v in T.edges if u in part and v in part]
        if len(inside) != len(part) - 1:
            return f"part {sorted(part)} does not induce a tree on its vertices"
        if any(center not in (u, v) for u, v in inside):
            return f"part {sorted(part)} not a star at {center}"
    if covered != set(range(T.n)):
        return "parts do not cover the vertex set"
    return None


def check_tree_star_partition(scale: str, seed: int) -> CheckResult:
    """Every tree splits into induced stars: exhaustive small, random larger."""
    exhaustive_n = 8 if scale == "full" else 6
    random_count, random_n = (500, 12) if scale == "full" else (100, 10)
    rng = random.Random(seed)
    failures = []
    trees = 0
    for n in range(2, exhaustive_n + 1):
        for seq in product(range(n), repeat=n - 2):
            trees += 1
            T = make_graph(n, _tree_from_pruefer(seq, n))
            bad = _star_partition_violation(T)
            if bad:
                failures.append(f"n={n} seq={seq}: {bad}")
    for idx in range(random_count):
        n = rng.randint(2, random_n)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        trees += 1
        T = make_graph(n, _tree_from_pruefer(seq, n))
        bad = _star_partition_violation(T)
        if bad:
            failures.append(f"random {idx}: {bad}")
    return _result("tree-star-partition", failures, f"{trees} trees")


def check_two_family_cherry_max(scale: str, seed: int) -> CheckResult:
    """The 2-leaf star maximum is one of the two families on every small case."""
    nmax = 7 if scale == "full" else 5
    pattern = star_graph(2)
    failures = []
    cases = 0
    for n in range(1, nmax + 1):
        for e in range(0, comb(n, 2) + 1):
            cases += 1
            rec = ex_oracle(n, e, pattern)
            want = max(
                count_stars(quasi_clique(n, e), 2), count_stars(quasi_star(n, e), 2)
            )
            if rec.maximum != want:
                failures.append(f"(n={n},e={e}): oracle {rec.maximum} != {want}")
    return _result("two-family-cherry-max", failures, f"{cases} cases equal")


def check_quasi_clique_sandwich(scale: str, seed: int) -> CheckResult:
    """At high density the construction is near-optimal for paths and triangles."""
    nmax = 7 if scale == "full" else 6
    failures = []
    cases = 0
    for n in range(2, nmax + 1):
        top = comb(n, 2)
        for e in range(math.ceil(0.8 * top), top + 1):
            for H in (path_graph(4), complete_graph(3)):
                cases += 1
                rec = ex_oracle(n, e, H)
                c = count_copies(H, quasi_clique(n, e))
                tag = f"(n={n},e={e},{'P4' if H.edge_count == 3 else 'K3'})"
                if rec.maximum < c:
                    failures.append(f"{tag}: oracle below construction")
                elif c == 0:
                    if rec.maximum != 0:
                        failures.append(f"{tag}: construction 0 but oracle {rec.maximum}")
                elif rec.maximum > 1.5 * c:
                    failures.append(f"{tag}: ratio {rec.maximum / c:.3f} > 1.5")
                if e == top and rec.maximum != c:
                    failures.append(f"{tag}: complete host should tie")
    return _result("quasi-clique-sandwich", failures, f"{cases} cases bounded")


def check_triangle_free_sandwich(scale: str, seed: int) -> CheckResult:
    """Triangle-free path maxima dominate the bipartite construction count."""
    nmax = 7 if scale == "full" else 5
    failures = []
    cases = 0
    for length in (4, 5):
        H = path_graph(length)
        for n in range(2, nmax + 1):
            for e in range(1, bipartite_edge_max(n) + 1):
                cases += 1
                rec = ex_trifree_oracle(n, e, H)
                c = count_copies(H, quasi_complete_bipartite(n, e))
                if rec.maximum < c:
                    failures.append(f"(n={n},e={e},l={length}): oracle below construction")
                if (n, e, length) == (4, 4, 4) and rec.maximum != 4:
                    failures.append(f"exact case (4,4): expected 4, got {rec.maximum}")
    return _result("triangle-free-sandwich", failures, f"{cases} cases bounded")


def check_star_matching_ratio(scale: str, seed: int) -> CheckResult:
    """Exact disjoint-pair counts against the closed-form upper estimate.

    At e = ceil(n^1.5) the ratio exact / estimate in B_n^e is
    1 - Theta(1/sqrt n). Of the sizes checked only n = 120 lies in the
    window [0.8, 1.0] (about 0.814; 0.638 at n = 30). Along consecutive
    n the ratio is a sawtooth that drops each time the small side steps
    up, t of B_n^e or the side a of the estimate: 19 drops for n in
    20..400, at n = 42 and 58 among them, so 40 -> 60 falls from 0.741
    to 0.734. Growth is therefore asserted along the doubling sizes
    30, 60, 120, and every size must satisfy 0 < ratio <= 1, the bound
    side of the estimate. Full scale checks n in {30, 40, 60, 120} and
    asserts the window at n = 120; quick scale checks {30, 40, 60} and
    growth from 30 to 60, and leaves the window to full scale.
    """
    doubling = (30, 60, 120) if scale == "full" else (30, 60)
    ratios = {}
    failures = []
    for n in sorted({*doubling, 40}):
        e = math.ceil(n**1.5)
        exact = count_star_matching_pairs(quasi_complete_bipartite(n, e), 2, 1)
        ratios[n] = exact / star_matching_pair_bound(2, 1, n, e)
        if not 0.0 < ratios[n] <= 1.0:
            failures.append(f"n={n}: ratio {ratios[n]:.4f} outside (0, 1]")
    for a, b in zip(doubling, doubling[1:]):
        if ratios[b] < ratios[a]:
            failures.append(f"ratio falls along doubling sizes: n={a} -> n={b}")
    if scale == "full":
        top = doubling[-1]
        window = f"window [0.8, 1.0] at n={top}"
        if not 0.8 <= ratios[top] <= 1.0:
            failures.append(f"n={top}: ratio {ratios[top]:.4f} outside [0.8, 1.0]")
    else:
        window = "window [0.8, 1.0] checked at full scale only"
    listing = "ratios " + ", ".join(f"n={n}: {r:.4f}" for n, r in ratios.items())
    if failures:
        return CheckResult("star-matching-ratio", False, "; ".join([*failures, listing]))
    return CheckResult("star-matching-ratio", True, f"{listing}; {window}")


def check_counter_cross_validation(scale: str, seed: int) -> CheckResult:
    """Degree-formula star counts and the homomorphism basis agree with the backtracking counter."""
    count = 300 if scale == "full" else 100
    rng = random.Random(seed)
    failures = []
    patterns = (path_graph(4), complete_graph(3), star_graph(2))
    for idx in range(count):
        n = rng.randint(1, 10)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        e = rng.randint(0, len(pairs))
        G = make_graph(n, rng.sample(pairs, e))
        for k in (2, 3, 4):
            if count_stars(G, k) != count_copies(star_graph(k), G):
                failures.append(f"graph {idx}: star counters disagree at k={k}")
        if count_stars(G, 1) != 2 * G.edge_count:
            failures.append(f"graph {idx}: 1-leaf star count is not 2e")
        for H in patterns:
            homs = inj_homs(H, G)
            if homs != count_copies(H, G) * automorphism_count(H):
                failures.append(f"graph {idx}: hom identity fails")
            if homs != PatternCounter(H).count(G):
                failures.append(f"graph {idx}: basis and backtracker disagree")
    return _result("counter-cross-validation", failures, f"{count} random graphs")


CHECKS = (
    ("1", check_golden_star_counts),
    ("2", check_bipartite_star_sweep),
    ("3", check_bipartite_nonmonotonicity),
    ("4", check_transformation_soundness),
    ("5", check_weight_properties),
    ("6", check_tree_star_partition),
    ("7", check_two_family_cherry_max),
    ("8", check_quasi_clique_sandwich),
    ("9", check_triangle_free_sandwich),
    ("10", check_star_matching_ratio),
    ("11", check_counter_cross_validation),
)


def run_verify_suite(scale: str = "quick", seed: int = 42) -> SuiteReport:
    """Run every check at the requested scale and collect results."""
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be quick or full, got {scale!r}")
    results = []
    for _, check in CHECKS:
        try:
            results.append(check(scale, seed))
        except EnumerationBudgetError as exc:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, True, f"skipped: {exc}", skipped=True))
    return SuiteReport(scale, seed, tuple(results))
