"""Closed-form growth estimates and empirical crossover scans.

The bounds here are finite-n evaluations of asymptotic expressions: the
disjoint star tuple bound for the quasi-clique and the star-plus-matching
pair bound for the quasi-complete bipartite graph. The star factor
product multiplies, over a pattern's star factors, the larger of the two
families' injective star counts; it is an estimate, not a bound on every
host at finite n. The crossover scan locates, at finite n, the edge
budget where the quasi-clique overtakes the quasi-star for a fixed star
pattern, exactly, from both families' degree sequences.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .constructions import bipartite_edge_max, clique_decomposition, family_degrees, small_side
# bench/tracer.py wraps count_stars, inj_homs and quasi_* here, so they stay imported.
from .constructions import quasi_clique, quasi_star  # noqa: F401
from .counting import count_stars, inj_homs, star_sum  # noqa: F401
from .decomposition import star_factor_profile
from .graphs import Graph, GraphError

# A scan evaluates about n degree terms at each of its C(n, 2) // step + 2
# samples; 3.2e7 of them took 7.6 s on a 2-vCPU VM, so the cap is about 25 s.
MAX_SCAN_WORK = 10**8


def max_small_side(n: int, e: int) -> int:
    """Largest side size a <= n/2 with a(n - a) <= e; needs e >= n - 1."""
    if e < n - 1:
        raise GraphError(f"no side size fits: e={e} is below n-1={n - 1}")
    if n < 2:
        raise GraphError(f"no side size fits for n={n}, e={e}")
    if e >= bipartite_edge_max(n):
        return n // 2
    t = small_side(n, e)
    return t if t * (n - t) == e else t - 1


def disjoint_star_tuple_bound(profile: tuple[int, ...], e: int) -> int:
    """Upper estimate for vertex-disjoint star tuples in the quasi-clique.

    For leaf counts a_1..a_k the product of (a_i + 1) * C(v + 1, a_i + 1)
    with v the clique order fitting e edges: the non-isolated part of the
    quasi-clique has at most v + 1 vertices, so each factor alone bounds
    the centered star count.
    """
    if any(a < 1 for a in profile):
        raise ValueError(f"leaf counts must be positive, got {profile}")
    v = clique_decomposition(e).a
    bound = 1
    for a in profile:
        bound *= (a + 1) * comb(v + 1, a + 1)
    return bound


def star_matching_pair_bound(k: int, m: int, n: int, e: int) -> int:
    """Upper estimate for disjoint (k-star, m-matching) pairs in B_n^e.

    C(e, m) * ((a+1) * C(n-a, k) + (n-a) * C(a+1, k)) with a the largest
    balanced side size fitting e edges.
    """
    if k < 2:
        raise ValueError(f"leaf count must be at least 2, got {k}")
    if m < 0:
        raise ValueError(f"matching size must be non-negative, got {m}")
    a = max_small_side(n, e)
    return comb(e, m) * ((a + 1) * comb(n - a, k) + (n - a) * comb(a + 1, k))


def star_factor_upper_bound(H: Graph, n: int, e: int) -> int:
    """Product over H's star factors S_a of a! times the larger two-family S_a count.

    Each factor takes the larger of its star counts in the quasi-clique
    and the quasi-star. This is not a bound at finite n: the two families
    need not hold the most S_a, so a host can have more injective maps of
    H. For S3 at n = 13, e = 61 the product is 9720, while K_11 plus two
    vertices, each joined to vertices 0, 1 and 2, has 9732.
    """
    if e < 1:
        raise GraphError(f"edge budget must be at least 1, got {e}")
    bound = 1
    for a in star_factor_profile(H):
        bound *= factorial(a) * max(star_sum(degrees, a) for degrees in family_degrees(n, e))
    return bound


@dataclass(frozen=True, slots=True)
class DensityScan:
    """Sampled comparison of the two families for a fixed star pattern.

    samples holds (e, clique count, star count) sorted by e. crossover_e
    is the smallest sampled e from which the clique value stays >= the
    star value through the end of the sample; the last sample is
    e = C(n, 2), where both families are K_n and tie, so it always
    exists. sign_changes lists every sampled e where the leadership flips.
    """

    j: int
    n: int
    step: int
    samples: tuple[tuple[int, int, int], ...]
    crossover_e: int
    sign_changes: tuple[int, ...]


def crossover_scan(j: int, n: int, step: int = 1) -> DensityScan:
    """Both families' j-star counts, from degree sequences, at e = 0, step, ..., C(n, 2)."""
    if j < 2:
        raise ValueError(f"leaf count must be at least 2, got {j}")
    if n < j + 2:
        raise ValueError(f"need n >= {j + 2} vertices for a meaningful scan")
    if step < 1:
        raise ValueError(f"stride must be positive, got {step}")
    top = comb(n, 2)
    work = (top // step + 2) * n
    if work > MAX_SCAN_WORK:
        raise ValueError(f"scan needs {work} degree terms, above {MAX_SCAN_WORK}; raise the step")
    samples = tuple(
        (e, *(star_sum(degrees, j) for degrees in family_degrees(n, e)))
        for e in [*range(0, top, step), top]
    )
    crossover = top
    for e, clique, star in reversed(samples):
        if clique < star:
            break
        crossover = e
    changes = []
    for prev, cur in zip(samples, samples[1:]):
        if (prev[1] >= prev[2]) != (cur[1] >= cur[2]):
            changes.append(cur[0])
    return DensityScan(j, n, step, samples, crossover, tuple(changes))
