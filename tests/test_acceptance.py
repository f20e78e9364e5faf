"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All random suites are fully seed-determined.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from feedsel import (
    FeedbackPattern,
    SetCoverInstance,
    check_no_sfm,
    condense,
    exact_oracle,
    greedy_single_input,
    reduce_set_cover,
    solve_dp,
    two_stage,
)
from feedsel.generators import random_line_system, random_single_input_system
from feedsel.graphs import hopcroft_karp, state_bipartite
from tests.conftest import (
    brute_force_set_cover,
    covering_edge_set,
    expand_runs,
    fig1_cover_instance,
    is_cover,
    random_system,
    section5_system,
    spanning_cycle_family_exists,
)


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def _line_instance(seed: int, perfect_matching: bool):
    rng = random.Random(seed)
    return random_line_system(
        rng,
        scc_count=rng.randint(2, 4),
        scc_size_range=(1, 3),
        n_inputs=rng.randint(2, 4),
        n_outputs=rng.randint(2, 4),
        cost_range=(1, 100),
        perfect_matching=perfect_matching,
    )


@pytest.fixture(scope="module")
def matched_chain_suite():
    """The 200 instances shared by criteria 3 and 5, solved once."""
    suite = []
    for idx in range(200):
        system, costs = _line_instance(30_000 + idx, perfect_matching=True)
        suite.append((system, costs, solve_dp(system, costs), exact_oracle(system, costs)))
    return suite


def test_criterion_1_reference_chain_golden():
    failures = []
    start = time.perf_counter()
    system, costs = section5_system()
    solution = solve_dp(system, costs)
    elapsed = time.perf_counter() - start
    stage_costs, _ = expand_runs(solution.certificates["dp_table"]["runs"])
    if stage_costs != (0, 2, 5, 5, 5):
        failures.append(f"stage costs {stage_costs} != (0, 2, 5, 5, 5)")
    if solution.pattern != FeedbackPattern.of((2, 3)):
        failures.append(f"pattern {solution.pattern.sorted_links()} != [(2, 3)]")
    if solution.cost != 5:
        failures.append(f"cost {solution.cost} != 5")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s (budget 1s)")
    _report(1, "reference chain golden values", failures)


def test_criterion_2_reduction_round_trip():
    failures = []
    start = time.perf_counter()
    base = fig1_cover_instance()
    system, _ = reduce_set_cover(base)
    if (system.n, system.m, system.p) != (6, 1, 3):
        failures.append(f"dimensions {(system.n, system.m, system.p)} != (6, 1, 3)")
    expected_a = frozenset({(i, i) for i in range(1, 7)} | {(i, 6) for i in range(1, 6)})
    if system.a_edges != expected_a:
        failures.append("state edges differ from the hub-plus-self-loops topology")
    if system.b_edges != frozenset({(6, 1)}):
        failures.append("input must drive exactly the hub state")
    expected_c = frozenset({(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (3, 5)})
    if system.c_edges != expected_c:
        failures.append("output sensing differs from the covered sets")
    if hopcroft_karp(state_bipartite(system).adjacency, system.n)[0] != system.n:
        failures.append("state bipartite graph lost its perfect matching")

    unit = SetCoverInstance(universe_size=5, sets=base.sets, weights=(1, 1, 1))
    unit_system, unit_costs = reduce_set_cover(unit)
    oracle = exact_oracle(unit_system, unit_costs)
    cover_optimum, _ = brute_force_set_cover(unit)
    if oracle.cost != 2:
        failures.append(f"unit-weight feedback optimum {oracle.cost} != 2")
    if cover_optimum != oracle.cost:
        failures.append(f"cover optimum {cover_optimum} != feedback optimum {oracle.cost}")
    if not is_cover(unit, {j for i, j in oracle.pattern.links}):
        failures.append("oracle pattern does not select a cover")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s (budget 1s)")
    _report(2, "set-cover reduction round trip", failures)


def test_criterion_3_dp_optimality_suite(matched_chain_suite):
    failures = []
    start = time.perf_counter()
    for idx, (system, costs, dp, oracle) in enumerate(matched_chain_suite):
        if system.n > 12 or system.m > 4 or system.p > 4:
            failures.append(f"instance {idx} exceeds the size bounds")
        if dp.method != "dp":
            failures.append(f"instance {idx}: unexpected method {dp.method}")
        if dp.cost != oracle.cost:
            failures.append(f"instance {idx}: dp {dp.cost} != oracle {oracle.cost}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"suite took {elapsed:.1f}s (budget 60s)")
    _report(3, "dp equals oracle on 200 matched chains", failures)


def test_criterion_4_two_stage_suite():
    failures = []
    start = time.perf_counter()
    for idx in range(200):
        system, costs = _line_instance(40_000 + idx, perfect_matching=False)
        if system.n > 12 or system.m > 4 or system.p > 4:
            failures.append(f"instance {idx} exceeds the size bounds")
        combined = two_stage(system, costs)
        oracle = exact_oracle(system, costs)
        if not combined.feasible or not check_no_sfm(system, combined.pattern).feasible:
            failures.append(f"instance {idx}: two-stage output infeasible")
            continue
        if combined.cost > 2 * oracle.cost:
            failures.append(
                f"instance {idx}: {combined.cost} > 2 * optimum {oracle.cost}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"suite took {elapsed:.1f}s (budget 120s)")
    _report(4, "two-stage within factor 2 on 200 unmatched chains", failures)


def test_criterion_5_optimum_hits_every_cover_set(matched_chain_suite):
    failures = []
    for idx, (system, costs, _, oracle) in enumerate(matched_chain_suite):
        condensation = condense(system)
        optimum = set(oracle.pattern.links)
        for k in range(1, condensation.scc_count + 1):
            if not optimum & covering_edge_set(condensation, costs, k):
                failures.append(f"instance {idx}: optimum misses cover set of SCC {k}")
    _report(5, "every optimum intersects every per-SCC cover set", failures)


def test_criterion_6_matching_equals_cycle_search():
    failures = []
    start = time.perf_counter()
    for idx in range(100):
        rng = random.Random(60_000 + idx)
        n = rng.randint(1, 8)
        m = rng.randint(0, min(3, 9 - n))
        p = rng.randint(0, max(0, min(3, 10 - n - m)))
        system, pattern = random_system(rng, n=n, m=m, p=p, a_density=0.3)
        fast = check_no_sfm(system, pattern).condition_b_ok
        slow = spanning_cycle_family_exists(system, pattern)
        if fast != slow:
            failures.append(
                f"instance {idx} (n={n}, m={m}, p={p}): matching {fast} vs search {slow}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"suite took {elapsed:.1f}s (budget 60s)")
    _report(6, "matching verdict equals exhaustive cycle search", failures)


def test_criterion_7_greedy_guarantee():
    failures = []
    start = time.perf_counter()
    for idx in range(100):
        rng = random.Random(70_000 + idx)
        system, costs = random_single_input_system(rng, n_branches=rng.randint(1, 8))
        condensation = condense(system)
        beta = len(condensation.non_bottom_linked_sccs())
        if beta > 8:
            failures.append(f"instance {idx}: beta {beta} > 8")
        greedy = greedy_single_input(system, costs)
        oracle = exact_oracle(system, costs)
        if not greedy.feasible or not check_no_sfm(system, greedy.pattern).feasible:
            failures.append(f"instance {idx}: greedy output infeasible")
            continue
        harmonic = sum(Fraction(1, i) for i in range(1, beta + 1))
        if Fraction(int(greedy.cost)) > harmonic * Fraction(int(oracle.cost)):
            failures.append(
                f"instance {idx}: greedy {greedy.cost} > H({beta}) * {oracle.cost}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        failures.append(f"suite took {elapsed:.1f}s (budget 30s)")
    _report(7, "greedy within the harmonic factor on 100 instances", failures)


def test_criterion_8_complexity_smoke():
    failures = []

    def timed_solve(n_sccs: int) -> float:
        system, costs = random_line_system(
            123, scc_count=n_sccs, scc_size_range=(1, 1), n_inputs=50, n_outputs=50
        )
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            solution = solve_dp(system, costs)
            runs.append(time.perf_counter() - start)
            assert solution.feasible
        return sorted(runs)[1]

    t_250 = timed_solve(250)
    t_500 = timed_solve(500)
    t_1000 = timed_solve(1000)
    if t_1000 >= 10:
        failures.append(f"n=1000 solve took {t_1000:.2f}s (budget 10s)")
    slope = math.log(t_1000 / t_250) / math.log(1000 / 250)
    if slope > 3.3:
        failures.append(
            f"log-log slope {slope:.2f} > 3.3 (times {t_250:.4f}/{t_500:.4f}/{t_1000:.4f})"
        )
    print(
        f"  timings: n=250 {t_250 * 1e3:.1f}ms, n=500 {t_500 * 1e3:.1f}ms, "
        f"n=1000 {t_1000 * 1e3:.1f}ms, slope {slope:.2f}"
    )
    _report(8, "thousand-SCC chain under 10s with sub-cubic growth", failures)
