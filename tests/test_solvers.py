import hashlib
import math
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedsel import (
    INF,
    BudgetExceededError,
    Condensation,
    CostMatrix,
    DimensionError,
    FeedbackPattern,
    PreconditionError,
    SetCoverInstance,
    StructuredSystem,
    check_no_sfm,
    condense,
    cost_of,
    dp_cover,
    exact_oracle,
    greedy_set_cover,
    greedy_single_input,
    load_setcover,
    min_cost_condition_b,
    reduce_set_cover,
    solve_dp,
    solvers,
    two_stage,
)
from feedsel.generators import random_line_system, random_single_input_system
from feedsel.graphs import hopcroft_karp, missing_path_links, state_bipartite
from tests.conftest import (
    brute_force_set_cover,
    closed_loop_cost_rows,
    costly_cover,
    cover_weight,
    covering_edge_set,
    dense_cost_rows,
    dense_min_cost_assignment,
    is_cover,
    random_system,
    reference_dp_cover,
)
from tests.test_acceptance import _line_instance


def reference_condensation() -> Condensation:
    """The worked chain instance, encoded directly as incidence data."""
    return Condensation(
        sccs=(
            frozenset({1, 2, 3}),
            frozenset({4, 5}),
            frozenset({6}),
            frozenset({7, 8, 9, 10}),
        ),
        dag_edges=frozenset({(1, 2), (2, 3), (3, 4)}),
        input_incidence=(
            frozenset({1, 2}),
            frozenset({2}),
            frozenset({3}),
            frozenset({3, 4}),
        ),
        output_incidence=(
            frozenset({1}),
            frozenset(),
            frozenset({2}),
            frozenset({3}),
        ),
    )


REFERENCE_COSTS = CostMatrix.from_rows(
    [[2, 10, 100], [7, 8, 5], [9, 5, 50], [10, 11, 13]]
)


def forced_chain() -> tuple[StructuredSystem, CostMatrix]:
    """Two-state chain whose only cycle family needs the single link."""
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(2, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    return system, CostMatrix.from_rows([[7]])


# ---------------------------------------------------------------------------
# chain dynamic program


def test_dp_reference_table_and_pattern():
    solution = dp_cover(reference_condensation(), REFERENCE_COSTS)
    table = solution.certificates["dp_table"]
    assert table.stage_costs == (0, 2, 5, 5, 5)
    assert solution.pattern == FeedbackPattern.of((2, 3))
    assert solution.cost == 5
    assert solution.feasible


def test_dp_single_scc_takes_cheapest_entry():
    condensation = Condensation(
        sccs=(frozenset({1, 2}),),
        dag_edges=frozenset(),
        input_incidence=(frozenset({1, 2}),),
        output_incidence=(frozenset({1, 2}),),
    )
    costs = CostMatrix.from_rows([[9, 4], [6, 8]])
    solution = dp_cover(condensation, costs)
    assert solution.cost == 4
    assert solution.pattern == FeedbackPattern.of((1, 2))


def test_dp_all_forbidden_is_infeasible():
    costs = CostMatrix.from_rows([[INF] * 3] * 4)
    solution = dp_cover(reference_condensation(), costs)
    assert not solution.feasible
    assert math.isinf(solution.certificates["dp_table"].stage_costs[4])
    assert "SCC" in solution.reason


def test_dp_rejects_non_line_condensation():
    condensation = Condensation(
        sccs=(frozenset({1}), frozenset({2}), frozenset({3})),
        dag_edges=frozenset({(1, 2), (1, 3)}),
        input_incidence=(frozenset({1}),) * 3,
        output_incidence=(frozenset({1}),) * 3,
    )
    with pytest.raises(PreconditionError, match=r"\(2, 3\)"):
        dp_cover(condensation, CostMatrix.from_rows([[1]]))


def _two_scc_chain(inputs, outputs) -> Condensation:
    return Condensation(
        sccs=(frozenset({1}), frozenset({2})),
        dag_edges=frozenset({(1, 2)}),
        input_incidence=tuple(frozenset(s) for s in inputs),
        output_incidence=tuple(frozenset(s) for s in outputs),
    )


@pytest.mark.parametrize("inputs, outputs, message", [
    ([{1}, {0}], [{1}, {2}], "input u0 outside cost matrix with m=2"),
    ([{1}, {3}], [{1}, {2}], "input u3 outside cost matrix with m=2"),
    ([{1}, {2}], [{0}, {2}], "output y0 outside cost matrix with p=2"),
    ([{1}, {2}], [{3}, {2}], "output y3 outside cost matrix with p=2"),
])
def test_dp_rejects_incidence_outside_the_cost_matrix(inputs, outputs, message):
    with pytest.raises(DimensionError, match=rf"^{message}$"):
        dp_cover(_two_scc_chain(inputs, outputs), CostMatrix.from_rows([[1, 2], [3, 4]]))


def test_dp_on_an_empty_cost_matrix_skips_the_output_check():
    # With m = 0 no input may appear, and the matrix has no column count to
    # check outputs against; no link exists, so the chain stays uncovered.
    solution = dp_cover(_two_scc_chain([set(), set()], [{5}, {9}]), CostMatrix.from_rows([]))
    assert solution.method == "dp"
    assert not solution.feasible
    assert solution.pattern == FeedbackPattern()
    assert solution.certificates["dp_table"].stage_costs == (0, INF, INF)
    with pytest.raises(DimensionError, match=r"^input u1 outside cost matrix with m=0$"):
        dp_cover(_two_scc_chain([{1}, set()], [{5}, {9}]), CostMatrix.from_rows([]))


def test_dp_accepts_spanning_path_with_shortcuts():
    condensation = Condensation(
        sccs=(frozenset({1}), frozenset({2}), frozenset({3})),
        dag_edges=frozenset({(1, 2), (2, 3), (1, 3)}),
        input_incidence=(frozenset({1}), frozenset(), frozenset()),
        output_incidence=(frozenset(), frozenset(), frozenset({1})),
    )
    solution = dp_cover(condensation, CostMatrix.from_rows([[4]]))
    assert solution.cost == 4
    assert solution.pattern == FeedbackPattern.of((1, 1))


def test_dp_infinite_stage_is_not_fatal_when_spanned_later():
    # No output senses the middle component alone, so stage 2 cannot end
    # there; an edge reaching back to the start still covers everything.
    condensation = Condensation(
        sccs=(frozenset({1}), frozenset({2}), frozenset({3})),
        dag_edges=frozenset({(1, 2), (2, 3)}),
        input_incidence=(frozenset({1}), frozenset(), frozenset()),
        output_incidence=(frozenset({1}), frozenset(), frozenset({1})),
    )
    costs = CostMatrix.from_rows([[3]])
    solution = dp_cover(condensation, costs)
    table = solution.certificates["dp_table"]
    assert table.stage_costs == (0, 3, 3, 3)
    assert solution.cost == 3


def test_solve_dp_reference_system(section5):
    system, costs = section5
    solution = solve_dp(system, costs)
    assert solution.method == "dp"
    assert solution.cost == 5
    assert solution.pattern == FeedbackPattern.of((2, 3))
    assert solution.certificates["dp_table"].stage_costs == (0, 2, 5, 5, 5)


def test_solve_dp_tags_condition_a_only_without_matching():
    system, costs = forced_chain()
    solution = solve_dp(system, costs)
    assert solution.method == "dp-condition-a"
    assert solution.cost == 7


def test_state_matching_check_equals_hopcroft_karp_on_the_state_graph():
    rng = random.Random(606)
    systems = [
        random_system(rng, n=rng.randint(1, 8), m=rng.randint(0, 3), p=rng.randint(0, 3),
                      a_density=rng.random())[0]
        for _ in range(80)
    ] + [
        random_line_system(rng, scc_count=rng.randint(1, 5), perfect_matching=perfect_matching)[0]
        for perfect_matching in (True, False)
        for _ in range(20)
    ]
    verdicts = []
    for system in systems:
        expected = hopcroft_karp(state_bipartite(system).adjacency, system.n)[0] == system.n
        assert solvers._has_state_perfect_matching(system) == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_solve_dp_handles_shortcut_dag_end_to_end():
    # Three chained self-loop states plus a skip edge: not a strict chain,
    # but the spanning path makes the stage recurrence applicable as-is.
    system = StructuredSystem(
        n=3, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 3)}),
    )
    costs = CostMatrix.from_rows([[6]])
    condensation = condense(system)
    assert missing_path_links(condensation) == []
    assert len(condensation.dag_edges) == condensation.scc_count  # one edge beyond a line
    solution = solve_dp(system, costs)
    assert solution.method == "dp"
    assert solution.cost == 6
    assert check_no_sfm(system, solution.pattern).feasible
    assert solution.cost == exact_oracle(system, costs).cost


def test_solve_dp_rejects_non_line_system():
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 2)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    with pytest.raises(PreconditionError, match="line"):
        solve_dp(system, CostMatrix.from_rows([[1]]))


def _first_stage_map(condensation):
    first = {}
    for k, incidence in enumerate(condensation.input_incidence, start=1):
        for i in incidence:
            first.setdefault(i, k)
    return first


# Costs whose sums differ only by float rounding (0.1 + 0.2 vs 0.3), are
# absorbed by a large cost (1e16 + 0.1 == 1e16), or forbid links outright.
TIE_HEAVY_COSTS = (0, 0.1, 0.2, 0.3, 2.5, 1e16, INF)


@st.composite
def small_chains(draw):
    """A chain of at most 8 SCCs with up to 4 inputs and 4 outputs.

    Inputs may actuate and outputs sense any SCCs, or none; costs come
    from ``TIE_HEAVY_COSTS``, so links are forbidden and sums tie up to
    float rounding often.
    """
    ell = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 4))
    inputs = st.frozensets(st.integers(1, m), max_size=2)
    outputs = st.frozensets(st.integers(1, p), max_size=2)
    condensation = Condensation(
        sccs=tuple(frozenset({k}) for k in range(1, ell + 1)),
        dag_edges=frozenset((k, k + 1) for k in range(1, ell)),
        input_incidence=tuple(draw(inputs) for _ in range(ell)),
        output_incidence=tuple(draw(outputs) for _ in range(ell)),
    )
    value = st.sampled_from(TIE_HEAVY_COSTS)
    costs = CostMatrix.from_rows([[draw(value) for _ in range(p)] for _ in range(m)])
    return condensation, costs


# Stage 1 costs 1e16, so at stage 2 both links of u2 total 1e16 after
# rounding; the cheaper link must win the tie, not the smaller output.
ROUNDING_TIE_CHAIN = (
    Condensation(
        sccs=(frozenset({1}), frozenset({2})),
        dag_edges=frozenset({(1, 2)}),
        input_incidence=(frozenset({1}), frozenset({2})),
        output_incidence=(frozenset({1}), frozenset({2, 3})),
    ),
    CostMatrix.from_rows([[1e16, INF, INF], [INF, 0.1, 0]]),
)


@settings(max_examples=400, deadline=None)
@given(small_chains())
@example(ROUNDING_TIE_CHAIN)
def test_dp_stage_recurrence_invariant(chain):
    condensation, costs = chain
    solution = dp_cover(condensation, costs)
    table = solution.certificates["dp_table"]
    first = _first_stage_map(condensation)
    # Plain O(l * L) recurrence: each stage takes its cheapest covering link
    # on top of the stage just before the link's first actuated SCC, ties
    # going to the earlier first stage, then input, link cost and output.
    reference = [0]
    reference_choices = [None]
    for k in range(1, condensation.scc_count + 1):
        edges = covering_edge_set(condensation, costs, k)
        best = min(
            (
                (costs.cost(i, j) + reference[first[i] - 1], first[i], i, costs.cost(i, j), j)
                for i, j in edges
            ),
            default=(INF,),
        )
        reference.append(best[0])
        reference_choices.append(None if best[0] == INF else (best[2], best[4], best[1] - 1))
        for i, j in edges:
            bound = costs.cost(i, j) + table.stage_costs[first[i] - 1]
            assert table.stage_costs[k] <= bound
        choice = table.choices[k]
        if choice is not None:
            i, j, predecessor = choice
            assert (i, j) in edges
            assert predecessor == first[i] - 1
            assert table.stage_costs[k] == costs.cost(i, j) + table.stage_costs[predecessor]
    assert table.stage_costs == tuple(reference)
    assert table.choices == tuple(reference_choices)
    blocked = next(
        (
            k
            for k in range(1, condensation.scc_count + 1)
            if not covering_edge_set(condensation, costs, k)
        ),
        None,
    )
    assert solution.feasible == (blocked is None)
    if blocked is not None:
        assert solution.reason.endswith(f"covers SCC {blocked}")


@st.composite
def wide_chains(draw):
    """A chain of at most 12 SCCs with up to 5 inputs and 8 outputs.

    Several outputs per SCC make many links of one input share an
    interval end, and costs from ``TIE_HEAVY_COSTS`` with up to 12 extra
    weights on inf tie often or forbid most links.
    """
    ell = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    p = draw(st.integers(1, 8))
    inputs = st.frozensets(st.integers(1, m), max_size=3)
    outputs = st.frozensets(st.integers(1, p), max_size=4)
    condensation = Condensation(
        sccs=tuple(frozenset({k}) for k in range(1, ell + 1)),
        dag_edges=frozenset((k, k + 1) for k in range(1, ell)),
        input_incidence=tuple(draw(inputs) for _ in range(ell)),
        output_incidence=tuple(draw(outputs) for _ in range(ell)),
    )
    value = st.sampled_from(TIE_HEAVY_COSTS + (INF,) * draw(st.integers(0, 12)))
    costs = CostMatrix.from_rows([[draw(value) for _ in range(p)] for _ in range(m)])
    return condensation, costs


@settings(max_examples=500, deadline=None)
@given(wide_chains())
@example(ROUNDING_TIE_CHAIN)
def test_dp_skipping_dominated_links_matches_pushing_every_link(chain):
    condensation, costs = chain
    solution = dp_cover(condensation, costs)
    table, pattern = reference_dp_cover(condensation, costs)
    # repr tells 0 from 0.0, so the stage costs keep their types too
    assert repr(solution.certificates["dp_table"]) == repr(table)
    assert solution.pattern == pattern


def test_dp_scaling_leaves_choices_invariant():
    rng = random.Random(8)
    for _ in range(10):
        system, costs = random_line_system(
            rng, scc_count=rng.randint(2, 4), n_inputs=3, n_outputs=3
        )
        condensation = condense(system)
        base = dp_cover(condensation, costs)
        for lam in (2, 5):
            scaled_costs = CostMatrix.from_rows(
                [[lam * c for c in row] for row in costs.rows]
            )
            scaled = dp_cover(condensation, scaled_costs)
            base_table = base.certificates["dp_table"]
            scaled_table = scaled.certificates["dp_table"]
            assert scaled_table.choices == base_table.choices
            assert scaled_table.stage_costs == tuple(
                lam * w for w in base_table.stage_costs
            )
            assert scaled.pattern == base.pattern


def _dp_record(seed, system, costs):
    solution = dp_cover(condense(system), costs)
    table = solution.certificates["dp_table"]
    return (
        seed,
        table.stage_costs,
        table.choices,
        solution.pattern.sorted_links(),
        solution.cost,
        solution.reason,
    )


# SHA-256 of the chain DP's tables, patterns and verdicts on the
# acceptance suites (drawn and tie-heavy costs) and two 1000-SCC chains,
# captured before the DP became an interval sweep.
DP_DIGEST = "a6f9ce7eee897086097b5f10b700837ff0d27e1d520ae27732a9843d66ed81e4"


def test_dp_tables_and_patterns_match_golden_digest():
    records = []
    for seed, perfect_matching in [(30_000 + i, True) for i in range(200)] + [
        (40_000 + i, False) for i in range(200)
    ]:
        system, costs = _line_instance(seed, perfect_matching)
        records.append(_dp_record(seed, system, costs))
        rng = random.Random(seed + 100_000)
        inf_share = rng.random()
        redrawn = CostMatrix.from_rows(
            [
                [INF if rng.random() < inf_share else rng.choice(TIE_HEAVY_COSTS) for _ in row]
                for row in costs.rows
            ]
        )
        records.append(_dp_record(seed, system, redrawn))
    for seed in (50_000, 50_001):
        system, costs = random_line_system(
            seed, scc_count=1000, scc_size_range=(1, 1), n_inputs=50, n_outputs=50
        )
        records.append(_dp_record(seed, system, costs))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == DP_DIGEST


# ---------------------------------------------------------------------------
# cycle-spanning stage and the two-stage solver


def test_condition_b_stage_is_free_with_state_matching(section5):
    system, costs = section5
    solution = min_cost_condition_b(system, costs)
    assert solution.cost == 0
    assert solution.pattern == FeedbackPattern()


def test_condition_b_stage_forced_link():
    system, costs = forced_chain()
    solution = min_cost_condition_b(system, costs)
    assert solution.cost == 7
    assert solution.pattern == FeedbackPattern.of((1, 1))


def test_condition_b_stage_infeasible_with_isolated_state():
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1)}),
    )
    solution = min_cost_condition_b(system, CostMatrix.from_rows([[1]]))
    assert not solution.feasible
    assert "cycle" in solution.reason


def test_condition_b_stage_cost_equals_pattern_cost():
    rng = random.Random(19)
    for _ in range(15):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 4),
            n_inputs=3,
            n_outputs=3,
            perfect_matching=False,
        )
        solution = min_cost_condition_b(system, costs)
        assert solution.feasible
        assert solution.certificates["matching_cost"] == cost_of(solution.pattern, costs)


def test_condition_b_augmentations_equal_state_deficiency(section5):
    assert min_cost_condition_b(*section5).certificates["augmentations"] == 0
    rng = random.Random(23)
    for _ in range(30):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 6),
            n_inputs=3,
            n_outputs=3,
            cost_range=(1, 100),
            perfect_matching=rng.random() < 0.3,
        )
        deficiency = system.n - hopcroft_karp(state_bipartite(system).adjacency, system.n)[0]
        solution = min_cost_condition_b(system, costs)
        assert solution.feasible
        assert solution.certificates["augmentations"] == deficiency


def test_condition_b_cost_equals_dense_reference_on_acceptance_suites():
    for seed, perfect_matching in [(30_000 + i, True) for i in range(200)] + [
        (40_000 + i, False) for i in range(200)
    ]:
        system, costs = _line_instance(seed, perfect_matching)
        rows = closed_loop_cost_rows(system, costs)
        _, expected = dense_min_cost_assignment(dense_cost_rows(rows))
        assert min_cost_condition_b(system, costs).cost == expected, seed


# SHA-256 of the cycle-stage results on the acceptance suites, captured
# before the stage moved from the labelled bipartite graph to index rows.
CYCLE_STAGE_DIGEST = "f82d8b71032935677234eabbf6474c7260a72aade74d55df161ca780bc05f97f"


def test_condition_b_patterns_and_certificates_match_golden_digest():
    records = []
    for seed, perfect_matching in [(30_000 + i, True) for i in range(200)] + [
        (40_000 + i, False) for i in range(200)
    ]:
        solution = min_cost_condition_b(*_line_instance(seed, perfect_matching))
        certificates = solution.certificates
        records.append(
            (
                seed,
                solution.pattern.sorted_links(),
                certificates["matching"],
                certificates["matching_cost"],
                certificates["augmentations"],
            )
        )
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CYCLE_STAGE_DIGEST


# SHA-256 of the cycle-stage results on two_stage_nopm-sized chains (2-state
# SCCs, 20 inputs, 20 outputs, no state perfect matching), captured before
# the matcher moved from (right, cost) tuple rows to the index's int rows.
# The narrow cost range makes equal-cost optima common.
CONDITION_B_BENCH_SIZE_DIGEST = "710c2e9b966fd92c9a42d4689ebccb181aaa43266e9c481e0787492c077cce60"


def test_condition_b_bench_size_digest():
    records = []
    for scc_count in (150, 300):
        for cost_range in ((1, 100), (1, 3)):
            for seed in range(3):
                system, costs = random_line_system(
                    seed,
                    scc_count=scc_count,
                    scc_size_range=(2, 2),
                    n_inputs=20,
                    n_outputs=20,
                    cost_range=cost_range,
                    perfect_matching=False,
                )
                solution = min_cost_condition_b(system, costs)
                certificates = solution.certificates
                records.append(
                    (
                        scc_count,
                        cost_range,
                        seed,
                        solution.pattern.sorted_links(),
                        certificates["matching"],
                        certificates["matching_cost"],
                        certificates["augmentations"],
                    )
                )
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CONDITION_B_BENCH_SIZE_DIGEST


def test_condition_b_golden_result_without_state_matching():
    system, costs = _line_instance(40_001, perfect_matching=False)
    assert (system.n, system.m, system.p) == (4, 2, 4)
    solution = min_cost_condition_b(system, costs)
    assert solution.pattern.sorted_links() == [(1, 2)]
    assert solution.cost == 62
    assert solution.method == "matching"
    assert solution.reason is None
    assert solution.certificates == {
        "matching": [
            ("u'1", "y2"), ("u'2", "u2"),
            ("x'1", "x2"), ("x'2", "x4"), ("x'3", "u1"), ("x'4", "x3"),
            ("y'1", "y1"), ("y'2", "x1"), ("y'3", "y3"), ("y'4", "y4"),
        ],
        "matching_cost": 62,
        "augmentations": 1,
    }


def test_two_stage_collapses_to_dp_with_state_matching(section5):
    system, costs = section5
    combined = two_stage(system, costs)
    assert combined.pattern == solve_dp(system, costs).pattern
    assert combined.cost == 5


def test_two_stage_union_collapses_on_shared_link():
    system, costs = forced_chain()
    combined = two_stage(system, costs)
    assert combined.pattern == FeedbackPattern.of((1, 1))
    assert combined.cost == 7  # both stages pick the same link; no double pay
    assert check_no_sfm(system, combined.pattern).feasible


def test_two_stage_reports_cycle_stage_infeasibility():
    # Hub with two spokes: strongly connected, so coverage is cheap, but
    # every cycle runs through the hub and the spokes can never both cycle.
    system = StructuredSystem(
        n=3, m=1, p=1,
        a_edges=frozenset({(2, 1), (1, 2), (3, 1), (1, 3)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1)}),
    )
    solution = two_stage(system, CostMatrix.from_rows([[4]]))
    assert not solution.feasible
    assert "cycle stage" in solution.reason


def test_two_stage_reports_coverage_infeasibility():
    system, _ = forced_chain()
    solution = two_stage(system, CostMatrix.from_rows([[INF]]))
    assert not solution.feasible
    assert "coverage stage" in solution.reason


# ---------------------------------------------------------------------------
# set-cover reduction


def test_reduction_reproduces_reference_topology(fig1_cover):
    system, costs = reduce_set_cover(fig1_cover)
    assert (system.n, system.m, system.p) == (6, 1, 3)
    assert system.a_edges == frozenset(
        {(i, i) for i in range(1, 7)} | {(i, 6) for i in range(1, 6)}
    )
    assert system.b_edges == frozenset({(6, 1)})
    assert system.c_edges == frozenset(
        {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (3, 5)}
    )
    assert costs.rows == ((2, 3, 4),)


def test_reduction_singleton_instance_forces_unique_pattern():
    instance = SetCoverInstance(universe_size=1, sets=(frozenset({1}),), weights=(3,))
    system, costs = reduce_set_cover(instance)
    assert (system.n, system.m, system.p) == (2, 1, 1)
    solution = exact_oracle(system, costs)
    assert solution.pattern == FeedbackPattern.of((1, 1))
    assert solution.cost == 3


def test_reduction_unit_weights_optimum(fig1_cover):
    unit = SetCoverInstance(
        universe_size=5, sets=fig1_cover.sets, weights=(1, 1, 1)
    )
    system, costs = reduce_set_cover(unit)
    solution = exact_oracle(system, costs)
    assert solution.cost == 2
    assert {j for i, j in solution.pattern.links} == {1, 3}
    best_weight, _ = brute_force_set_cover(unit)
    assert best_weight == 2


def test_reduction_soundness_random_instances():
    rng = random.Random(37)
    for _ in range(12):
        universe = rng.randint(2, 8)
        set_count = rng.randint(2, 6)
        sets = []
        for _ in range(set_count):
            size = rng.randint(1, universe)
            sets.append(frozenset(rng.sample(range(1, universe + 1), size)))
        union = frozenset().union(*sets)
        if union != frozenset(range(1, universe + 1)):
            sets[0] = sets[0] | (frozenset(range(1, universe + 1)) - union)
        instance = SetCoverInstance(
            universe_size=universe,
            sets=tuple(sets),
            weights=tuple(rng.randint(1, 9) for _ in range(set_count)),
        )
        system, costs = reduce_set_cover(instance)
        # Feasibility of any pattern is exactly coverage of its selected sets.
        for r in range(set_count + 1):
            for chosen in combinations(range(1, set_count + 1), r):
                pattern = FeedbackPattern(frozenset((1, j) for j in chosen))
                feasible = check_no_sfm(system, pattern).feasible
                assert feasible == is_cover(instance, chosen)
                if feasible:
                    assert cost_of(pattern, costs) == cover_weight(instance, chosen)
        best_weight, _ = brute_force_set_cover(instance)
        assert exact_oracle(system, costs).cost == best_weight


# ---------------------------------------------------------------------------
# greedy single-input solver


def test_greedy_reference_trace(fig1_cover):
    system, costs = reduce_set_cover(fig1_cover)
    solution = greedy_single_input(system, costs)
    # Ratios: set 1 at 2/2 beats set 3 at 4/3 and set 2 at 3/2; then set 3
    # covers the remaining {3, 4, 5} at the best ratio.
    assert solution.pattern == FeedbackPattern.of((1, 1), (1, 3))
    assert solution.cost == 6
    assert check_no_sfm(system, solution.pattern).feasible
    assert [step[0] for step in solution.certificates["trace"]] == [1, 3]


def test_greedy_irreducible_takes_cheapest_sensing_output():
    system = StructuredSystem(
        n=3, m=1, p=3,
        a_edges=frozenset({(2, 1), (3, 2), (1, 3)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2), (2, 3)}),  # y3 senses nothing
    )
    costs = CostMatrix.from_rows([[5, 3, 1]])
    solution = greedy_single_input(system, costs)
    assert solution.pattern == FeedbackPattern.of((1, 2))
    assert solution.cost == 3


def test_greedy_single_link_when_any_output_covers_everything():
    # Star of sinks off one hub; both outputs sense every sink.
    system = StructuredSystem(
        n=3, m=1, p=2,
        a_edges=frozenset({(1, 1), (2, 2), (3, 3), (2, 1), (3, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2), (1, 3), (2, 2), (2, 3)}),
    )
    costs = CostMatrix.from_rows([[9, 4]])
    solution = greedy_single_input(system, costs)
    assert solution.pattern == FeedbackPattern.of((1, 2))
    assert solution.cost == 4


def test_greedy_precondition_violations_reported_individually():
    system = StructuredSystem(
        n=2, m=2, p=1,
        a_edges=frozenset({(1, 1)}),  # no matching for x2; two sources
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1)}),
    )
    with pytest.raises(PreconditionError) as err:
        greedy_single_input(system, CostMatrix.from_rows([[1], [1]]))
    message = str(err.value)
    assert "single input" in message
    assert "perfect matching" in message
    assert "source SCC" in message


def test_greedy_infeasible_when_sink_unsensed():
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 2), (2, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1)}),  # only the source is sensed
    )
    solution = greedy_single_input(system, CostMatrix.from_rows([[1]]))
    assert not solution.feasible
    assert "sensed by no admissible output" in solution.reason


def test_greedy_set_cover_cross_multiplication_ties():
    instance = SetCoverInstance(
        universe_size=4,
        sets=(frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4})),
        weights=(1, 1, 2),
    )
    picked, total, _ = greedy_set_cover(instance)
    # All ratios tie at 1/2; the smallest index wins each round.
    assert picked == [1, 2]
    assert total == 2


# SHA-256 of greedy_single_input's answers on a few hundred branches,
# captured while the greedy still checked each set against the list of
# picks and built each output's candidate set by scanning every sink.
GREEDY_DIGEST = "01109f17bb69a0739b27a3f87dee8c713314d10197d7c7fc730dce125613c753"


def test_greedy_outputs_match_golden_digest():
    records = []
    for n_branches in (200, 300):
        for seed in range(3):
            solution = greedy_single_input(*random_single_input_system(seed, n_branches=n_branches))
            records.append(
                (
                    n_branches,
                    seed,
                    solution.pattern.sorted_links(),
                    solution.cost,
                    solution.reason,
                    solution.certificates,
                )
            )
    assert hashlib.sha256(repr(records).encode()).hexdigest() == GREEDY_DIGEST


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_oracle_reference_instance(section5):
    system, costs = section5
    solution = exact_oracle(system, costs)
    assert solution.cost == 5
    assert solution.pattern == FeedbackPattern.of((2, 3))
    assert solution.certificates["condition_a_cost"] == 5


def test_oracle_infeasible_system_reports_infinite_cost():
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1)}),
    )
    solution = exact_oracle(system, CostMatrix.from_rows([[1]]))
    assert not solution.feasible
    assert math.isinf(solution.cost)


def test_oracle_refuses_oversized_instances():
    system = StructuredSystem(
        n=1, m=3, p=3, a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}), c_edges=frozenset({(1, 1)}),
    )
    costs = CostMatrix.from_rows([[1] * 3] * 3)
    with pytest.raises(BudgetExceededError, match="9"):
        exact_oracle(system, costs, budget=8)
    assert exact_oracle(system, costs, budget=9).feasible


def test_oracle_budget_is_capped_before_any_allocation(monkeypatch):
    system = StructuredSystem(
        n=1, m=5, p=5, a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}), c_edges=frozenset({(1, 1)}),
    )
    under_cap = CostMatrix.from_rows([[1] * 5] * 2 + [[INF] * 5] * 3)
    assert exact_oracle(system, under_cap, budget=100).cost == 1

    def no_allocation(link_costs):
        raise AssertionError(f"enumerated {len(link_costs)} links")

    monkeypatch.setattr(solvers, "_subsets_by_cost", no_allocation)
    with pytest.raises(BudgetExceededError, match="25 admissible links"):
        exact_oracle(system, CostMatrix.from_rows([[1] * 5] * 5), budget=100)


def test_oracle_decides_uncoverable_instances_before_any_allocation(monkeypatch):
    # State x2 has no edge at all, so no pattern covers it; a scan would
    # visit all 2^24 patterns of the 24 links.
    system = StructuredSystem(
        n=2, m=4, p=6, a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}), c_edges=frozenset({(1, 1)}),
    )

    def no_allocation(link_costs):
        raise AssertionError(f"enumerated {len(link_costs)} links")

    monkeypatch.setattr(solvers, "_subsets_by_cost", no_allocation)
    solution = exact_oracle(system, CostMatrix.from_rows([[1] * 6] * 4), budget=24)
    assert not solution.feasible
    assert solution.pattern == FeedbackPattern()
    assert solution.reason == "no feasible pattern exists (optimal cost is infinite)"
    assert solution.certificates == {
        "admissible_links": 24,
        "condition_a_cost": INF,
        "condition_a_pattern": FeedbackPattern(),
    }


def test_oracle_certifies_coverage_when_no_pattern_spans_cycles(monkeypatch):
    # u1 actuates both states and nothing else feeds them, so no cycle
    # family spans both; coverage alone is cheapest via y2 and y3.
    from tests.conftest import naive_pattern_optimum

    system = StructuredSystem(
        n=2, m=1, p=3, a_edges=frozenset(),
        b_edges=frozenset({(1, 1), (2, 1)}),
        c_edges=frozenset({(1, 1), (1, 2), (2, 1), (3, 2)}),
    )
    costs = CostMatrix.from_rows([[3, 1, 1]])
    has_cycle_family = solvers._has_cycle_family
    matching_checks = []

    def counted(index, links):
        matching_checks.append(list(links))
        return has_cycle_family(index, links)

    monkeypatch.setattr(solvers, "_has_cycle_family", counted)
    solution = exact_oracle(system, costs)
    assert not solution.feasible
    assert naive_pattern_optimum(system, costs, lambda s, k: check_no_sfm(s, k).feasible) is None
    coverage = naive_pattern_optimum(system, costs, lambda s, k: check_no_sfm(s, k).condition_a_ok)
    assert coverage == (2, FeedbackPattern.of((1, 2), (1, 3)))
    assert solution.certificates["condition_a_cost"] == coverage[0]
    assert solution.certificates["condition_a_pattern"] == coverage[1]
    # One check without links and one with all of them; no per-pattern scan.
    assert matching_checks == [[], costs.finite_links()]


def _assert_each_subset_once_cheapest_first(link_costs):
    # Without constraints every bound is 0 and each key is the subset's cost.
    yielded = list(solvers._subsets_by_cost(link_costs, [0] * len(link_costs)))
    assert sorted(mask for _, _, mask in yielded) == list(range(2 ** len(link_costs)))
    assert all(key == c for key, c, _ in yielded)
    keys = [key for key, _, _ in yielded]
    assert keys == sorted(keys)
    return yielded


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=10))
def test_subsets_by_cost_yields_each_subset_once_cheapest_first(link_costs):
    # Small integer costs give many ties and zeros, and every sum is exact.
    for _, c, mask in _assert_each_subset_once_cheapest_first(link_costs):
        assert c == sum(w for b, w in enumerate(link_costs) if (mask >> b) & 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), max_size=10))
def test_subsets_by_cost_keys_never_decrease_on_float_costs(link_costs):
    _assert_each_subset_once_cheapest_first(link_costs)


def _cheapest_first_sum(link_costs, mask):
    total = 0
    for b in sorted(range(len(link_costs)), key=lambda b: (link_costs[b], b)):
        if mask >> b & 1:
            total += link_costs[b]
    return total


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(TIE_HEAVY_COSTS[:-1]),
            st.floats(0, 1e6),
            # Any nine of these sum to a finite cost, as CostMatrix requires.
            st.floats(0, sys.float_info.max / 9),
        ),
        st.integers(0, 63),
    ),
    max_size=9,
))
# Subnormal: 1e-323 / 3 rounds up to 5e-324, so 3 * 5e-324 overstates 1e-323.
@example([(1e-323, 7), (1e-323, 1)])
# Near the float limit: 3 * (max / 3) rounds to inf, which must not read as
# "no subset meets the constraints".
@example([(sys.float_info.max, 7)])
def test_subsets_by_cost_keys_bound_every_qualifying_subset(links):
    # A subset qualifies when its links meet every constraint some link
    # meets. Each one must come out keyed by its own cheapest-first cost,
    # after keys no larger (so no bound exceeds it), and exactly once.
    link_costs = [c for c, _ in links]
    hits = [h for _, h in links]
    yielded = list(solvers._subsets_by_cost(link_costs, hits))
    keys = [key for key, _, _ in yielded]
    assert keys == sorted(keys)
    masks = [mask for _, _, mask in yielded]
    assert len(set(masks)) == len(masks)
    by_mask = {mask: (key, c) for key, c, mask in yielded}
    required = 0
    for h in hits:
        required |= h
    for mask in range(2 ** len(links)):
        met = 0
        for b, h in enumerate(hits):
            if mask >> b & 1:
                met |= h
        if met == required:
            cost = _cheapest_first_sum(link_costs, mask)
            assert by_mask[mask] == (cost, cost)
        elif mask in by_mask:
            key, c = by_mask[mask]
            assert key >= c == _cheapest_first_sum(link_costs, mask)


def test_oracle_tie_break_is_lexicographic():
    # Two equal-cost optima: (1,1) and (1,2); lexicographic order wins.
    system = StructuredSystem(
        n=1, m=1, p=2,
        a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1), (2, 1)}),
    )
    costs = CostMatrix.from_rows([[4, 4]])
    solution = exact_oracle(system, costs)
    assert solution.pattern == FeedbackPattern.of((1, 1))


def test_oracle_agrees_with_public_checker_enumeration():
    # The oracle's fast internal overlays must reproduce exactly what a
    # plain loop over check_no_sfm finds, pattern included.
    from tests.conftest import naive_pattern_optimum

    rng = random.Random(404)
    for _ in range(12):
        n, m, p = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 3)
        system, _ = random_system(rng, n=n, m=m, p=p, a_density=0.35)
        costs = CostMatrix.from_rows(
            [[rng.randint(1, 30) for _ in range(p)] for _ in range(m)]
        )
        oracle = exact_oracle(system, costs)
        naive = naive_pattern_optimum(
            system, costs, lambda s, k: check_no_sfm(s, k).feasible
        )
        if naive is None:
            assert not oracle.feasible
        else:
            assert oracle.cost == naive[0]
            assert oracle.pattern == naive[1]


def _tie_heavy_costs(rng, m, p):
    inf_share = rng.random()
    return CostMatrix.from_rows(
        [[INF if rng.random() < inf_share else rng.choice(TIE_HEAVY_COSTS) for _ in range(p)]
         for _ in range(m)]
    )


def _oracle_suite():
    """Seeded oracle instances of at most 9 admissible links.

    Random systems with tie-heavy costs, line systems with and without a
    state perfect matching (drawn and tie-heavy costs), and set-cover
    reductions with weights in {1, 2, 2.5, 3}.
    """
    rng = random.Random(7070)
    # The last 80 have sparse A and dense B and C, which often leaves cycle
    # spanning to the links, or out of reach while coverage is not.
    for a_density, bc_density in [(0.35, 0.3)] * 120 + [(0.2, 0.7)] * 80:
        m, p = rng.randint(1, 3), rng.randint(1, 3)
        system, _ = random_system(
            rng, n=rng.randint(2, 5), m=m, p=p,
            a_density=a_density, b_density=bc_density, c_density=bc_density,
        )
        yield system, _tie_heavy_costs(rng, m, p)
    for perfect_matching in (True, False):
        for _ in range(40):
            system, costs = random_line_system(
                rng,
                scc_count=rng.randint(2, 4),
                n_inputs=rng.randint(1, 3),
                n_outputs=rng.randint(1, 3),
                perfect_matching=perfect_matching,
            )
            yield system, costs
            yield system, _tie_heavy_costs(rng, costs.m, costs.p)
    for _ in range(60):
        universe = rng.randint(2, 6)
        sets = [
            frozenset(rng.sample(range(1, universe + 1), rng.randint(1, universe)))
            for _ in range(rng.randint(2, 7))
        ]
        sets[rng.randrange(len(sets))] |= frozenset(range(1, universe + 1)).difference(*sets)
        weights = tuple(rng.choice((1, 2, 2.5, 3)) for _ in sets)
        yield reduce_set_cover(SetCoverInstance(universe, tuple(sets), weights))


# SHA-256 of the oracle's optimum, verdict and coverage certificate on
# ``_oracle_suite``, captured while the oracle still scanned twice.
ORACLE_DIGEST = "09c98f03bcf665b2e3e97d65e97c10126d30680eea73d4a12ffed29d4648085b"


def test_oracle_answers_match_golden_digest():
    records = []
    for system, costs in _oracle_suite():
        solution = exact_oracle(system, costs)
        certificates = solution.certificates
        records.append((
            solution.cost,
            solution.pattern.sorted_links(),
            solution.reason,
            certificates["condition_a_cost"],
            certificates["condition_a_pattern"].sorted_links(),
        ))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == ORACLE_DIGEST


@st.composite
def tiny_systems(draw):
    """A system with n <= 4, m <= 2, p <= 3 and costs in {0, 1, 2, 3, inf}."""
    n, m, p = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))

    def edges(rows, cols):
        return draw(st.frozensets(st.tuples(st.integers(1, rows), st.integers(1, cols))))

    system = StructuredSystem(
        n=n, m=m, p=p, a_edges=edges(n, n), b_edges=edges(n, m), c_edges=edges(p, n)
    )
    value = st.sampled_from((0, 1, 2, 3, INF))
    return system, CostMatrix.from_rows([[draw(value) for _ in range(p)] for _ in range(m)])


@settings(max_examples=300, deadline=None)
@given(tiny_systems())
def test_oracle_both_answers_equal_naive_enumeration(instance):
    from tests.conftest import naive_pattern_optimum

    system, costs = instance
    oracle = exact_oracle(system, costs)
    coverage = naive_pattern_optimum(system, costs, lambda s, k: check_no_sfm(s, k).condition_a_ok)
    optimum = naive_pattern_optimum(system, costs, lambda s, k: check_no_sfm(s, k).feasible)
    certificate = (oracle.certificates["condition_a_cost"], oracle.certificates["condition_a_pattern"])
    assert certificate == (coverage or (INF, FeedbackPattern()))
    assert (oracle.cost, oracle.pattern) == (optimum or (INF, FeedbackPattern()))


def test_oracle_enumerates_once_without_state_matching(monkeypatch):
    system, costs = random_line_system(5, scc_count=3, perfect_matching=False)
    assert not solvers._has_state_perfect_matching(system)
    subsets_by_cost = solvers._subsets_by_cost
    calls = []

    def counted(link_costs, hits):
        calls.append(link_costs)
        return subsets_by_cost(link_costs, hits)

    monkeypatch.setattr(solvers, "_subsets_by_cost", counted)
    assert exact_oracle(system, costs).feasible
    assert len(calls) == 1


def _cover_optimum_by_element_masks(instance):
    """Cheapest cover weight, by a DP over the 2^N masks of covered elements."""
    full = (1 << instance.universe_size) - 1
    bits = [sum(1 << (e - 1) for e in s) for s in instance.sets]
    cheapest = [INF] * (full + 1)
    cheapest[0] = 0
    for covered in range(full + 1):  # adding a set never shrinks the mask
        if cheapest[covered] < INF:
            for b, w in zip(bits, instance.weights):
                cheapest[covered | b] = min(cheapest[covered | b], cheapest[covered] + w)
    return cheapest[full]


@pytest.mark.parametrize("k", [20, 24])
@pytest.mark.parametrize("costly_weights", [(1000,), (1000, 1001)])
def test_oracle_solves_costly_optimum_covers_in_seconds(k, costly_weights):
    # Every cover without a costly set fails; unbounded, the scan in cost
    # order visited about half of the 2^k patterns (7 s and 92 MB at k=20).
    instance = costly_cover(k, costly_weights)
    system, costs = reduce_set_cover(instance)
    start = time.perf_counter()
    solution = exact_oracle(system, costs, budget=24)
    assert time.perf_counter() - start < 2
    assert check_no_sfm(system, solution.pattern).feasible
    assert solution.cost == _cover_optimum_by_element_masks(instance)
    assert solution.cost >= 1000


def test_costly_cover_data_file_is_the_24_set_family():
    path = Path(__file__).resolve().parent.parent / "data" / "costly_cover_24.json"
    assert load_setcover(path) == costly_cover(24, (1000,))


# Zero-cost sets, sums that tie only up to float rounding, and a weight
# large enough to make any element it alone covers costly.
COVER_WEIGHTS = (0, 0.1, 0.2, 0.3, 2.5, 1000)


@st.composite
def tie_heavy_covers(draw):
    """A set cover of at most 9 sets over at most 5 elements, weights from ``COVER_WEIGHTS``."""
    universe = draw(st.integers(1, 5))
    sets = draw(st.lists(st.frozensets(st.integers(1, universe), min_size=1), min_size=1, max_size=9))
    sets[draw(st.integers(0, len(sets) - 1))] |= frozenset(range(1, universe + 1)).difference(*sets)
    weights = draw(st.lists(st.sampled_from(COVER_WEIGHTS), min_size=len(sets), max_size=len(sets)))
    return SetCoverInstance(universe, tuple(sets), tuple(weights))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_covers())
# {y1, y2} ties {y2} at cost 0.3 and wins it lexicographically.
@example(SetCoverInstance(2, (frozenset({1}), frozenset({1, 2})), (0, 0.3)))
def test_oracle_equals_naive_enumeration_on_tie_heavy_set_covers(instance):
    from tests.conftest import naive_pattern_optimum

    system, costs = reduce_set_cover(instance)
    verdicts = {}

    def verdict(pattern):
        if pattern not in verdicts:
            verdicts[pattern] = check_no_sfm(system, pattern)
        return verdicts[pattern]

    oracle = exact_oracle(system, costs)
    coverage = naive_pattern_optimum(system, costs, lambda s, k: verdict(k).condition_a_ok)
    optimum = naive_pattern_optimum(system, costs, lambda s, k: verdict(k).feasible)
    certificate = (oracle.certificates["condition_a_cost"], oracle.certificates["condition_a_pattern"])
    assert certificate == coverage
    assert (oracle.cost, oracle.pattern) == optimum


def test_dp_matches_public_checker_condition_a_optimum():
    from tests.conftest import naive_pattern_optimum

    rng = random.Random(505)
    for _ in range(8):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 3),
            n_inputs=rng.randint(1, 3),
            n_outputs=rng.randint(1, 3),
            perfect_matching=rng.random() < 0.5,
        )
        dp = dp_cover(condense(system), costs)
        naive = naive_pattern_optimum(
            system, costs, lambda s, k: not check_no_sfm(s, k).uncovered_states
        )
        assert naive is not None
        assert dp.cost == naive[0]


# ---------------------------------------------------------------------------
# cross-validation on random chain instances


def test_dp_matches_oracle_on_matched_chains():
    rng = random.Random(101)
    for _ in range(15):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 4),
            scc_size_range=(1, 3),
            n_inputs=rng.randint(2, 4),
            n_outputs=rng.randint(2, 4),
        )
        dp = solve_dp(system, costs)
        oracle = exact_oracle(system, costs)
        assert dp.method == "dp"
        assert dp.cost == oracle.cost
        assert check_no_sfm(system, dp.pattern).feasible


def test_dp_matches_condition_a_optimum_without_matching():
    rng = random.Random(202)
    for _ in range(15):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 4),
            n_inputs=rng.randint(2, 4),
            n_outputs=rng.randint(2, 4),
            perfect_matching=False,
        )
        dp = solve_dp(system, costs)
        oracle = exact_oracle(system, costs)
        assert dp.method == "dp-condition-a"
        assert dp.cost == oracle.certificates["condition_a_cost"]


def test_two_stage_is_2_optimal_and_feasible():
    rng = random.Random(303)
    for _ in range(15):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 4),
            n_inputs=rng.randint(2, 4),
            n_outputs=rng.randint(2, 4),
            perfect_matching=False,
        )
        combined = two_stage(system, costs)
        oracle = exact_oracle(system, costs)
        assert combined.feasible
        assert check_no_sfm(system, combined.pattern).feasible
        assert combined.cost <= 2 * oracle.cost
