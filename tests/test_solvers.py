import hashlib
import math
import random
import re
import sys
import threading
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

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
    full_pattern,
    greedy_set_cover,
    greedy_single_input,
    load_setcover,
    min_cost_condition_b,
    reduce_set_cover,
    solve_dp,
    solvers,
    two_stage,
)
from feedsel import graphs, sfm
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
    labelled_matching,
    random_system,
    reference_condition_b_rows,
    reference_dp_cover,
    reference_greedy_set_cover,
    reference_successors,
    section5_system,
    sink_only_input_system,
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


@pytest.mark.parametrize("solve", [solve_dp, two_stage, exact_oracle])
def test_solvers_reject_a_cost_matrix_of_the_wrong_shape(solve):
    edge = frozenset({(1, 1)})
    system = StructuredSystem(n=1, m=1, p=1, a_edges=edge, b_edges=edge, c_edges=edge)
    with pytest.raises(DimensionError, match=r"^cost matrix is 2x1 but system has m=1, p=1$"):
        solve(system, CostMatrix.from_rows([[1], [2]]))


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


def test_solve_dp_checks_cycle_spanning_without_matching():
    # The single link closes the only cycle family: the coverage optimum is the optimum.
    system, costs = forced_chain()
    solution = solve_dp(system, costs)
    assert (solution.method, solution.cost) == ("dp", 7)
    assert solution.certificates["condition_b_checked"] is True
    assert "condition_b_checked" not in solve_dp(*section5_system()).certificates
    # Here the coverage optimum (u3, y3) leaves a state off every cycle family.
    system, costs = random_line_system(3, scc_count=5, perfect_matching=False)
    assert not check_no_sfm(system, dp_cover(condense(system), costs).pattern).condition_b_ok
    with pytest.raises(PreconditionError, match=re.escape(
        "no state perfect matching, and the coverage optimum [(3, 3)] fails cycle spanning; "
        "solve-two-stage handles this case"
    )):
        solve_dp(system, costs)


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


def _sparse_chain(ell, inputs, outputs, rows):
    """A chain of ``ell`` SCCs whose only non-empty incidence sets are ``inputs`` and ``outputs`` by stage."""
    return (
        Condensation(
            dag_edges=frozenset((k, k + 1) for k in range(1, ell)),
            input_incidence=tuple(frozenset(inputs.get(k, ())) for k in range(1, ell + 1)),
            output_incidence=tuple(frozenset(outputs.get(k, ())) for k in range(1, ell + 1)),
        ),
        CostMatrix.from_rows(rows),
    )


@st.composite
def long_sparse_chains(draw):
    """A chain of up to 300 SCCs with at most 6 non-empty input and 6 output sets.

    The sweep jumps over long runs of stages where no link starts or ends.
    Stage 1 and the last stage are drawn often, so that many chains are
    covered from the start and sensed at the end; costs come from
    ``TIE_HEAVY_COSTS``.
    """
    ell = draw(st.integers(1, 300))
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 4))
    stage = st.integers(1, ell) | st.just(1) | st.just(ell)

    def incidence(count):
        stages = draw(st.lists(stage, max_size=6, unique=True))
        return {k: draw(st.frozensets(st.integers(1, count), min_size=1, max_size=2)) for k in stages}

    value = st.sampled_from(TIE_HEAVY_COSTS)
    rows = [[draw(value) for _ in range(p)] for _ in range(m)]
    return _sparse_chain(ell, incidence(m), incidence(p), rows)


@settings(max_examples=400, deadline=None)
@given(long_sparse_chains())
# Link (1, 1) covers stages 1..3 and u2 first actuates stage 4, so the top
# expires at the very stage a new input starts.
@example(_sparse_chain(6, {1: {1}, 4: {2}}, {3: {1}, 6: {2}}, [[1, INF], [INF, 2]]))
# Stage 3 is covered by no link: it and every later stage stay inf, though
# link (2, 2) would cover stages 5..8.
@example(_sparse_chain(8, {1: {1}, 5: {2}}, {2: {1}, 8: {2}}, [[1, INF], [INF, 2]]))
# Link (1, 2) stays on top over stages 1..200, through u2's start at 150;
# link (1, 1) then covers the rest.
@example(_sparse_chain(300, {1: {1}, 150: {2}}, {200: {2}, 300: {1}}, [[5, 0.1], [INF, 0]]))
@example(ROUNDING_TIE_CHAIN)
def test_dp_on_long_sparse_chains_matches_reference_sweep(chain):
    condensation, costs = chain
    solution = dp_cover(condensation, costs)
    table, pattern = reference_dp_cover(condensation, costs)
    assert repr(solution.certificates["dp_table"]) == repr(table)
    assert solution.pattern == pattern
    assert solution.feasible == (table.stage_costs[-1] != INF)


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
# before the stage moved from the labelled bipartite graph to id rows;
# the id matching is hashed in the labelled form it was captured in.
CYCLE_STAGE_DIGEST = "f82d8b71032935677234eabbf6474c7260a72aade74d55df161ca780bc05f97f"


def test_condition_b_patterns_and_certificates_match_golden_digest():
    records = []
    for seed, perfect_matching in [(30_000 + i, True) for i in range(200)] + [
        (40_000 + i, False) for i in range(200)
    ]:
        system, costs = _line_instance(seed, perfect_matching)
        solution = min_cost_condition_b(system, costs)
        certificates = solution.certificates
        records.append(
            (
                seed,
                solution.pattern.sorted_links(),
                labelled_matching(system, certificates["matching"]),
                certificates["matching_cost"],
                certificates["augmentations"],
            )
        )
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CYCLE_STAGE_DIGEST


# SHA-256 of the cycle-stage results on two_stage_nopm-sized chains (2-state
# SCCs, 20 inputs, 20 outputs, no state perfect matching), captured before
# the matcher moved from (right, cost) tuple rows to the int loop rows,
# with the id matching hashed in its labelled form. The narrow cost range
# makes equal-cost optima common.
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
                        labelled_matching(system, certificates["matching"]),
                        certificates["matching_cost"],
                        certificates["augmentations"],
                    )
                )
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CONDITION_B_BENCH_SIZE_DIGEST


def test_condition_b_matching_certificate_checks_by_vertex_id_alone():
    # A checker needs no names: the certificate permutes the vertex ids, and
    # each v' - w is a closed-loop edge w -> v of the answer, or v itself on
    # an input or output. The input-output pairs are the pattern.
    for seed, perfect_matching in [(30_000 + i, True) for i in range(40)] + [
        (40_000 + i, False) for i in range(40)
    ]:
        system, costs = _line_instance(seed, perfect_matching)
        solution = min_cost_condition_b(system, costs)
        matching = solution.certificates["matching"]
        n, m, size = system.n, system.m, system.n + system.m + system.p + 1
        assert type(matching) is tuple and sorted(matching) == list(range(size))
        assert matching[0] == 0
        successors = reference_successors(system, solution.pattern)
        for v, w in enumerate(matching[1:], start=1):
            assert v in successors[w] or v == w > n, (seed, v, w)
        links = frozenset((v - n, w - n - m) for v, w in enumerate(matching) if n < v <= n + m < w)
        assert links == solution.pattern.links
        assert cost_of(FeedbackPattern(links), costs) == solution.certificates["matching_cost"]


def _matcher_rows(system, costs):
    """The rows and weights that ``min_cost_condition_b`` hands to the matcher."""
    seen = []
    real = solvers.min_cost_perfect_matching

    def spy(adjacency, weights, stats=None):
        seen.append((adjacency, weights))
        return real(adjacency, weights, stats)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "min_cost_perfect_matching", spy)
        min_cost_condition_b(system, costs)
    (rows,) = seen
    return rows


_LINK_COSTS = st.sampled_from([0, 0.0, 1, 2.5, 7, math.inf])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    shape=st.tuples(st.integers(1, 6), st.integers(0, 4), st.integers(0, 4)),
    data=st.data(),
)
def test_condition_b_rows_equal_the_overlay_reference(seed, shape, data):
    n, m, p = shape
    system, _ = random_system(seed, n=n, m=m, p=p, a_density=0.4)
    rows = data.draw(st.lists(st.lists(_LINK_COSTS, min_size=p, max_size=p), min_size=m, max_size=m))
    if m and data.draw(st.booleans()):  # an input with no admissible link
        rows[data.draw(st.integers(0, m - 1))] = [math.inf] * p
    costs = CostMatrix.from_rows(rows)
    # repr tells None from [] and 0 from 0.0
    assert repr(_matcher_rows(system, costs)) == repr(reference_condition_b_rows(system, costs))


def test_condition_b_rows_equal_the_overlay_reference_on_edge_matrices():
    system, _ = random_system(3, n=4, m=3, p=3, a_density=0.4)
    for rows in (
        [[math.inf] * 3] * 3,  # every link forbidden
        [[0, 0.0, 0]] * 3,  # every link free
        [[math.inf] * 3, [0, math.inf, 2.5], [math.inf, math.inf, 0.0]],
    ):
        costs = CostMatrix.from_rows(rows)
        assert repr(_matcher_rows(system, costs)) == repr(reference_condition_b_rows(system, costs))
    empty = StructuredSystem(n=2, m=0, p=2, a_edges=frozenset({(1, 2), (2, 1)}))
    costs = CostMatrix.from_rows([])
    assert repr(_matcher_rows(empty, costs)) == repr(reference_condition_b_rows(empty, costs))


def test_cycle_stage_totals_its_links_as_cost_of_does():
    # Three links that each input needs. Added one by one, 0.1, 0.2 and 0.3
    # make 0.6000000000000001; the compensated sum() of Python 3.12 on makes
    # 0.6, which the stage's own cross-check would reject.
    system = StructuredSystem(
        n=3, m=3, p=3, b_edges=frozenset({(1, 1), (2, 2), (3, 3)}),
        c_edges=frozenset({(1, 1), (2, 2), (3, 3)}),
    )
    inf = math.inf
    costs = CostMatrix.from_rows([[0.1, inf, inf], [inf, 0.2, inf], [inf, inf, 0.3]])
    solution = min_cost_condition_b(system, costs)
    assert solution.pattern.sorted_links() == [(1, 1), (2, 2), (3, 3)]
    assert solution.cost == solution.certificates["matching_cost"] == 0.1 + 0.2 + 0.3


def test_condition_b_golden_result_without_state_matching():
    system, costs = _line_instance(40_001, perfect_matching=False)
    assert (system.n, system.m, system.p) == (4, 2, 4)
    solution = min_cost_condition_b(system, costs)
    assert solution.pattern.sorted_links() == [(1, 2)]
    assert solution.cost == 62
    assert solution.method == "matching"
    assert solution.reason is None
    # Ids: x1..x4 are 1..4, u1, u2 are 5, 6 and y1..y4 are 7..10.
    assert solution.certificates == {
        "matching": (0, 2, 4, 5, 3, 8, 6, 7, 1, 9, 10),
        "matching_cost": 62,
        "augmentations": 1,
    }
    assert labelled_matching(system, solution.certificates["matching"]) == [
        ("u'1", "y2"), ("u'2", "u2"),
        ("x'1", "x2"), ("x'2", "x4"), ("x'3", "u1"), ("x'4", "x3"),
        ("y'1", "y1"), ("y'2", "x1"), ("y'3", "y3"), ("y'4", "y4"),
    ]


def test_threads_sharing_one_fresh_system_match_the_serial_reference():
    # Systems are shared across threads, and from CPython 3.12 on cached_property
    # takes no lock, so the threads may build one fresh system's rows at once.
    # Half of them check first, half solve first, so rows are read while others build.
    generated, costs = random_line_system(
        4, scc_count=150, scc_size_range=(2, 2), n_inputs=20, n_outputs=20, perfect_matching=False,
    )

    def outcome(system, check_first=True):
        if check_first:
            verdict = check_no_sfm(system, full_pattern(costs))
        solution = two_stage(system, costs)
        if not check_first:
            verdict = check_no_sfm(system, full_pattern(costs))
        stages = [solution.certificates[stage] for stage in ("stage_a", "stage_b")]
        return verdict, solution.pattern, solution.cost, [(s.pattern, s.certificates) for s in stages]

    serial = outcome(generated)
    assert serial[0].feasible and serial[2] < INF
    shared = StructuredSystem(generated.n, generated.m, generated.p,
                              generated.a_edges, generated.b_edges, generated.c_edges)
    assert "state_rows" not in vars(shared)
    barrier = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def work(k):
        barrier.wait()
        results[k] = outcome(shared, check_first=k % 2 == 0)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the row builds too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 8


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


def test_greedy_infeasible_when_the_input_misses_the_source():
    # u1 actuates only the sink x2, so covering the sink leaves x1 uncovered.
    solution = greedy_single_input(*sink_only_input_system())
    assert not solution.feasible
    assert "does not close the loop" in solution.reason
    assert "uncovered states: [1]" in solution.reason
    assert solution.certificates["cover_outputs"] == [1]


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


_MAX = sys.float_info.max
# Tie-heavy weights: exact products (ints, halves) and rounded ones. 0.1 * 3
# rounds to 0.30000000000000004, so those two tie by float cross-multiplication,
# though 0.1 / 1 < 0.30000000000000004 / 3 exactly.
_SMALL_WEIGHTS = (0, 1, 2, 3, 4, 6, 0.5, 1.5, 2.5, 0.1, 0.2, 0.3, 0.30000000000000004)
# Weights near the float limit, where w * new overflows to inf; any two sum
# to at most the largest float, as SetCoverInstance requires.
_HUGE_WEIGHTS = (_MAX / 2, 0.4 * _MAX, _MAX / 3, 0.099 * _MAX, _MAX / 11, 2.0**1020, 10**307, 1e300)


@st.composite
def _tie_heavy_covers(draw):
    size = draw(st.integers(1, 12))
    sets = draw(st.lists(st.frozensets(st.integers(1, size), min_size=1), min_size=1, max_size=10))
    missing = frozenset(range(1, size + 1)).difference(*sets)
    sets[-1] |= missing
    weights = draw(st.lists(st.sampled_from(_SMALL_WEIGHTS), min_size=len(sets), max_size=len(sets)))
    for k in draw(st.lists(st.integers(0, len(sets) - 1), max_size=2, unique=True)):
        weights[k] = draw(st.sampled_from(_HUGE_WEIGHTS))
    return SetCoverInstance(universe_size=size, sets=tuple(sets), weights=tuple(weights))


@settings(max_examples=600, deadline=None)
@given(instance=_tie_heavy_covers())
def test_greedy_set_cover_equals_the_scanning_reference(instance):
    assert greedy_set_cover(instance) == reference_greedy_set_cover(instance)


def test_greedy_set_cover_follows_the_exact_ratios_where_products_round_or_overflow():
    # 0.1 / 1 is below 0.30000000000000004 / 3 exactly, though 0.1 * 3 rounds
    # to 0.30000000000000004, a tie by float cross-multiplication.
    rounded = SetCoverInstance(
        universe_size=4, sets=(frozenset({1, 2, 3}), frozenset({4})),
        weights=(0.30000000000000004, 0.1),
    )
    # Set 3 beats set 1 and set 2 beats set 1 once 3 is taken, though every
    # float product of two of these weights with the counts overflows to inf.
    overflowed = SetCoverInstance(
        universe_size=11,
        sets=(frozenset({4, 5, 6}), frozenset(range(1, 12)), frozenset({1, 2, 3})),
        weights=(0.4 * _MAX, _MAX / 2, 0.099 * _MAX),
    )
    for instance, picks in ((rounded, [2, 1]), (overflowed, [3, 2])):
        expected = reference_greedy_set_cover(instance)
        assert expected[0] == picks
        assert greedy_set_cover(instance) == expected


class _CountedSet(frozenset):
    """A frozenset that counts its intersections, one per recount of the greedy."""

    calls = 0

    def __and__(self, other):
        _CountedSet.calls += 1
        return frozenset.__and__(self, other)


def test_greedy_single_input_recounts_each_set_about_once(monkeypatch):
    # A scan per round recounts every set in every round: 2550 picks of 3427
    # sets here. The heap recounted 4037 times in all.
    seen = {}
    real = solvers.greedy_set_cover

    def counted(instance):
        _CountedSet.calls = 0
        sets = tuple(_CountedSet(s) for s in instance.sets)
        result = real(SimpleNamespace(universe_size=instance.universe_size, sets=sets, weights=instance.weights))
        seen.update(sets=len(sets), picks=len(result[0]), recounts=_CountedSet.calls)
        return result

    monkeypatch.setattr(solvers, "greedy_set_cover", counted)
    solution = greedy_single_input(*random_single_input_system(7, n_branches=4000))
    assert solution.feasible
    assert seen["picks"] > 2000
    assert seen["recounts"] <= 2 * seen["sets"]


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


def test_oracle_refuses_a_negative_budget():
    system = StructuredSystem(n=1, m=0, p=0, a_edges=frozenset({(1, 1)}))
    with pytest.raises(ValueError, match=r"0\.\.24 admissible links .*got -1$") as refused:
        exact_oracle(system, CostMatrix.from_rows([]), budget=-1)
    assert not isinstance(refused.value, BudgetExceededError)
    assert exact_oracle(system, CostMatrix.from_rows([]), budget=0).feasible is False


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

    def counted(rows):
        matching_checks.append(rows)
        return has_cycle_family(rows)

    monkeypatch.setattr(solvers, "_has_cycle_family", counted)
    solution = exact_oracle(system, costs)
    assert not solution.feasible
    assert naive_pattern_optimum(system, costs, lambda s, k: check_no_sfm(s, k).feasible) is None
    coverage = naive_pattern_optimum(system, costs, lambda s, k: check_no_sfm(s, k).condition_a_ok)
    assert coverage == (2, FeedbackPattern.of((1, 2), (1, 3)))
    assert solution.certificates["condition_a_cost"] == coverage[0]
    assert solution.certificates["condition_a_pattern"] == coverage[1]
    # One check without links and one with all of them; no per-pattern scan.
    assert matching_checks == [system.loop_rows(), system.loop_rows(costs.finite_links())]


def test_oracle_tests_coverage_with_the_kernel_alone(monkeypatch):
    # The full link set's coverage test too: Tarjan runs in no oracle call,
    # whether the instance is feasible, fails cycle spanning or fails coverage.
    def no_tarjan(succ):
        raise AssertionError("the oracle ran Tarjan")

    instances = [
        section5_system(),
        random_line_system(5, scc_count=3, perfect_matching=False),
        sink_only_input_system(),
    ]
    monkeypatch.setattr(sfm, "scc_ids", no_tarjan)
    monkeypatch.setattr(graphs, "scc_ids", no_tarjan)
    assert [exact_oracle(*instance).feasible for instance in instances] == [True, True, False]


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
# Cheapest first, sets {1,2,3,4} and {1,2,4,5} both sum to 2.8, but in link
# order the first sums to 2.8000000000000003: the second is the optimum.
@example(SetCoverInstance(
    4,
    (frozenset({1, 4}), frozenset({1}), frozenset({3}), frozenset({1, 2}), frozenset({3})),
    (0.1, 0, 2.5, 0.2, 2.5),
))
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
    # Each coverage optimum either spans the states with cycles, and is then
    # the optimum, or is refused.
    rng = random.Random(202)
    outcomes = set()
    for _ in range(15):
        system, costs = random_line_system(
            rng,
            scc_count=rng.randint(2, 4),
            n_inputs=rng.randint(2, 4),
            n_outputs=rng.randint(2, 4),
            perfect_matching=False,
        )
        oracle = exact_oracle(system, costs)
        coverage = dp_cover(condense(system), costs)
        assert coverage.cost == oracle.certificates["condition_a_cost"]
        spans = check_no_sfm(system, coverage.pattern).feasible
        outcomes.add(spans)
        if not spans:
            with pytest.raises(PreconditionError, match="no state perfect matching"):
                solve_dp(system, costs)
            continue
        dp = solve_dp(system, costs)
        assert (dp.method, dp.pattern, dp.cost) == ("dp", coverage.pattern, oracle.cost)
        assert dp.certificates["condition_b_checked"] is True
    assert outcomes == {True, False}


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
