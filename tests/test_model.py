import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedsel import (
    INF,
    CostMatrix,
    DimensionError,
    FeedbackPattern,
    SetCoverInstance,
    StructuredSystem,
    cost_of,
)


def test_cost_of_empty_pattern_is_zero(section5):
    _, costs = section5
    assert cost_of(FeedbackPattern(), costs) == 0


def test_cost_of_single_link(section5):
    _, costs = section5
    assert cost_of(FeedbackPattern.of((2, 3)), costs) == 5


def test_cost_of_two_links_in_first_row():
    costs = CostMatrix.from_rows([[2, 10, 100]])
    assert cost_of(FeedbackPattern.of((1, 1), (1, 2)), costs) == 12


def test_cost_of_saturates_at_inf():
    costs = CostMatrix.from_rows([[1, INF]])
    assert math.isinf(cost_of(FeedbackPattern.of((1, 1), (1, 2)), costs))


def test_cost_of_rejects_out_of_range_link():
    costs = CostMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionError):
        cost_of(FeedbackPattern.of((2, 1)), costs)


def test_cost_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        CostMatrix.from_rows([[1, -2]])


def test_cost_matrix_rejects_finite_entries_that_sum_to_inf():
    with pytest.raises(ValueError, match="overflow"):
        CostMatrix.from_rows([[1e308, INF], [INF, 1e308]])
    with pytest.raises(ValueError, match="overflow"):
        CostMatrix.from_rows([[10**400]])
    largest = CostMatrix.from_rows([[1e308, INF], [INF, 0]])
    assert cost_of(FeedbackPattern.of((1, 1), (2, 2)), largest) == 1e308


def test_validate_reference_system(section5):
    system, _ = section5
    rebuilt = StructuredSystem(system.n, system.m, system.p, system.a_edges, system.b_edges, system.c_edges)
    assert rebuilt == system
    assert (system.n, system.m, system.p) == (11, 4, 3)


def test_validate_flags_out_of_range_index():
    with pytest.raises(DimensionError) as excinfo:
        StructuredSystem(n=2, m=1, p=1, a_edges=frozenset({(0, 1)}))
    problems = str(excinfo.value).split("; ")
    assert len(problems) == 1
    assert "a_edges" in problems[0] and "(0, 1)" in problems[0]


def test_validate_flags_zero_states():
    with pytest.raises(DimensionError) as excinfo:
        StructuredSystem(n=0, m=0, p=0)
    assert any("n must be >= 1" in msg for msg in str(excinfo.value).split("; "))


def test_construction_lists_every_problem_in_sorted_order():
    with pytest.raises(DimensionError) as excinfo:
        StructuredSystem(
            n=2, m=1, p=1,
            a_edges={(3, 1), (0, 2), (1, 1)}, b_edges={(1, 2)}, c_edges={(2, 1)},
        )
    assert str(excinfo.value) == "; ".join(
        f"{name}: entry {entry} out of range for (n, m, p) = (2, 1, 1)"
        for name, entry in [
            ("a_edges", (0, 2)), ("a_edges", (3, 1)), ("b_edges", (1, 2)), ("c_edges", (2, 1)),
        ]
    )


def test_set_cover_instance_rejects_empty_set():
    with pytest.raises(ValueError):
        SetCoverInstance(universe_size=2, sets=(frozenset(),), weights=(1,))


def test_set_cover_instance_requires_coverage():
    with pytest.raises(ValueError):
        SetCoverInstance(universe_size=3, sets=(frozenset({1, 2}),), weights=(1,))


def test_set_cover_weight_and_cover_check(fig1_cover):
    assert fig1_cover.cover_weight([1, 3]) == 6
    assert fig1_cover.is_cover([1, 3])
    assert not fig1_cover.is_cover([1, 2])


def test_inputless_system_is_representable_and_unsolvable():
    system = StructuredSystem(n=2, m=0, p=1, a_edges=frozenset({(1, 1), (2, 1)}), c_edges=frozenset({(1, 2)}))
    costs = CostMatrix.from_rows([])
    assert costs.matches(system)
    from feedsel import solve_dp

    assert not solve_dp(system, costs).feasible


# -- properties --------------------------------------------------------------

finite_costs = st.lists(
    st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)
links3x3 = st.sets(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=0, max_size=9
)


@settings(max_examples=60, deadline=None)
@given(rows=finite_costs, links=links3x3, extra=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_cost_monotone_under_link_addition(rows, links, extra):
    costs = CostMatrix.from_rows(rows)
    base = FeedbackPattern(frozenset(links))
    grown = base.union(FeedbackPattern.of(extra))
    assert cost_of(grown, costs) >= cost_of(base, costs)


@settings(max_examples=60, deadline=None)
@given(
    rows=finite_costs,
    forbidden=st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4),
    links=links3x3,
)
def test_cost_infinite_iff_forbidden_link_selected(rows, forbidden, links):
    adjusted = [
        [INF if (i, j) in forbidden else rows[i - 1][j - 1] for j in range(1, 4)]
        for i in range(1, 4)
    ]
    costs = CostMatrix.from_rows(adjusted)
    pattern = FeedbackPattern(frozenset(links))
    expect_inf = bool(set(links) & forbidden)
    assert math.isinf(cost_of(pattern, costs)) == expect_inf
