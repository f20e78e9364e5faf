import math

import pytest
from hypothesis import example, given, settings
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
from feedsel import model
from feedsel.model import _edge_set
from tests.conftest import (
    IntSub, ListSub, cover_weight, faulty_cost_rows, is_cover, reference_cost_rows,
    reference_edge_set,
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


def test_validate_flags_negative_input_count():
    with pytest.raises(DimensionError, match=r"^input/output counts must be >= 0, got m=-1, p=0$"):
        StructuredSystem(1, -1, 0)


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


def test_set_cover_instance_rejects_elements_outside_the_universe():
    with pytest.raises(ValueError, match=r"^set 1 contains elements outside 1\.\.2$"):
        SetCoverInstance(2, ({1, 3}, {2}), (1, 1))


@pytest.mark.parametrize("weights", [(1e308, 1e308), (10**308, 10**308), (10**308, 1e308)])
def test_set_cover_weights_that_sum_beyond_the_largest_float_are_rejected(weights):
    # Each weight is finite, but a cover of both sets would total inf.
    with pytest.raises(ValueError) as excinfo:
        _cover(weights=weights)
    assert excinfo.type is ValueError
    assert str(excinfo.value) == (
        "the weights sum beyond the largest float, "
        "so cover totals would overflow to inf; scale the weights down"
    )
    largest = _cover(weights=(1e308, 0))
    assert cover_weight(largest, [1, 2]) == 1e308


def test_set_cover_weight_and_cover_check(fig1_cover):
    assert cover_weight(fig1_cover, [1, 3]) == 6
    assert is_cover(fig1_cover, [1, 3])
    assert not is_cover(fig1_cover, [1, 2])


def test_set_cover_index_checks_are_shared():
    instance = SetCoverInstance(universe_size=2, sets=(frozenset({1}), frozenset({2})), weights=(1, 1))
    for query in (is_cover, cover_weight):
        with pytest.raises(DimensionError, match=r"^set index 0 out of range 1\.\.2$"):
            query(instance, [0, 1])


def _system(**fields):
    return StructuredSystem(**{"n": 2, "m": 1, "p": 1, **fields})


def _cover(sets=((1,), (2,)), weights=(1, 1)):
    return SetCoverInstance(universe_size=2, sets=sets, weights=weights)


@pytest.mark.parametrize("build, message", [
    (lambda: _system(a_edges={(1.7, 2.9)}), "field 'a_edges': entry (1.7, 2.9) is not an integer pair"),
    (lambda: _system(b_edges={(True, 1)}), "field 'b_edges': entry (True, 1) is not an integer pair"),
    (lambda: _system(c_edges={("1", 2)}), "field 'c_edges': entry ('1', 2) is not an integer pair"),
    (lambda: _system(a_edges=[(1, 2, 3)]), "field 'a_edges': entry (1, 2, 3) is not an integer pair"),
    (lambda: _system(n=2.5), "field 'n' must be an integer, got 2.5"),
    (lambda: _system(n=2.0), "field 'n' must be an integer, got 2.0"),
    (lambda: _system(m=True), "field 'm' must be an integer, got True"),
    (lambda: _system(p=False), "field 'p' must be an integer, got False"),
    (lambda: FeedbackPattern({(1.9, 1.2)}), "field 'links': entry (1.9, 1.2) is not an integer pair"),
    (lambda: FeedbackPattern({(1, True)}), "field 'links': entry (1, True) is not an integer pair"),
    (lambda: _cover(sets=((1.5,), (1, 2))), "set 1: element 1.5 is not an integer"),
    (lambda: _cover(sets=((1,), (True, 2))), "set 2: element True is not an integer"),
    (lambda: _cover(weights=(1, "2")), "weight 2 must be a number, got '2'"),
    (lambda: _cover(weights=(True, 1)), "weight 1 must be a number, got True"),
    (lambda: SetCoverInstance(True, ((1,),), (1,)), "field 'universe_size' must be an integer, got True"),
    (lambda: SetCoverInstance(2.5, ((1, 2),), (1,)), "field 'universe_size' must be an integer, got 2.5"),
    (lambda: CostMatrix([["3"]]), 'cost entry (1, 1) must be a number or "inf", got \'3\''),
    (lambda: CostMatrix([[True, 2]]), 'cost entry (1, 1) must be a number or "inf", got True'),
])
def test_constructors_reject_values_they_would_coerce(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert excinfo.type is ValueError
    assert str(excinfo.value) == message


def test_inputless_system_is_representable_and_unsolvable():
    system = StructuredSystem(n=2, m=0, p=1, a_edges=frozenset({(1, 1), (2, 1)}), c_edges=frozenset({(1, 2)}))
    costs = CostMatrix.from_rows([])
    costs.require_matches(system)
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


# ---------------------------------------------------------------------------
# whole-field input checks against the per-entry references


def _outcome(function, *args):
    """``function(*args)``, or the type and message of the exception it raised."""
    try:
        return "ok", function(*args)
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)


EDGE_FAULTS = (
    (True, 1), [1, False], (2.0, 1), [1, 2.0], ("x", 1), [1, "x"], (1, 2, 3), [1], [], [[], 1],
    [[1, 2]], "ab", None, 5, (None, None), ListSub([1, 2]), (IntSub(1), 2), [2, IntSub(3)],
    (10**400, 1), (-1, 2), [0, 0],
)
_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda pair: st.sampled_from([pair, list(pair)])
)


@st.composite
def _faulty_edges(draw):
    """A list of pairs with up to two of ``EDGE_FAULTS`` put in."""
    entries = draw(st.lists(_pairs, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from(EDGE_FAULTS)))
    return entries


@settings(max_examples=500, deadline=None)
@example(edges=[[[], 1]], dims=(3, 3))
@example(edges=[[[], 1]], dims=None)
# a square field out of range in the second coordinate only
@example(edges=[(1, 2), (3, 4)], dims=(3, 3))
@example(edges=[(2, 0), (1, 1)], dims=(3, 3))
@given(
    edges=_faulty_edges(),
    dims=st.none() | st.tuples(st.integers(-1, 5), st.integers(0, 5)),
)
def test_edge_set_agrees_with_per_entry_reference(edges, dims):
    rows, cols = dims or (None, 0)
    fast = _outcome(_edge_set, "a_edges", iter(edges), rows, cols)
    slow = _outcome(reference_edge_set, "a_edges", edges, rows, cols)
    assert fast == slow
    if fast[0] == "ok":
        assert list(fast[1][0]) == list(slow[1][0])  # the same iteration order


@pytest.mark.parametrize("rows, cols, edges", [
    (3, 3, [(1, 3), (3, 1), (2, 2)]),  # rows == cols: one range test over the flat list
    (3, 5, [(3, 5), (1, 1)]),  # rows != cols: the first coordinates reach rows
    (4, 2, [[4, 1], [1, 2]]),
])
def test_a_well_formed_field_reaching_the_last_row_is_decided_whole(monkeypatch, rows, cols, edges):
    calls = []
    is_int = model._is_int
    monkeypatch.setattr(model, "_is_int", lambda value: calls.append(value) or is_int(value))
    assert _edge_set("a_edges", edges, rows, cols) == (frozenset(map(tuple, edges)), [])
    assert calls == []
    # One index past the last row sends the field to the per-entry loop, which names it.
    assert _edge_set("a_edges", edges + [(rows + 1, 1)], rows, cols)[1] == [(rows + 1, 1)]
    assert calls


def test_edge_set_names_a_nested_list_without_hashing_it():
    with pytest.raises(ValueError, match=r"^field 'b_edges': entry \[\[\], 1\] is not an integer pair$"):
        StructuredSystem(n=1, m=1, p=0, b_edges=[[[], 1]])


@settings(max_examples=500, deadline=None)
@example(rows=[[1e308, math.inf], [math.inf, 1e308]], container=list)
@example(rows=[[math.nan, 10**400]], container=list)
@example(rows=[[10**400, 1.5]], container=list)
# sum raises OverflowError before it meets the NaN, which must still be named
@example(rows=[[10**400, math.nan]], container=list)
# the type test fails on the subclass, and the per-entry loop passes: the sum must still run
@example(rows=[[IntSub(3), 10**400]], container=list)
@example(rows=[[IntSub(3), 10**400, 1.5]], container=tuple)
@example(rows=[[math.inf, 2], [-math.inf, 1]], container=list)
@example(rows=[[1, 2], [3]], container=tuple)
@given(rows=faulty_cost_rows(), container=st.sampled_from([list, tuple, ListSub]))
def test_cost_matrix_agrees_with_per_entry_reference(rows, container):
    rows = [container(row) for row in rows]
    fast = _outcome(lambda: CostMatrix(rows).rows)
    slow = _outcome(reference_cost_rows, rows)
    assert repr(fast) == repr(slow)  # repr tells -0.0 from 0 and 1 from 1.0
