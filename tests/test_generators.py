import random

import pytest

from feedsel import check_no_sfm, condense, full_pattern
from feedsel.generators import (
    random_line_system,
    random_single_input_system,
    random_system,
)
from feedsel.graphs import hopcroft_karp, is_line_dag, state_bipartite


def _has_matching(system):
    return hopcroft_karp(state_bipartite(system).adjacency, system.n)[0] == system.n


def test_line_generator_is_seed_deterministic():
    a = random_line_system(42, scc_count=3, n_inputs=2, n_outputs=2)
    b = random_line_system(42, scc_count=3, n_inputs=2, n_outputs=2)
    assert a[0] == b[0]
    assert a[1].rows == b[1].rows


def test_line_generator_distinct_seeds_differ():
    a = random_line_system(1, scc_count=3, n_inputs=2, n_outputs=2)
    b = random_line_system(2, scc_count=3, n_inputs=2, n_outputs=2)
    assert a[0] != b[0] or a[1].rows != b[1].rows


def test_line_generator_with_matching():
    rng = random.Random(555)
    for _ in range(10):
        system, costs = random_line_system(
            rng, scc_count=rng.randint(1, 4), n_inputs=3, n_outputs=3
        )
        condensation = condense(system)
        assert is_line_dag(condensation)
        assert _has_matching(system)
        assert check_no_sfm(system, full_pattern(costs)).feasible
        assert all(
            1 <= c <= 100 for row in costs.rows for c in row
        )


def test_line_generator_without_matching():
    rng = random.Random(777)
    for _ in range(10):
        system, costs = random_line_system(
            rng, scc_count=rng.randint(2, 4), n_inputs=3, n_outputs=3,
            perfect_matching=False,
        )
        assert is_line_dag(condense(system))
        assert not _has_matching(system)
        assert check_no_sfm(system, full_pattern(costs)).feasible


def test_single_input_generator_properties():
    rng = random.Random(888)
    for _ in range(10):
        system, costs = random_single_input_system(rng, n_branches=rng.randint(1, 4))
        assert system.m == 1
        condensation = condense(system)
        assert len(condensation.non_top_linked_sccs()) == 1
        assert _has_matching(system)
        assert check_no_sfm(system, full_pattern(costs)).feasible


def test_random_system_respects_dimensions():
    system, pattern = random_system(7, n=4, m=2, p=3)
    assert all(1 <= i <= 4 and 1 <= j <= 4 for i, j in system.a_edges)
    assert all(1 <= i <= 4 and 1 <= j <= 2 for i, j in system.b_edges)
    assert all(1 <= i <= 3 and 1 <= j <= 4 for i, j in system.c_edges)
    assert all(1 <= i <= 2 and 1 <= j <= 3 for i, j in pattern.links)


@pytest.mark.parametrize(
    "kwargs, argument",
    [
        ({"scc_size_range": (0, 2)}, "scc_size_range"),
        ({"scc_size_range": (3, 1)}, "scc_size_range"),
        ({"cost_range": (-5, -1)}, "cost_range"),
        ({"cost_range": (5, 1)}, "cost_range"),
    ],
)
def test_line_generator_rejects_bad_ranges_up_front(kwargs, argument):
    with pytest.raises(ValueError, match=argument):
        random_line_system(1, **kwargs)
