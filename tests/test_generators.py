import hashlib
import math
import random

import pytest

from feedsel import (
    CostMatrix, FeedbackPattern, SfmVerdict, check_no_sfm, condense, emit_system, full_pattern,
)
from feedsel import generators, model
from feedsel.fileio import MAX_SYSTEM_VERTICES
from feedsel.generators import random_line_system, random_single_input_system
from feedsel.graphs import hopcroft_karp, missing_path_links, state_bipartite
from tests.conftest import random_system


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
        assert missing_path_links(condensation) == []
        assert len(condensation.dag_edges) == condensation.scc_count - 1
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
        condensation = condense(system)
        assert missing_path_links(condensation) == []
        assert len(condensation.dag_edges) == condensation.scc_count - 1
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


def test_single_input_generator_needs_a_branch():
    with pytest.raises(ValueError, match=r"^need at least one branch$"):
        random_single_input_system(1, n_branches=0)


@pytest.mark.parametrize(
    "generate, kwargs",
    [(random_line_system, {"scc_count": 10**6}), (random_single_input_system, {"n_branches": 10**6})],
)
def test_structured_generators_refuse_oversize_arguments_before_drawing(generate, kwargs):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="instance too large"):
        generate(rng, **kwargs)
    assert rng.getstate() == state


def test_single_input_size_cap_is_the_parser_cap(monkeypatch):
    # n <= 2 + 4 * b, m = 1 and p <= b + 2, so n + m + p <= 5 * b + 5.
    largest = (MAX_SYSTEM_VERTICES - 5) // 5
    monkeypatch.setattr(generators, "MAX_TRIES", 0)  # pass the cap, then draw nothing
    with pytest.raises(RuntimeError, match="no admissible instance found in 0 draws"):
        random_single_input_system(1, n_branches=largest)
    with pytest.raises(ValueError, match="instance too large"):
        random_single_input_system(1, n_branches=largest + 1)


def test_line_generator_checks_the_full_pattern_without_link_tuples(monkeypatch):
    # A benchmark-size chain: 50 x 50 admissible links per draw.
    kwargs = dict(scc_count=200, scc_size_range=(1, 1), n_inputs=50, n_outputs=50)
    expected = emit_system(*random_line_system(11, **kwargs))

    def refuse(*args, **kwargs):
        raise AssertionError("the generator built link tuples")

    monkeypatch.setattr(FeedbackPattern, "__post_init__", refuse)
    monkeypatch.setattr(CostMatrix, "finite_links", refuse)
    monkeypatch.setattr(model, "full_pattern", refuse)
    assert emit_system(*random_line_system(11, **kwargs)) == expected
    assert "full_pattern" not in vars(generators)


@pytest.mark.parametrize("generate", [random_line_system, random_single_input_system])
def test_structured_generators_give_up_after_max_tries(monkeypatch, generate):
    drawn = []

    def counted(system):
        drawn.append(system)
        return condense(system)

    monkeypatch.setattr(generators, "MAX_TRIES", 3)
    monkeypatch.setattr(generators, "condense", counted)
    monkeypatch.setattr(generators, "loop_verdict", lambda system, rows: SfmVerdict((1,), True))
    with pytest.raises(RuntimeError, match="no admissible instance found in 3 draws"):
        generate(5)
    assert len(drawn) == 3


GENERATED_DIGEST = "7b91e7ed6cdba31c0bff98a09c6fcc3d5e608e8300c5cdeec34416807d3932e9"

# The instance classes of perfbench/workloads.py, whose files must not change.
PERFBENCH_LINE_CLASSES = [
    *(dict(scc_count=k, scc_size_range=(1, 1), n_inputs=50, n_outputs=50) for k in (250, 500, 1000)),
    *(dict(scc_count=k, scc_size_range=(2, 2), n_inputs=20, n_outputs=20, perfect_matching=False)
      for k in (150, 300, 600)),
    dict(scc_count=4, scc_size_range=(2, 2), n_inputs=3, n_outputs=4, perfect_matching=False),
    dict(scc_count=6, scc_size_range=(2, 2), n_inputs=3, n_outputs=4),
]


def test_generated_instances_match_golden_digest():
    texts = []
    for seed in range(30):
        texts.append(emit_system(*random_line_system(
            seed, scc_count=1 + seed % 6, n_inputs=1 + seed % 3, n_outputs=1 + seed % 4,
            scc_size_range=((1, 3), (2, 4), (1, 1))[seed % 3],
            cost_range=((1, 100), (0, 9))[seed % 4 == 0],
            perfect_matching=seed % 2 == 1,
        )))
    for seed, kwargs in enumerate(PERFBENCH_LINE_CLASSES):
        texts.append(emit_system(*random_line_system(2**63 + seed, **kwargs)))
    rng = random.Random(31)
    for _ in range(12):
        texts.append(emit_system(*random_single_input_system(rng, n_branches=rng.randint(1, 6))))
    for seed in range(8):
        system, pattern = random_system(seed, n=2 + seed, m=1 + seed % 3, p=1 + seed % 4)
        costs = CostMatrix.from_rows(
            [[1 if (i, j) in pattern else math.inf for j in range(1, system.p + 1)]
             for i in range(1, system.m + 1)]
        )
        texts.append(emit_system(system, costs))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == GENERATED_DIGEST
