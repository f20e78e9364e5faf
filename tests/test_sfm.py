import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedsel import (
    DimensionError,
    FeedbackPattern,
    SetCoverInstance,
    StructuredSystem,
    check_no_sfm,
    full_pattern,
    reduce_set_cover,
)
from feedsel import condense
from feedsel.generators import random_line_system
from feedsel.graphs import state_bipartite
from feedsel.sfm import (
    CoverageKernel, _has_cycle_family, _has_state_perfect_matching, _uncovered_states,
)
from tests.conftest import (
    fig1_cover_instance, random_system, reference_condense, reference_fixed_modes,
    reference_hopcroft_karp, reference_successors, spanning_cycle_family_exists,
)


def fig1_system():
    return reduce_set_cover(fig1_cover_instance())


def test_condition_a_passes_when_selected_sets_cover():
    system, _ = fig1_system()
    assert check_no_sfm(system, FeedbackPattern.of((1, 1), (1, 3))).uncovered_states == ()


def test_condition_a_reports_states_of_missed_elements():
    system, _ = fig1_system()
    uncovered = check_no_sfm(system, FeedbackPattern.of((1, 1))).uncovered_states
    assert uncovered == (3, 4, 5)


def test_condition_a_everything_uncovered_without_feedback():
    system, _ = fig1_system()
    assert check_no_sfm(system, FeedbackPattern()).uncovered_states == tuple(range(1, 7))


def test_condition_b_holds_without_feedback_when_states_cycle():
    system, _ = fig1_system()  # all states carry self-loops
    assert check_no_sfm(system, FeedbackPattern()).condition_b_ok


def test_condition_b_fails_forever_with_isolated_state():
    # State 2 has no incident edges at all, so no cycle can cover it.
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 1)}),
    )
    for links in ([], [(1, 1)]):
        assert not check_no_sfm(system, FeedbackPattern(frozenset(links))).condition_b_ok


def test_condition_b_reference_single_link(section5):
    system, _ = section5
    assert check_no_sfm(system, FeedbackPattern.of((2, 3))).condition_b_ok


def test_check_no_sfm_reference_optimum(section5):
    system, _ = section5
    verdict = check_no_sfm(system, FeedbackPattern.of((2, 3)))
    assert verdict.feasible
    assert verdict.condition_a_ok and verdict.condition_b_ok


def test_check_no_sfm_full_pattern_on_reduction():
    system, costs = fig1_system()
    assert check_no_sfm(system, full_pattern(costs)).feasible


def test_check_no_sfm_empty_pattern_fails_condition_a():
    system, _ = fig1_system()
    verdict = check_no_sfm(system, FeedbackPattern())
    assert not verdict.feasible
    assert not verdict.condition_a_ok
    assert verdict.condition_b_ok  # self-loops keep every state on a cycle


def test_feasibility_monotone_under_link_addition():
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        system, pattern = random_system(
            rng, n=rng.randint(2, 5), m=rng.randint(1, 3), p=rng.randint(1, 3)
        )
        if not check_no_sfm(system, pattern).feasible:
            continue
        checked += 1
        extra = (rng.randint(1, system.m), rng.randint(1, system.p))
        grown = pattern.union(FeedbackPattern.of(extra))
        assert check_no_sfm(system, grown).feasible


def test_condition_b_ignores_links_when_state_matching_exists():
    # Self-loops on every state give a perfect matching up front; condition
    # b must then hold for any pattern whatsoever.
    rng = random.Random(17)
    for _ in range(20):
        n, m, p = rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2)
        system, pattern = random_system(rng, n=n, m=m, p=p)
        system = StructuredSystem(
            n=n, m=m, p=p,
            a_edges=system.a_edges | frozenset((i, i) for i in range(1, n + 1)),
            b_edges=system.b_edges,
            c_edges=system.c_edges,
        )
        assert check_no_sfm(system, FeedbackPattern()).condition_b_ok
        assert check_no_sfm(system, pattern).condition_b_ok


def test_condition_b_matches_exhaustive_cycle_search_small():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(0, 3)
        p = rng.randint(0, 3)
        system, pattern = random_system(rng, n=n, m=m, p=p, a_density=0.35)
        expected = spanning_cycle_family_exists(system, pattern)
        assert check_no_sfm(system, pattern).condition_b_ok == expected


@pytest.mark.parametrize("check", [check_no_sfm])
@pytest.mark.parametrize("link", [(0, 1), (2, 1), (1, 5)])
def test_checks_reject_out_of_range_links(check, link):
    # (0, 1) once read as the edge y1 -> x2 and passed; (2, 1) failed for the
    # wrong reason; (1, 5) raised IndexError.
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 1), (1, 2)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    assert check_no_sfm(system, FeedbackPattern.of((1, 1))).feasible
    with pytest.raises(DimensionError, match=re.escape(f"feedback link {link} out of range for m=1, p=1")):
        check(system, FeedbackPattern.of((1, 1), link))


def test_coverage_kernel_joins_inputs_on_one_cycle_through_three_of_them():
    # u_k -> x_k -> y_k; links (2, 1), (3, 2), (1, 3) close one cycle through
    # every state, though no two inputs have direct edges both ways.
    ring = frozenset({(1, 1), (2, 2), (3, 3)})
    system = StructuredSystem(n=3, m=3, p=3, a_edges=frozenset(), b_edges=ring, c_edges=ring)
    kernel = CoverageKernel(system)
    links = [(2, 1), (3, 2), (1, 3)]
    assert kernel.uncovered_states(links) == () == _uncovered_states(
        system, links, system.loop_rows(links)
    )
    assert kernel.uncovered_states([(2, 1), (3, 2)]) == (1, 2, 3)


def _kernel_system(family: str, seed: int) -> StructuredSystem:
    rng = random.Random(seed)
    if family in ("line_pm", "line_nopm"):
        system, _ = random_line_system(
            seed,
            scc_count=rng.randint(1, 4),
            n_inputs=rng.randint(1, 4),
            n_outputs=rng.randint(1, 4),
            perfect_matching=family == "line_pm",
        )
        return system
    if family == "input_ring":
        # u_k -> x_k -> y_k for every k, so links (k + 1, k) chain inputs into
        # cycles through three or more of them: only a closure over the
        # input graph puts those inputs in one SCC.
        m = rng.randint(1, 5)
        base, _ = random_system(
            rng, n=m + rng.randint(0, 3), m=m, p=m, a_density=0.1, b_density=0.1, c_density=0.1
        )
        ring = frozenset((k, k) for k in range(1, m + 1))
        return StructuredSystem(
            n=base.n, m=m, p=m, a_edges=base.a_edges,
            b_edges=base.b_edges | ring, c_edges=base.c_edges | ring,
        )
    if family == "set_cover":
        universe = rng.randint(1, 6)
        sets = [frozenset(rng.sample(range(1, universe + 1), rng.randint(1, universe)))
                for _ in range(rng.randint(1, 6))]
        sets.append(frozenset(range(1, universe + 1)) - frozenset().union(*sets))
        sets = tuple(s for s in sets if s)
        instance = SetCoverInstance(universe_size=universe, sets=sets, weights=(1,) * len(sets))
        return reduce_set_cover(instance)[0]
    m = 0 if family == "no_inputs" else rng.randint(1, 4)
    p = 0 if family == "no_outputs" else rng.randint(1, 4)
    system, _ = random_system(
        rng, n=rng.randint(1, 7), m=m, p=p,
        a_density=rng.uniform(0, 0.5), b_density=rng.uniform(0.1, 0.9),
        c_density=rng.uniform(0.1, 0.9),
    )
    return system


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(
        ["random", "line_pm", "line_nopm", "set_cover", "input_ring", "no_inputs", "no_outputs"]
    ),
    seed=st.integers(0, 2**32 - 1),
    subsets=st.lists(st.integers(0, 2**25 - 1), min_size=1, max_size=6),
)
def test_coverage_kernel_agrees_with_closed_loop_sccs(family, seed, subsets):
    system = _kernel_system(family, seed)
    kernel = CoverageKernel(system)
    every_link = [(i, j) for i in range(1, system.m + 1) for j in range(1, system.p + 1)]
    for bits in subsets + [(1 << len(every_link)) - 1]:
        links = [link for b, link in enumerate(every_link) if bits >> b & 1]
        assert kernel.uncovered_states(links) == _uncovered_states(system, links, system.loop_rows(links))


def _open_loop_reach(system: StructuredSystem) -> list[set[int]]:
    """Per vertex, the vertices it reaches by DFS on the link-free ``reference_successors``."""
    succ = reference_successors(system, FeedbackPattern())
    reach = []
    for source in range(len(succ)):
        seen, stack = {source}, [source]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    return reach


def test_coverage_kernel_tables_equal_the_edge_built_reference():
    families = ["random", "line_pm", "line_nopm", "set_cover", "input_ring", "no_inputs", "no_outputs"]
    seen = set()
    for family in families:
        for seed in range(40):
            system = _kernel_system(family, seed)
            n, m, p = system.n, system.m, system.p
            reach = _open_loop_reach(system)
            kernel = CoverageKernel(system)
            states = range(1, n + 1)
            assert kernel.SR == [0] + [
                sum(1 << s for s in states if s in reach[n + k]) for k in range(1, m + 1)
            ]
            assert kernel.SQ == [0] + [
                sum(1 << s for s in states if n + m + j in reach[s]) for j in range(1, p + 1)
            ]
            assert kernel.inputs_to == [0] + [
                sum(1 << k for k in range(1, m + 1) if n + m + j in reach[n + k])
                for j in range(1, p + 1)
            ]
            seen |= {family} if any(kernel.SR) and any(kernel.SQ) and any(kernel.inputs_to) else set()
    assert seen == set(families) - {"no_inputs", "no_outputs"}


@settings(max_examples=300, deadline=None)
@example(seed=0, n=3, m=0, p=2, bits=0)
@example(seed=1, n=3, m=2, p=0, bits=0)
@example(seed=2, n=4, m=2, p=2, bits=0)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    m=st.integers(0, 3),
    p=st.integers(0, 3),
    bits=st.integers(0, 2**9 - 1),
)
def test_cycle_family_on_the_shared_loop_rows_agrees_with_references(seed, n, m, p, bits):
    rng = random.Random(seed)
    system, _ = random_system(rng, n=n, m=m, p=p, a_density=rng.uniform(0, 0.5))
    every_link = [(i, j) for i in range(1, m + 1) for j in range(1, p + 1)]
    links = [link for b, link in enumerate(every_link) if bits >> b & 1]
    rows = system.loop_rows(links)
    found = _has_cycle_family(rows)
    # Checked against the other orientation: successor rows built edge by edge, with a
    # self-loop on each input and output; row 0 stays empty and unmatched.
    plain = reference_successors(system, FeedbackPattern(frozenset(links)))
    self_looped = [row + [v] if v > n else row for v, row in enumerate(plain)]
    size = system.vertex_count
    assert found == (reference_hopcroft_karp(self_looped, size + 1)[0] == size)
    if n + m + p <= 10:
        assert found == spanning_cycle_family_exists(system, FeedbackPattern(frozenset(links)))
    # The self-loops ending the input and output rows leave condition (a) as it was:
    # the loop rows give the same verdict as rows without self-loops, built edge by edge.
    assert _uncovered_states(system, links, rows) == _uncovered_states(system, links, plain)
    assert check_no_sfm(system, FeedbackPattern(frozenset(links))).condition_b_ok == found


def test_link_free_loop_rows_have_a_cycle_family_exactly_when_the_states_do():
    # A link-free input row holds only its own id and no other row holds an output's id, so
    # the inputs and outputs match themselves and the states must match among themselves.
    with_matching = 0
    for seed in range(2000):
        rng = random.Random(seed)
        system, _ = random_system(
            rng, n=rng.randint(1, 8), m=rng.randint(0, 3), p=rng.randint(0, 3),
            a_density=rng.uniform(0, 0.6),
        )
        found = _has_state_perfect_matching(system)
        assert _has_cycle_family(system.loop_rows()) == found, seed
        with_matching += found
    assert 200 < with_matching < 1800


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), line=st.booleans())
def test_state_matching_on_condensation_rows_agrees_with_reference_and_default(seed, n, line):
    rng = random.Random(seed)
    if line:
        system, _ = random_line_system(
            rng, scc_count=rng.randint(1, 5), perfect_matching=rng.random() < 0.5
        )
    else:
        system, _ = random_system(rng, n=n, m=1, p=1, a_density=rng.uniform(0, 0.6))
    condensation = condense(system)
    expected = reference_hopcroft_karp(state_bipartite(system).adjacency, system.n)[0] == system.n
    # On the rows condense ran Tarjan on, and on an equal system that never condensed.
    assert _has_state_perfect_matching(system) == expected
    twin = StructuredSystem(system.n, system.m, system.p, system.a_edges, system.b_edges, system.c_edges)
    assert _has_state_perfect_matching(twin) == expected
    # A second call on the same system gives the same answer and leaves the SCCs as they were.
    assert _has_state_perfect_matching(system) == expected
    assert condensation.sccs == reference_condense(system).sccs


def test_check_no_sfm_matches_the_algebraic_fixed_mode_reference():
    """Verdicts from the graph conditions against A + BKC mod a prime, which shares no graph code.

    Half the systems are conftest's sparse defaults with its random
    pattern; the other half are denser, each link taken with probability
    0.7, so both verdicts are common.
    """
    rng = random.Random(20261020)
    verdicts = []
    for k in range(5000):
        n, m, p = rng.randint(1, 10), rng.randint(1, 3), rng.randint(1, 3)
        if k % 2:
            system, pattern = random_system(rng, n=n, m=m, p=p)
        else:
            system, _ = random_system(rng, n=n, m=m, p=p, a_density=0.3, b_density=0.4, c_density=0.4)
            pattern = FeedbackPattern(frozenset(
                (i, j) for i in range(1, m + 1) for j in range(1, p + 1) if rng.random() < 0.7
            ))
        feasible = check_no_sfm(system, pattern).feasible
        assert feasible == (reference_fixed_modes(system, pattern.links, k) == 0), (k, system, pattern)
        verdicts.append(feasible)
    assert 1000 < sum(verdicts) < 4000
