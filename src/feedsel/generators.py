"""Seed-deterministic random instance generators.

Every generator draws from a ``random.Random`` seeded by the caller, so a
fixed seed reproduces the instance bit for bit. Generators that promise
structural properties (line-shaped SCC DAG, perfect matching on or off,
full-pattern feasibility) verify them and redraw until they hold, which
keeps the output honest without biasing the common case.
"""

from __future__ import annotations

import random
from typing import Optional

from .fileio import MAX_SYSTEM_VERTICES
from .graphs import condense, is_line_dag
from .model import CostMatrix, FeedbackPattern, StructuredSystem, full_pattern
from .sfm import check_no_sfm
from .solvers import _has_state_perfect_matching

# Draws a generator makes before it gives up on its structural promises.
MAX_TRIES = 200
# Chance of each extra state edge inside an SCC, and of a second edge
# between consecutive SCCs, in line systems.
EXTRA_EDGE_PROB = 0.25
# Single-input systems: SCCs per branch, states per SCC, and link costs.
BRANCH_LENGTH_RANGE = (1, 2)
SINGLE_INPUT_SCC_SIZE_RANGE = (1, 2)
SINGLE_INPUT_COST_RANGE = (1, 100)


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_line_system(
    seed,
    *,
    scc_count: int = 4,
    scc_size_range: tuple[int, int] = (1, 3),
    n_inputs: int = 3,
    n_outputs: int = 3,
    cost_range: tuple[int, int] = (1, 100),
    perfect_matching: bool = True,
) -> tuple[StructuredSystem, CostMatrix]:
    """Random system whose SCC DAG is exactly a chain C_1 -> ... -> C_scc_count.

    With ``perfect_matching`` each SCC is built on a state cycle, so every
    state sits on a cycle. Without it, one SCC is built as a hub-and-spoke
    that is strongly connected but has no spanning cycle family, which
    removes the perfect matching; one spoke gets an input and an output so
    feedback can repair the deficit. All generated instances are feasible
    under the full pattern, and costs are integers in ``cost_range``.

    Raises ``ValueError`` before drawing anything when the largest system
    the arguments allow, or its cost matrix, would exceed
    ``fileio.MAX_SYSTEM_VERTICES``, the cap that ``parse_system`` enforces.
    """
    rng = _rng(seed)
    if scc_count < 1 or n_inputs < 1 or n_outputs < 1:
        raise ValueError("need at least one SCC, one input and one output")
    lo, hi = scc_size_range
    if not 1 <= lo <= hi:
        raise ValueError(f"scc_size_range needs 1 <= lo <= hi, got {scc_size_range}")
    if not 0 <= cost_range[0] <= cost_range[1]:
        raise ValueError(f"cost_range needs 0 <= lo <= hi, got {cost_range}")
    # Without a perfect matching one SCC becomes a hub of at most 3 states.
    largest = (scc_count - 1) * hi + (hi if perfect_matching else 3) + n_inputs + n_outputs
    if max(largest, n_inputs * n_outputs) > MAX_SYSTEM_VERTICES:
        raise ValueError(
            f"instance too large: n + m + p up to {largest} and {n_inputs * n_outputs} cost "
            f"entries; neither may exceed {MAX_SYSTEM_VERTICES}"
        )
    for _ in range(MAX_TRIES):
        sizes = [rng.randint(lo, hi) for _ in range(scc_count)]
        victim = rng.randrange(scc_count) if not perfect_matching else -1
        if victim >= 0:
            # Hub-and-spoke needs >= 3 states; a bare single state also works.
            sizes[victim] = 1 if sizes[victim] == 1 else 3
        n = sum(sizes)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        scc_states: list[list[int]] = []
        offset = 0
        for size in sizes:
            scc_states.append(labels[offset : offset + size])
            offset += size

        a_edges: set[tuple[int, int]] = set()
        helper_state: Optional[int] = None
        for k, states in enumerate(scc_states):
            if k == victim:
                if len(states) == 1:
                    helper_state = states[0]  # bare vertex: no self-loop, no cycle
                    continue
                hub, *spokes = rng.sample(states, len(states))
                for s in spokes:
                    a_edges.add((s, hub))
                    a_edges.add((hub, s))
                helper_state = spokes[-1]
                continue
            if len(states) == 1:
                a_edges.add((states[0], states[0]))
                continue
            cycle = rng.sample(states, len(states))
            for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
                a_edges.add((head, tail))
            for tail in states:
                for head in states:
                    if tail != head and rng.random() < EXTRA_EDGE_PROB:
                        a_edges.add((head, tail))
        for k in range(scc_count - 1):
            tail = rng.choice(scc_states[k])
            head = rng.choice(scc_states[k + 1])
            a_edges.add((head, tail))
            if rng.random() < EXTRA_EDGE_PROB:
                a_edges.add((rng.choice(scc_states[k + 1]), rng.choice(scc_states[k])))

        b_edges: set[tuple[int, int]] = set()
        for i in range(1, n_inputs + 1):
            for state in rng.sample(labels, min(len(labels), rng.randint(1, 2))):
                b_edges.add((state, i))
        b_edges.add((rng.choice(scc_states[0]), rng.randint(1, n_inputs)))

        c_edges: set[tuple[int, int]] = set()
        for j in range(1, n_outputs + 1):
            for state in rng.sample(labels, min(len(labels), rng.randint(1, 2))):
                c_edges.add((j, state))
        c_edges.add((rng.randint(1, n_outputs), rng.choice(scc_states[-1])))

        if helper_state is not None:
            b_edges.add((helper_state, rng.randint(1, n_inputs)))
            c_edges.add((rng.randint(1, n_outputs), helper_state))

        system = StructuredSystem(
            n=n, m=n_inputs, p=n_outputs,
            a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
        )
        costs = CostMatrix.from_rows(
            [
                [rng.randint(cost_range[0], cost_range[1]) for _ in range(n_outputs)]
                for _ in range(n_inputs)
            ]
        )

        condensation = condense(system)
        if condensation.scc_count != scc_count or not is_line_dag(condensation):
            continue
        if _has_state_perfect_matching(system) != perfect_matching:
            continue
        if not check_no_sfm(system, full_pattern(costs)).feasible:
            continue
        return system, costs
    raise RuntimeError(f"no admissible instance found in {MAX_TRIES} draws")


def random_single_input_system(
    seed,
    *,
    n_branches: int = 3,
) -> tuple[StructuredSystem, CostMatrix]:
    """Random single-input system with one source SCC and ``n_branches`` sinks.

    A root SCC fans out into branches of chained SCCs; every SCC is a state
    cycle, so the state bipartite graph has a perfect matching. The input
    drives the root and each sink SCC is sensed by at least one output, so
    the full pattern is feasible.
    """
    rng = _rng(seed)
    if n_branches < 1:
        raise ValueError("need at least one branch")
    for _ in range(MAX_TRIES):
        lo, hi = SINGLE_INPUT_SCC_SIZE_RANGE
        scc_sizes = [rng.randint(lo, hi)]  # root first
        branch_sccs: list[list[int]] = []
        for _ in range(n_branches):
            length = rng.randint(*BRANCH_LENGTH_RANGE)
            ids = []
            for _ in range(length):
                scc_sizes.append(rng.randint(lo, hi))
                ids.append(len(scc_sizes) - 1)
            branch_sccs.append(ids)
        n = sum(scc_sizes)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        scc_states: list[list[int]] = []
        offset = 0
        for size in scc_sizes:
            scc_states.append(labels[offset : offset + size])
            offset += size

        a_edges: set[tuple[int, int]] = set()
        for states in scc_states:
            if len(states) == 1:
                a_edges.add((states[0], states[0]))
                continue
            cycle = rng.sample(states, len(states))
            for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
                a_edges.add((head, tail))
        for ids in branch_sccs:
            previous = 0  # root
            for scc_id in ids:
                tail = rng.choice(scc_states[previous])
                head = rng.choice(scc_states[scc_id])
                a_edges.add((head, tail))
                previous = scc_id

        b_edges = {(rng.choice(scc_states[0]), 1)}
        p = n_branches + rng.randint(0, 2)
        c_edges: set[tuple[int, int]] = set()
        for j in range(1, p + 1):
            for state in rng.sample(labels, min(len(labels), rng.randint(1, 2))):
                c_edges.add((j, state))
        terminal_sccs = [ids[-1] for ids in branch_sccs]
        for scc_id in terminal_sccs:
            states = set(scc_states[scc_id])
            if not any(s in states for _, s in c_edges):
                c_edges.add((rng.randint(1, p), rng.choice(scc_states[scc_id])))

        system = StructuredSystem(
            n=n, m=1, p=p,
            a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
        )
        costs = CostMatrix.from_rows(
            [[rng.randint(*SINGLE_INPUT_COST_RANGE) for _ in range(p)]]
        )

        condensation = condense(system)
        if len(condensation.non_top_linked_sccs()) != 1:
            continue
        if not _has_state_perfect_matching(system):
            continue
        if not check_no_sfm(system, full_pattern(costs)).feasible:
            continue
        return system, costs
    raise RuntimeError(f"no admissible instance found in {MAX_TRIES} draws")


def random_system(
    seed,
    *,
    n: int,
    m: int,
    p: int,
    a_density: float = 0.25,
    b_density: float = 0.3,
    c_density: float = 0.3,
    link_density: float = 0.3,
) -> tuple[StructuredSystem, FeedbackPattern]:
    """Unconstrained random system plus a random feedback pattern."""
    rng = _rng(seed)
    a_edges = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < a_density
    }
    b_edges = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, m + 1)
        if rng.random() < b_density
    }
    c_edges = {
        (i, j)
        for i in range(1, p + 1)
        for j in range(1, n + 1)
        if rng.random() < c_density
    }
    links = {
        (i, j)
        for i in range(1, m + 1)
        for j in range(1, p + 1)
        if rng.random() < link_density
    }
    system = StructuredSystem(
        n=n, m=m, p=p,
        a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
    )
    return system, FeedbackPattern(frozenset(links))
