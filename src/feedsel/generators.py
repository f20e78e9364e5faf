"""Seed-deterministic random instance generators.

Every generator draws from a ``random.Random`` seeded by the caller, so a
fixed seed reproduces the instance bit for bit. Generators that promise
structural properties (line-shaped SCC DAG, perfect matching on or off,
full-pattern feasibility) verify them and redraw until they hold, which
keeps the output honest without biasing the common case.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Callable, Optional

from .fileio import MAX_SYSTEM_VERTICES
from .graphs import Condensation, condense, missing_path_links
from .model import CostMatrix, StructuredSystem, full_pattern
from .sfm import _has_state_perfect_matching, check_no_sfm

# Draws a generator makes before it gives up on its structural promises.
MAX_TRIES = 200
# Chance of each extra state edge inside an SCC, and of a second edge
# between consecutive SCCs, in line systems.
EXTRA_EDGE_PROB = 0.25
# Single-input systems: SCCs per branch, states per SCC, and link costs.
BRANCH_LENGTH_RANGE = (1, 2)
SINGLE_INPUT_SCC_SIZE_RANGE = (1, 2)
SINGLE_INPUT_COST_RANGE = (1, 100)

Instance = tuple[StructuredSystem, CostMatrix]


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _require_size(n: int, m: int, p: int) -> None:
    """Refuse n + m + p above ``parse_system``'s cap, or m * p above it, a cap of the generators alone."""
    if max(n + m + p, m * p) > MAX_SYSTEM_VERTICES:
        raise ValueError(
            f"instance too large: n + m + p up to {n + m + p} and {m * p} cost "
            f"entries; neither may exceed {MAX_SYSTEM_VERTICES}"
        )


def _partition(rng: random.Random, sizes: list[int]) -> tuple[list[int], list[list[int]]]:
    """Shuffle the state labels 1..sum(sizes) and split them into SCCs of ``sizes``."""
    labels = list(range(1, sum(sizes) + 1))
    rng.shuffle(labels)
    return labels, [labels[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def _add_cycle(rng: random.Random, a_edges: set[tuple[int, int]], states: list[int]) -> None:
    """Put ``states`` on one random cycle; a single state gets a self-loop."""
    cycle = rng.sample(states, len(states)) if len(states) > 1 else states
    for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
        a_edges.add((head, tail))


def _incidence(rng: random.Random, labels: list[int], count: int) -> list[tuple[int, int]]:
    """Pairs (state, k) joining each input or output k <= ``count`` to one or two random states."""
    return [
        (state, k)
        for k in range(1, count + 1)
        for state in rng.sample(labels, min(len(labels), rng.randint(1, 2)))
    ]


def _redraw(
    draw: Callable[[], Instance],
    shape_ok: Callable[[Condensation], bool],
    perfect_matching: bool = True,
) -> Instance:
    """First of ``MAX_TRIES`` draws whose SCC DAG passes ``shape_ok``, whose state matching is
    perfect exactly when ``perfect_matching`` asks, and whose full pattern is feasible."""
    for _ in range(MAX_TRIES):
        system, costs = draw()
        if (
            shape_ok(condense(system))
            and _has_state_perfect_matching(system) == perfect_matching
            and check_no_sfm(system, full_pattern(costs)).feasible
        ):
            return system, costs
    raise RuntimeError(f"no admissible instance found in {MAX_TRIES} draws")


def random_line_system(
    seed,
    *,
    scc_count: int = 4,
    scc_size_range: tuple[int, int] = (1, 3),
    n_inputs: int = 3,
    n_outputs: int = 3,
    cost_range: tuple[int, int] = (1, 100),
    perfect_matching: bool = True,
) -> Instance:
    """Random system whose SCC DAG is exactly a chain C_1 -> ... -> C_scc_count.

    With ``perfect_matching`` each SCC is built on a state cycle, so every
    state sits on a cycle. Without it, one SCC is built as a hub-and-spoke
    that is strongly connected but has no spanning cycle family, which
    removes the perfect matching; one spoke gets an input and an output so
    feedback can repair the deficit. All generated instances are feasible
    under the full pattern, and costs are integers in ``cost_range``.

    Raises ``ValueError`` before drawing anything when the largest system
    the arguments allow has n + m + p (which ``parse_system`` caps) or m * p
    (which only the generators cap) above ``fileio.MAX_SYSTEM_VERTICES``.
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
    _require_size((scc_count - 1) * hi + (hi if perfect_matching else 3), n_inputs, n_outputs)

    def draw() -> Instance:
        sizes = [rng.randint(lo, hi) for _ in range(scc_count)]
        victim = rng.randrange(scc_count) if not perfect_matching else -1
        if victim >= 0:
            # Hub-and-spoke needs >= 3 states; a bare single state also works.
            sizes[victim] = 1 if sizes[victim] == 1 else 3
        labels, scc_states = _partition(rng, sizes)

        a_edges: set[tuple[int, int]] = set()
        helper_state: Optional[int] = None
        for k, states in enumerate(scc_states):
            if k != victim:
                _add_cycle(rng, a_edges, states)
                for tail in states:
                    for head in states:
                        if tail != head and rng.random() < EXTRA_EDGE_PROB:
                            a_edges.add((head, tail))
            elif len(states) == 1:
                helper_state = states[0]  # bare vertex: no self-loop, no cycle
            else:
                hub, *spokes = rng.sample(states, len(states))
                for s in spokes:
                    a_edges.add((s, hub))
                    a_edges.add((hub, s))
                helper_state = spokes[-1]
        for k in range(scc_count - 1):
            tail = rng.choice(scc_states[k])
            head = rng.choice(scc_states[k + 1])
            a_edges.add((head, tail))
            if rng.random() < EXTRA_EDGE_PROB:
                a_edges.add((rng.choice(scc_states[k + 1]), rng.choice(scc_states[k])))

        b_edges = set(_incidence(rng, labels, n_inputs))
        b_edges.add((rng.choice(scc_states[0]), rng.randint(1, n_inputs)))
        c_edges = {(j, state) for state, j in _incidence(rng, labels, n_outputs)}
        c_edges.add((rng.randint(1, n_outputs), rng.choice(scc_states[-1])))
        if helper_state is not None:
            b_edges.add((helper_state, rng.randint(1, n_inputs)))
            c_edges.add((rng.randint(1, n_outputs), helper_state))

        system = StructuredSystem(
            n=len(labels), m=n_inputs, p=n_outputs,
            a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
        )
        costs = CostMatrix.from_rows(
            [[rng.randint(*cost_range) for _ in range(n_outputs)] for _ in range(n_inputs)]
        )
        return system, costs

    def is_line(c: Condensation) -> bool:
        # Every consecutive SCC pair joined, and no DAG edge beyond those.
        size_ok = c.scc_count == scc_count and len(c.dag_edges) == scc_count - 1
        return size_ok and not missing_path_links(c)

    return _redraw(draw, is_line, perfect_matching)


def random_single_input_system(seed, *, n_branches: int = 3) -> Instance:
    """Random single-input system with one source SCC and ``n_branches`` sinks.

    A root SCC fans out into branches of chained SCCs; every SCC is a state
    cycle, so the state bipartite graph has a perfect matching. The input
    drives the root and each sink SCC is sensed by at least one output, so
    the full pattern is feasible.

    Raises ``ValueError`` before drawing anything when the largest system
    the arguments allow (n <= 2 + 4 * n_branches, p <= n_branches + 2)
    would exceed ``fileio.MAX_SYSTEM_VERTICES``.
    """
    rng = _rng(seed)
    if n_branches < 1:
        raise ValueError("need at least one branch")
    lo, hi = SINGLE_INPUT_SCC_SIZE_RANGE
    _require_size(hi * (1 + BRANCH_LENGTH_RANGE[1] * n_branches), 1, n_branches + 2)

    def draw() -> Instance:
        scc_sizes = [rng.randint(lo, hi)]  # root first
        branch_sccs: list[range] = []
        for _ in range(n_branches):
            first = len(scc_sizes)
            scc_sizes += [rng.randint(lo, hi) for _ in range(rng.randint(*BRANCH_LENGTH_RANGE))]
            branch_sccs.append(range(first, len(scc_sizes)))
        labels, scc_states = _partition(rng, scc_sizes)

        a_edges: set[tuple[int, int]] = set()
        for states in scc_states:
            _add_cycle(rng, a_edges, states)
        for ids in branch_sccs:
            for previous, scc_id in zip([0, *ids], ids):  # SCC 0 is the root
                tail = rng.choice(scc_states[previous])
                a_edges.add((rng.choice(scc_states[scc_id]), tail))

        b_edges = {(rng.choice(scc_states[0]), 1)}
        p = n_branches + rng.randint(0, 2)
        c_edges = {(j, state) for state, j in _incidence(rng, labels, p)}
        # The sinks are disjoint, so one sensor added to a sink leaves the
        # others' test unchanged.
        sensed = {state for _, state in c_edges}
        for ids in branch_sccs:
            sink = scc_states[ids[-1]]
            if sensed.isdisjoint(sink):
                c_edges.add((rng.randint(1, p), rng.choice(sink)))

        system = StructuredSystem(
            n=len(labels), m=1, p=p,
            a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
        )
        costs = CostMatrix.from_rows([[rng.randint(*SINGLE_INPUT_COST_RANGE) for _ in range(p)]])
        return system, costs

    return _redraw(draw, lambda c: len(c.non_top_linked_sccs()) == 1)
