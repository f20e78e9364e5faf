"""Feedback-selection solvers.

Five routes to a pattern:

* ``solve_dp`` / ``dp_cover``: exact chain dynamic program for systems whose
  SCC DAG is a line (or has a line spanning path). ``dp_cover`` optimizes
  SCC coverage alone; ``solve_dp`` refuses a coverage optimum that fails
  cycle spanning, so every pattern it returns is optimal.
* ``min_cost_condition_b``: cheapest pattern that puts every state on a
  cycle, via minimum-cost perfect matching, certified by the matching.
* ``two_stage``: union of the two stages above; within a factor 2 of the
  optimum on line systems without a perfect matching.
* ``greedy_single_input``: weighted-set-cover greedy for single-input
  systems with one source SCC; logarithmic approximation factor.
* ``exact_oracle``: exhaustive enumeration over admissible links, used to
  validate the others at small sizes. Patterns are generated lazily from a
  heap, best-first by a lower bound on the cheapest pattern passing
  coverage in each subtree of the enumeration, and one pass finds both
  the coverage optimum and the optimum, ending at the first key past the
  optimum. The bound comes from two hitting constraints per state, read
  off the open-loop reachability tables (``sfm.CoverageKernel``); a
  subtree that cannot meet them is never generated. With a zero bound the
  scan is the plain cheapest-first enumeration, and a pattern passing
  coverage is always keyed by its own cost, so the bound changes which
  patterns are visited, not the answers or their ties. Both feasibility
  conditions are monotone in the link set, so the full link set decides
  whether any pattern passes each: when it fails coverage the oracle
  answers without enumerating, and when it fails cycle spanning the pass
  ends just past the coverage optimum. Each pattern's coverage test is a
  few bit operations on the same tables.

``reduce_set_cover`` maps a weighted set cover instance to an equivalent
feedback-selection instance and doubles as a hard-instance generator.

Deterministic tie-breaking throughout: the chain DP's stage argmins
prefer the smaller total, then the smaller first-actuated stage, then the
smaller input, then the cheaper link, then the smaller output; the oracle
ranks patterns by ``cost_of`` and resolves equal-cost optima by
lexicographic pattern comparison; the cycle-stage matching scans its rows
in sorted order and breaks heap ties by vertex index.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Iterator, Optional

from .graphs import (
    Condensation,
    condense,
    min_cost_perfect_matching,
    missing_path_links,
)
from .model import (
    INF,
    CostMatrix,
    DimensionError,
    Edge,
    FeedbackPattern,
    PreconditionError,
    SetCoverInstance,
    StructuredSystem,
    cost_of,
)
from .sfm import (
    CoverageKernel,
    _has_cycle_family,
    _has_state_perfect_matching,
    check_no_sfm,
)


class BudgetExceededError(ValueError):
    """The exhaustive oracle refused an instance with too many candidate links."""


_NO_FEASIBLE_PATTERN = "no feasible pattern exists (optimal cost is infinite)"

# Hard cap on the oracle's admissible links, whatever the budget. The
# coverage bound prunes optima that coverage makes costly: on 12-element
# set covers whose last element only a weight-1000 set holds, k=20 and
# k=24 take 13-34 ms at 16 MB peak RSS (7 s and 92 MB at k=20 without the
# bound; CPython 3.11.7, 2-vCPU Intel Xeon). An optimum made costly by
# cycle spanning alone is not bounded, and may still cost a scan of most
# of the 2^k patterns.
MAX_ORACLE_LINKS = 24


@dataclass(frozen=True, eq=False)
class Solution:
    """A solver outcome: the selected pattern, its cost, and provenance."""

    pattern: FeedbackPattern
    cost: float
    method: str
    reason: Optional[str] = None
    certificates: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not math.isinf(self.cost)


def _infeasible(method: str, reason: str, certificates: Optional[dict] = None) -> Solution:
    return Solution(
        pattern=FeedbackPattern(),
        cost=INF,
        method=method,
        reason=reason,
        certificates=certificates or {},
    )


def _check_incidence_ranges(condensation: Condensation, costs: CostMatrix) -> None:
    # An empty matrix carries no column count, and no link can exist, so
    # its outputs go unchecked. Each side is one test over its chained
    # incidence; only a side that fails it is walked, to name the first
    # offender.
    sides = [("input u", "m", costs.m, condensation.input_incidence)]
    if costs.m:
        sides.append(("output y", "p", costs.p, condensation.output_incidence))
    for vertex, size, top, incidence in sides:
        entries = frozenset().union(*incidence)
        if entries and not (min(entries) >= 1 and max(entries) <= top):
            first = next(x for xs in incidence for x in xs if not 1 <= x <= top)
            raise DimensionError(f"{vertex}{first} outside cost matrix with {size}={top}")


def _first_ten(pairs: list[Edge]) -> str:
    """``pairs`` as a list, cut after the first 10 with the total named when longer."""
    return str(pairs) if len(pairs) <= 10 else f"{str(pairs[:10])[:-1]}, ...] ({len(pairs)} in all)"


def _require_line_order(condensation: Condensation) -> None:
    missing = missing_path_links(condensation)
    if missing:
        raise PreconditionError(
            "SCC DAG admits no line spanning path; consecutive SCC pairs without an "
            f"edge: {_first_ten(missing)}; DAG edges: {_first_ten(sorted(condensation.dag_edges))}"
        )


def _by_stage(incidence: tuple[frozenset[int], ...]) -> Iterator[tuple[int, frozenset[int]]]:
    """(k, set) for the non-empty sets, k counted from 1; the empty ones are skipped in C."""
    return zip(compress(range(1, len(incidence) + 1), incidence), filter(None, incidence))


def dp_cover(condensation: Condensation, costs: CostMatrix) -> Solution:
    """Cheapest pattern putting every SCC of a chain in a feedback cycle.

    An admissible link (i, j) closes a cycle through exactly the SCCs from
    the first one u_i actuates to the last one y_j senses: an interval of
    the chain. Stage k covers SCCs 1..k as cheaply as possible, with the
    cheapest link whose interval contains k on top of the stage just
    before that interval starts. The sweep walks k left to right; a link
    enters one heap, keyed by that sum, at its interval's start and is
    dropped once the interval has ended, so the heap top is stage k's
    argmin. An empty heap names the first SCC no link covers, and every
    later stage stays unreachable. Backtracking from the last stage yields
    the selected pattern.

    The top changes only at an event: a stage where some input is first
    actuated, or the stage after the top's interval ends. So the sweep
    jumps from event to event, and the stages between share one cost and
    one argmin. After the condensation it costs O(m * p + events * log L)
    Python steps, L the admissible links, whatever the chain's length l.

    The stage table is certified as ``dp_table``: ``{"runs": runs}``, runs
    ``(first, last, cost, input, output, predecessor)`` tiling stages 0..l,
    each a maximal run of stages that share one cost (the cheapest cover of
    SCCs 1..k, inf if unreachable) and one argmin link (u_input, y_output)
    on top of stage ``predecessor``; None for no link (stage 0, unreachable).

    Dominance: an input's links all start at the same stage on the same
    prior stage, so among them the smaller (cost, output) has the smaller
    key. Walking the outputs by interval end, latest first, a link is
    pushed only when its (cost, output) beats every link of the same input
    walked before it, all of which reach at least as far. A skipped link
    thus has a smaller-keyed twin in the heap for its whole life and could
    never be the top, so the tables and their ties are those of pushing
    every link.
    """
    _require_line_order(condensation)
    _check_incidence_ranges(condensation, costs)
    ell = condensation.scc_count

    # Last chain position each output senses, latest first; outputs sensing
    # nothing, like inputs actuating nothing, close no cycle.
    last_stage: dict[int, int] = {}
    for k, outputs in _by_stage(condensation.output_incidence):
        for j in outputs:
            last_stage[j] = k
    reach = sorted(last_stage.items(), key=itemgetter(1), reverse=True)
    # The inputs first actuated at each stage, by stage.
    fresh: dict[int, frozenset[int]] = {}
    actuated: set[int] = set()
    for k, inputs in _by_stage(condensation.input_incidence):
        if not actuated.issuperset(inputs):
            fresh[k] = inputs - actuated
            actuated |= inputs
    starts = [*fresh, ell + 1]

    runs: list[tuple] = [(0, 0, 0, None, None, None)]
    # The link cost sits before the output in the key, so each input keeps
    # its (cost, output) argmin even when float rounding ties two totals.
    heap: list[tuple[float, int, int, float, int, int]] = []
    k, e = 1, 0
    while k <= ell:
        if k == starts[e]:
            prior = runs[-1][2]
            for i in fresh[k]:
                row = costs.rows[i - 1]
                best_cost, best_j = INF, 0  # so forbidden links are never pushed
                for j, last in reach:
                    if last < k:
                        break
                    cost = row[j - 1]
                    if cost < best_cost or (cost == best_cost and j < best_j):
                        best_cost, best_j = cost, j
                        heapq.heappush(heap, (cost + prior, k, i, cost, j, last))
            e += 1
        while heap and heap[0][5] < k:
            heapq.heappop(heap)
        if not heap:
            runs.append((k, ell, INF, None, None, None))
            return _infeasible(
                "dp",
                f"SCC coverage unachievable: no admissible feedback link covers SCC {k}",
                {"dp_table": {"runs": tuple(runs)}},
            )
        total, start, i, _, j, last = heap[0]
        end = min(last + 1, starts[e])  # the next event
        if runs[-1][2:] == (total, i, j, start - 1):  # the last run goes on
            k = runs.pop()[0]
        runs.append((k, end - 1, total, i, j, start - 1))
        k = end

    links: set[Edge] = set()
    k = ell
    for first, _, _, i, j, predecessor in reversed(runs):
        if k and first <= k:  # the run holding stage k
            links.add((i, j))
            k = predecessor
    pattern = FeedbackPattern(frozenset(links))
    return Solution(
        pattern=pattern,
        cost=cost_of(pattern, costs),
        method="dp",
        certificates={"dp_table": {"runs": tuple(runs)}},
    )


def solve_dp(system: StructuredSystem, costs: CostMatrix) -> Solution:
    """Chain dynamic program on a full system description; every answer is optimal.

    Coverage alone is a relaxation, so its optimum is the optimum whenever
    it spans the states with cycles, as every pattern does given a state
    perfect matching. Without one, a feasible coverage optimum is tested
    once: it is certified ``condition_b_checked`` or raises PreconditionError.
    """
    costs.require_matches(system)
    solution = dp_cover(condense(system), costs)
    if not _has_state_perfect_matching(system) and solution.feasible:
        links = solution.pattern.sorted_links()
        if not _has_cycle_family(system.loop_rows(links)):
            raise PreconditionError(f"no state perfect matching, and the coverage optimum {links} "
                                    "fails cycle spanning; solve-two-stage handles this case")
        solution.certificates["condition_b_checked"] = True
    return solution


def min_cost_condition_b(system: StructuredSystem, costs: CostMatrix) -> Solution:
    """Cheapest pattern that spans every state with disjoint cycles.

    Matches on the system's closed-loop bipartite rows with every
    admissible link. A link adds u'_i - y_j to input row u'_i, whose
    base is u'_i - u_i alone, so each such row is built from cost row i:
    u_i, then each admissible y_j in order, costed 0 and then the links'
    costs. Other rows are the system's ``loop_rows``, at cost 0, with the
    unused vertex 0 matched to itself. The pattern is read off the input
    rows matched to outputs in a minimum-cost perfect matching, certified as
    ``matching``: the matched id per vertex id v', 0 at the unused 0. With a
    state perfect matching the warm start is already perfect and no
    shortest path runs; the certificates count the shortest paths as
    ``augmentations``.
    """
    costs.require_matches(system)
    n, m = system.n, system.m
    rows, weights = system.loop_rows(), [None] * (system.vertex_count + 1)
    rows[0] = [0]
    for i, row in enumerate(costs.rows, start=1):
        admissible = [j for j, c in enumerate(row, start=1) if c != INF]
        if admissible:
            rows[n + i] = [n + i] + [n + m + j for j in admissible]
            weights[n + i] = [0] + [row[j - 1] for j in admissible]
    stats: dict = {}
    result = min_cost_perfect_matching(rows, weights, stats)
    if result is None:
        return _infeasible(
            "matching",
            "cycle spanning unachievable even with every admissible link "
            "(arbitrary pole placement impossible)",
            {"augmentations": stats["augmentations"]},
        )
    match_left, total = result
    matched = enumerate(match_left[n + 1 : n + m + 1], start=1)
    pattern = FeedbackPattern(frozenset((i, r - n - m) for i, r in matched if r > n + m))
    cost = cost_of(pattern, costs)
    if cost != total:
        raise AssertionError(f"matching cost {total} != pattern cost {cost}")
    return Solution(
        pattern=pattern,
        cost=cost,
        method="matching",
        certificates={
            "matching": tuple(match_left),
            "matching_cost": total,
            "augmentations": stats["augmentations"],
        },
    )


def two_stage(system: StructuredSystem, costs: CostMatrix) -> Solution:
    """Coverage stage plus cycle-spanning stage; their union is 2-optimal.

    Each stage alone is a lower bound on the optimum, so the union costs
    at most twice the optimum; it is feasible whenever both stages are.
    """
    costs.require_matches(system)
    stage_a = dp_cover(condense(system), costs)
    stage_b = min_cost_condition_b(system, costs)
    certificates = {"stage_a": stage_a, "stage_b": stage_b}
    if not stage_a.feasible:
        return _infeasible("two-stage", f"coverage stage infeasible: {stage_a.reason}", certificates)
    if not stage_b.feasible:
        return _infeasible("two-stage", f"cycle stage infeasible: {stage_b.reason}", certificates)
    pattern = stage_a.pattern.union(stage_b.pattern)
    return Solution(
        pattern=pattern,
        cost=cost_of(pattern, costs),
        method="two-stage",
        certificates=certificates,
    )


# ---------------------------------------------------------------------------
# set cover: reduction in, greedy out


def reduce_set_cover(instance: SetCoverInstance) -> tuple[StructuredSystem, CostMatrix]:
    """Encode a weighted set cover instance as a feedback-selection instance.

    States 1..N mirror the universe plus a hub state N+1; every state has a
    self-loop and the hub feeds all others. The single input drives the
    hub, output y_i senses exactly the states in set i, and feeding y_i
    back costs that set's weight. A pattern is feasible exactly when its
    selected sets cover the universe, with equal cost.
    """
    big_n = instance.universe_size
    a_edges = {(i, i) for i in range(1, big_n + 2)} | {
        (i, big_n + 1) for i in range(1, big_n + 1)
    }
    b_edges = {(big_n + 1, 1)}
    c_edges = {(i, j) for i, s in enumerate(instance.sets, start=1) for j in s}
    system = StructuredSystem(
        n=big_n + 1, m=1, p=instance.set_count,
        a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
    )
    costs = CostMatrix.from_rows([list(instance.weights)])
    return system, costs


class _Ratio:
    """A set's weight per newly covered element, compared exactly; ties by index."""

    __slots__ = ("num", "den", "new", "per", "idx")

    def __init__(self, w: float, new: int, idx: int) -> None:
        self.num, self.den = w.as_integer_ratio()
        self.idx = idx
        self.count(new)

    def count(self, new: int) -> None:
        self.new, self.per = new, self.den * new

    def __lt__(self, other: _Ratio) -> bool:
        # num / per < other.num / other.per, per = den * new, in ints
        left, right = self.num * other.per, other.num * self.per
        return left < right or (left == right and self.idx < other.idx)


def greedy_set_cover(
    instance: SetCoverInstance,
) -> tuple[list[int], float, list[tuple[int, int, float]]]:
    """Greedy weighted set cover: repeatedly take the best weight-per-new-element set.

    Returns (picked set indices in pick order, total weight, trace); each
    trace entry is (set index, newly covered count, weight). Ratios are
    compared exactly, by cross-multiplying the weights' integer ratios, so
    no division or float rounding is involved; ties prefer the smaller set
    index.

    Lazy greedy (Minoux 1978): one heap of the sets keyed by their ratios.
    A set's count only falls as others are picked, so a stale key is never
    worse than the set's ratio; the top is recounted, and picked once its
    count is fresh, re-pushed with a fresh count otherwise, dropped at 0.
    """
    sets, weights = instance.sets, instance.weights
    uncovered = set(range(1, instance.universe_size + 1))
    heap = [_Ratio(w, len(s), idx) for idx, (s, w) in enumerate(zip(sets, weights), start=1)]
    heapq.heapify(heap)
    picked: list[int] = []
    trace: list[tuple[int, int, float]] = []
    total: float = 0
    while uncovered:
        top = heap[0]
        new = len(sets[top.idx - 1] & uncovered)
        if new != top.new:
            if new:
                top.count(new)
                heapq.heapreplace(heap, top)
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        w = weights[top.idx - 1]
        picked.append(top.idx)
        trace.append((top.idx, new, w))
        total += w
        uncovered -= sets[top.idx - 1]
    return picked, total, trace


def greedy_single_input(system: StructuredSystem, costs: CostMatrix) -> Solution:
    """Set-cover greedy for single-input systems with one source SCC.

    Cycle spanning is free here (perfect matching required up front), so
    only SCC coverage matters, and every sink SCC must be sensed by some
    fed-back output. That is a covering problem over the sink SCCs with
    one candidate set per admissible output; the greedy cover maps back to
    feedback links on the single input.
    """
    costs.require_matches(system)
    condensation = condense(system)
    problems = []
    if system.m != 1:
        problems.append(f"requires a single input, got m={system.m}")
    if not _has_state_perfect_matching(system):
        problems.append("requires a perfect matching in the state bipartite graph")
    sources = condensation.non_top_linked_sccs()
    if len(sources) != 1:
        problems.append(f"requires exactly one source SCC, got {len(sources)}")
    if problems:
        raise PreconditionError("; ".join(problems))

    sinks = condensation.non_bottom_linked_sccs()
    sensed: list[list[int]] = [[] for _ in range(system.p + 1)]  # sink elements per output
    for e, scc in enumerate(sinks, start=1):
        for j in condensation.output_incidence[scc - 1]:
            sensed[j].append(e)

    candidate_sets: list[frozenset[int]] = []
    candidate_outputs: list[int] = []
    for j in range(1, system.p + 1):
        if sensed[j] and not math.isinf(costs.cost(1, j)):
            candidate_sets.append(frozenset(sensed[j]))
            candidate_outputs.append(j)

    covered = frozenset().union(*candidate_sets)
    missing_sccs = [scc for e, scc in enumerate(sinks, start=1) if e not in covered]
    if missing_sccs:
        return _infeasible(
            "greedy",
            f"sink SCCs {missing_sccs} are sensed by no admissible output; no pattern is feasible",
        )

    cover_instance = SetCoverInstance(
        universe_size=len(sinks),
        sets=tuple(candidate_sets),
        weights=tuple(costs.cost(1, j) for j in candidate_outputs),
    )
    picked, _, trace = greedy_set_cover(cover_instance)
    pattern = FeedbackPattern(frozenset((1, candidate_outputs[idx - 1]) for idx in picked))
    verdict = check_no_sfm(system, pattern)
    certificates = {
        "sink_sccs": sinks,
        "cover_outputs": sorted(candidate_outputs[idx - 1] for idx in picked),
        "trace": [(candidate_outputs[idx - 1], new, w) for idx, new, w in trace],
    }
    if not verdict.feasible:
        return _infeasible(
            "greedy",
            "covering every sink SCC does not close the loop "
            f"({verdict.describe()}); the input likely fails to actuate the source SCC",
            certificates,
        )
    return Solution(
        pattern=pattern,
        cost=cost_of(pattern, costs),
        method="greedy",
        certificates=certificates,
    )


# ---------------------------------------------------------------------------
# exhaustive oracle


def _subsets_by_cost(
    link_costs: list[float], hits: list[int]
) -> Iterator[tuple[float, float, int]]:
    """Yield (key, cost, mask) for link subsets, best-first by a lower bound.

    Bit b of the mask selects link b, and bit h of ``hits[b]`` says that
    link b meets constraint h. A subset *qualifies* when it meets every
    constraint some link meets; the keys bound the qualifying subsets'
    costs from below, and each qualifying subset comes out keyed by its
    own cost.

    Best-first enumeration over the links sorted by (cost, index): a
    subset whose costliest sorted link is at position t has two children,
    one adding link t+1 and one swapping t for t+1. Every nonempty subset
    has exactly one parent, so the subtree of (mask, t) holds the subsets
    (mask - link t) | Y for every nonempty Y of positions >= t. Its key is
    the larger of its parent's key and base + max(cost[t], bound), where
    ``base`` is the cost of mask - link t and ``bound`` is a lower bound
    on what positions >= t must add to meet the constraints mask - link t
    leaves unmet; a subtree whose constraints no such Y meets is never
    pushed. Keys never decrease from parent to child, so popping a heap
    yields them in ascending order. Each pop pushes at most two entries, so
    the heap grows with the subsets yielded, not with 2^k. A subset's cost
    is its link costs summed cheapest first, which float rounding keeps
    monotone along every parent-child step.

    With no constraints every bound is 0, every key is the subset's cost,
    and every subset comes out once, cheapest first, equal costs by mask.
    """
    order = sorted(range(len(link_costs)), key=lambda b: (link_costs[b], b))
    cost = [link_costs[b] for b in order]
    bit = [1 << b for b in order]
    hit = [hits[b] for b in order]
    k = len(order)
    reach = [0] * (k + 1)  # constraints met by some link at position >= t
    for t in reversed(range(k)):
        reach[t] = reach[t + 1] | hit[t]
    required = reach[0]

    def bound(unmet: int, t: int) -> float:
        # A qualifying Y holds, for each unmet constraint, a link at
        # position >= t meeting it, and the first such link is the cheapest.
        # So Y holds a link costing at least A, the cost at the first
        # position by which every unmet constraint is met. Float addition
        # is monotone, so base + A never exceeds the subset's float cost,
        # and A needs no margin.
        # Y also meets all `count` constraints at no less than `ratio` per
        # constraint met, so in real arithmetic it costs at least
        # B = count * ratio. B's division and product may round up and the
        # subset's cost, a float sum, may round down; scaling B by
        # 1 - 1e-12 covers both, since base sums at most 23 links no
        # costlier than cost[t] <= B. The scale goes on before the product,
        # so B stays below Y's float cost and cannot overflow to inf, which
        # would read as "no Y meets the constraints". Ratios below the
        # normal range carry no such relative error bound, so they give
        # B = 0.
        if not unmet:
            return 0
        if unmet & ~reach[t]:
            return INF
        count = unmet.bit_count()
        left, ratio, b = unmet, INF, t
        while left or cost[b] / count < ratio:
            gained = (hit[b] & unmet).bit_count()
            if gained:
                ratio = min(ratio, cost[b] / gained)
            if left:
                left &= ~hit[b]
                if not left:
                    least = cost[b]
            b += 1
            if b == k:
                break
        if ratio < sys.float_info.min:
            return least
        return max(least, count * (ratio * (1 - 1e-12)))

    yield 0, 0, 0
    heap: list[tuple[float, int, int, float, float, int]] = []

    def push(parent_key: float, mask: int, t: int, base: float, met: int) -> None:
        # (mask, t) with base = cost and met = constraints of mask - link t
        extra = bound(required & ~met, t)
        if extra != INF:
            key = max(parent_key, base + max(cost[t], extra))
            heapq.heappush(heap, (key, mask, t, base, base + cost[t], met))

    if k:
        push(0, bit[0], 0, 0, 0)
    while heap:
        key, mask, t, base, c, met = heapq.heappop(heap)
        yield key, c, mask
        if t + 1 < k:
            push(key, mask | bit[t + 1], t + 1, c, met | hit[t])
            push(key, (mask ^ bit[t]) | bit[t + 1], t + 1, base, met)


def exact_oracle(
    system: StructuredSystem, costs: CostMatrix, budget: int = 20
) -> Solution:
    """Exhaustive minimum over all patterns of admissible links.

    Takes subsets lazily in ascending key order (``_subsets_by_cost``), in
    one pass. A closed walk puts x_s in an SCC with a feedback edge, so a
    pattern passing condition (a) holds, for each state x_s, a link (i, j)
    with x_s in SQ[j] (the first feedback edge after x_s on that walk) and
    a link (i, j) with x_s in SR[i] (the last input before x_s). These
    hitting constraints give each subtree of the enumeration a lower bound:
    the costliest cheapest link of a constraint left unmet, or the number
    of unmet constraints times the least cost per constraint a link meets,
    whichever is larger, with the second scaled down so that float
    rounding never lifts it above an optimum. Subtrees that cannot meet
    the constraints are dropped. A pattern passing (a) comes out keyed by
    its own cost, so the ones passing (a) still arrive in cost order; with
    a zero bound every key is the cost, and the scan is the plain
    cheapest-first one, so the bound changes neither answers nor ties.

    The cheapest subset to pass (a) is the coverage-only optimum, which the
    certificates expose for validating the chain dynamic program, and the
    cheapest to pass both is the optimum. Condition (b) is tested only on
    masks that pass (a) and could still win. They are ranked by
    ``cost_of`` (the report's sum, in link order), equal costs by the
    lexicographically smaller pattern. A key sums the costs cheapest
    first, within far less than a relative 2^-40 of that for 24 links, so
    the pass stops at the first key past the optimum (or the coverage
    optimum when no pattern passes (b)) times 1 + 2^-40, capped at the
    largest float. A costly optimum that
    only (b) forces is not bounded and may still cost most of the 2^k
    patterns. Refuses instances with more than ``budget`` admissible
    links, and any with more than ``MAX_ORACLE_LINKS``; a negative budget
    is a ``ValueError``.
    """
    if budget < 0:
        raise ValueError(
            f"enumeration budget must lie in 0..{MAX_ORACLE_LINKS} admissible links "
            f"(a larger one is capped), got {budget}"
        )
    costs.require_matches(system)
    links = costs.finite_links()
    n_links = len(links)
    limit = min(budget, MAX_ORACLE_LINKS)
    if n_links > limit:
        raise BudgetExceededError(
            f"{n_links} admissible links exceed the enumeration budget of {limit} "
            f"(2^{n_links} patterns); the budget can be raised up to {MAX_ORACLE_LINKS}"
        )

    certificates = {
        "admissible_links": n_links,
        "condition_a_cost": INF,
        "condition_a_pattern": FeedbackPattern(),
    }
    # Both conditions are monotone in the link set: a feedback edge only
    # merges SCCs and adds bipartite edges. So the full link set decides
    # whether any pattern passes each one.
    kernel = CoverageKernel(system)
    if kernel.uncovered_states(links):
        return _infeasible("exact", _NO_FEASIBLE_PATTERN, certificates)
    base_b_ok = _has_state_perfect_matching(system)
    full_b_ok = base_b_ok or _has_cycle_family(system.loop_rows(links))

    link_costs = [costs.cost(i, j) for i, j in links]
    # The hitting constraints of (a): bit s when x_s is in SQ[j], bit n + s
    # when x_s is in SR[i].
    hits = [kernel.SQ[j] | kernel.SR[i] << system.n for i, j in links]
    # The cheapest patterns passing (a), and (a) and (b), as link lists;
    # each list is sorted, since the links are lexicographic and the bits
    # ascend. No pattern cheaper than the first to pass (a) passes both.
    cover: Optional[list[Edge]] = None
    best: Optional[list[Edge]] = None
    cover_cost = best_cost = stop = INF
    for key, _, mask in _subsets_by_cost(link_costs, hits):
        if key > stop:
            break
        bits = [b for b in range(n_links) if mask >> b & 1]
        chosen = [links[b] for b in bits]
        if kernel.uncovered_states(chosen):
            continue
        c = 0
        for b in bits:  # cost_of's sum
            c += link_costs[b]
        if cover is None or (c, chosen) < (cover_cost, cover):
            cover_cost, cover = c, chosen
        # With a state perfect matching every pattern passes (b).
        if full_b_ok and (best is None or (c, chosen) < (best_cost, best)) and (
            base_b_ok or _has_cycle_family(system.loop_rows(chosen))
        ):
            best_cost, best = c, chosen
        stop = min((best_cost if full_b_ok else cover_cost) * (1 + 2**-40), sys.float_info.max)

    coverage_only = FeedbackPattern(frozenset(cover))
    certificates["condition_a_cost"] = cost_of(coverage_only, costs)
    certificates["condition_a_pattern"] = coverage_only
    if best is None:
        return _infeasible("exact", _NO_FEASIBLE_PATTERN, certificates)
    pattern = FeedbackPattern(frozenset(best))
    return Solution(
        pattern=pattern,
        cost=cost_of(pattern, costs),
        method="exact",
        certificates=certificates,
    )
