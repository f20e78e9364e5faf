"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: matching size
is recomputed by augmenting max-flow, SCCs by transitive closure, cycle
spanning by exhaustive subset-and-permutation search, set cover by full
enumeration, and min-cost matching by a dense O(n^3) assignment. They are
the ground truth the fast implementations are compared against.

The per-entry references keep the straightforward forms of code the
library runs faster: the input checks entry by entry, the condensation
from Tarjan's component lists with Kahn's heap on every graph,
Hopcroft-Karp with a BFS-and-DFS first phase, and again as it was with
its greedy first phase (float layers, nested closures), the cycle
stage's matcher rows overlaid link by link, the chain DP's sweep pushing
every admissible link, the min-cost matcher on (right, cost) tuple rows,
and the set-cover greedy scanning every set each round, in exact
rationals. Their results and messages must match exactly.

``random_system`` (unconstrained random systems with a random pattern)
and the set-cover queries ``is_cover`` and ``cover_weight`` serve only
tests, so they live here and not in the library.
"""

from __future__ import annotations

import collections
import heapq
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
import math
import random
import sys
from collections import deque
from itertools import combinations, permutations
from typing import Iterable, Iterator

import pytest
from hypothesis import strategies as st

from feedsel import (
    Condensation, CostMatrix, DimensionError, DpTable, FeedbackPattern, SetCoverInstance,
    StructuredSystem, full_pattern,
)
from feedsel.fileio import SchemaError
from feedsel.generators import _rng
from feedsel.model import INF


# ---------------------------------------------------------------------------
# reference instances


def section5_system() -> tuple[StructuredSystem, CostMatrix]:
    """Eleven-state chain: 3-loop, 2-loop, self-loop, 5-state hub cluster."""
    a = {
        (2, 1), (1, 2), (3, 2), (2, 3), (3, 3), (4, 3),
        (5, 4), (4, 5), (6, 5), (6, 6), (7, 6),
        (8, 7), (7, 8), (9, 8), (8, 9), (9, 9),
        (10, 8), (8, 10), (10, 10), (11, 8), (8, 11), (11, 11),
    }
    b = {(1, 1), (3, 2), (4, 2), (6, 3), (7, 3), (10, 4)}
    c = {(1, 2), (2, 6), (3, 9)}
    system = StructuredSystem(
        n=11, m=4, p=3,
        a_edges=frozenset(a), b_edges=frozenset(b), c_edges=frozenset(c),
    )
    costs = CostMatrix.from_rows([[2, 10, 100], [7, 8, 5], [9, 5, 50], [10, 11, 13]])
    return system, costs


def sink_only_input_system() -> tuple[StructuredSystem, CostMatrix]:
    """Source x1 -> sink x2, each on a self-loop; u1 actuates only x2, y1 senses x2."""
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 2), (2, 1)}),
        b_edges=frozenset({(2, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    return system, CostMatrix.from_rows([[5]])


def fig1_cover_instance() -> SetCoverInstance:
    return SetCoverInstance(
        universe_size=5,
        sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4, 5})),
        weights=(2, 3, 4),
    )


def costly_cover(k: int, costly_weights: tuple[float, ...]) -> SetCoverInstance:
    """A 12-element cover with k sets whose optimum needs a costly set.

    Elements 1..11 lie in k - len(costly_weights) cheap sets of three
    elements each, with weights 1..9 (seeded by k); element 12 lies only in
    the costly sets, each of which also holds two cheap elements. So every
    cover cheaper than the cheapest costly weight fails, and a scan in cost
    order alone visits most of the 2^k patterns before it finds one.
    """
    rng = random.Random(k)
    cheap = k - len(costly_weights)
    sets = [frozenset(rng.sample(range(1, 12), 3)) for _ in range(cheap)]
    sets[0] |= frozenset(range(1, 12)).difference(*sets)
    weights = tuple(rng.randint(1, 9) for _ in range(cheap)) + tuple(costly_weights)
    sets += [frozenset({12, *rng.sample(range(1, 12), 2)}) for _ in costly_weights]
    return SetCoverInstance(universe_size=12, sets=tuple(sets), weights=weights)


def random_system(
    seed,
    *,
    n: int,
    m: int,
    p: int,
    a_density: float = 0.25,
    b_density: float = 0.3,
    c_density: float = 0.3,
) -> tuple[StructuredSystem, FeedbackPattern]:
    """Unconstrained random system plus a random feedback pattern of link density 0.3."""
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
        if rng.random() < 0.3
    }
    system = StructuredSystem(
        n=n, m=m, p=p,
        a_edges=frozenset(a_edges), b_edges=frozenset(b_edges), c_edges=frozenset(c_edges),
    )
    return system, FeedbackPattern(frozenset(links))


@pytest.fixture
def section5():
    return section5_system()


@pytest.fixture
def fig1_cover():
    return fig1_cover_instance()


# ---------------------------------------------------------------------------
# brute-force oracles


def maxflow_matching_size(adjacency, n_left: int, n_right: int) -> int:
    """Maximum bipartite matching by Edmonds-Karp on the unit network."""
    source = 0
    sink = n_left + n_right + 1
    cap: dict[tuple[int, int], int] = collections.defaultdict(int)
    neighbors: dict[int, list[int]] = collections.defaultdict(list)

    def add(u: int, v: int) -> None:
        if v not in neighbors[u]:
            neighbors[u].append(v)
            neighbors[v].append(u)
        cap[(u, v)] += 1

    for u in range(n_left):
        add(source, 1 + u)
    for v in range(n_right):
        add(1 + n_left + v, sink)
    for u, row in enumerate(adjacency):
        for v in row:
            add(1 + u, 1 + n_left + v)

    flow = 0
    while True:
        parent: dict[int, int | None] = {source: None}
        queue = collections.deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in neighbors[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def scc_partition_by_closure(succ, n: int) -> set[frozenset[int]]:
    """SCCs via transitive closure (Floyd-Warshall), O(n^3)."""
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        reach[v][v] = True
        for w in succ[v]:
            reach[v][w] = True
    for k in range(1, n + 1):
        row_k = reach[k]
        for i in range(1, n + 1):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(1, n + 1):
                    if row_k[j]:
                        row_i[j] = True
    seen: set[int] = set()
    parts: set[frozenset[int]] = set()
    for v in range(1, n + 1):
        if v in seen:
            continue
        comp = frozenset(
            w for w in range(1, n + 1) if reach[v][w] and reach[w][v]
        )
        seen |= comp
        parts.add(comp)
    return parts


def _has_spanning_permutation(vertices: list[int], succ) -> bool:
    chosen = set(vertices)
    candidates = {v: [w for w in succ[v] if w in chosen] for v in vertices}
    order = sorted(vertices, key=lambda v: len(candidates[v]))
    used: set[int] = set()

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for w in candidates[v]:
            if w not in used:
                used.add(w)
                if backtrack(idx + 1):
                    return True
                used.remove(w)
        return False

    return backtrack(0)


def reference_successors(system: StructuredSystem, pattern: FeedbackPattern) -> list[list[int]]:
    """Closed-loop successor lists built edge family by edge family.

    Independent of the system's own rows: states are 1..n, inputs
    n+1..n+m, outputs n+m+1..n+m+p, and entry 0 is unused.
    """
    n, m = system.n, system.m
    succ: list[list[int]] = [[] for _ in range(n + m + system.p + 1)]
    for i, j in system.a_edges:
        succ[j].append(i)
    for i, j in system.b_edges:
        succ[n + j].append(i)
    for i, j in system.c_edges:
        succ[j].append(n + m + i)
    for i, j in pattern.links:
        succ[n + m + j].append(n + i)
    return succ


def reference_state_rows(system: StructuredSystem) -> list[list[int]]:
    """Row i: the sorted j of the a_edges (i, j), built edge by edge; row 0 unused."""
    return [[]] + [sorted(j for i, j in system.a_edges if i == l) for l in range(1, system.n + 1)]


def reference_loop_rows(system: StructuredSystem) -> list[list[int]]:
    """The link-free loop rows from ``reference_successors``: sorted predecessors per vertex,
    each input and output row ending in the vertex itself."""
    pred: list[list[int]] = [[] for _ in range(system.n + system.m + system.p + 1)]
    for tail, heads in enumerate(reference_successors(system, FeedbackPattern())):
        for head in heads:
            pred[head].append(tail)
    return [sorted(row) + ([v] if v > system.n else []) for v, row in enumerate(pred)]


def reference_state_bipartite_rows(system: StructuredSystem) -> list[list[int]]:
    """The state bipartite rows as ``state_bipartite`` once built them: the ``loop_rows`` of the
    system stripped of its inputs and outputs, shifted down to 0-based ids."""
    rows = StructuredSystem(system.n, 0, 0, system.a_edges).loop_rows()
    return [[j - 1 for j in row] for row in rows[1:]]


def spanning_cycle_family_exists(system: StructuredSystem, pattern: FeedbackPattern) -> bool:
    """Exhaustive search for vertex-disjoint cycles covering every state.

    Tries every subset of input/output vertices as cycle participants and
    asks for a successor permutation on states plus that subset.
    """
    n = system.n
    total = n + system.m + system.p
    succ = reference_successors(system, pattern)
    auxiliary = list(range(n + 1, total + 1))
    states = list(range(1, n + 1))
    for r in range(len(auxiliary) + 1):
        for extra in combinations(auxiliary, r):
            if _has_spanning_permutation(states + list(extra), succ):
                return True
    return False


def _chosen(instance: SetCoverInstance, selected: Iterable[int]) -> set[int]:
    """The distinct 1-based set indices in ``selected``, each checked in range."""
    chosen = set(selected)
    for idx in chosen:
        if not 1 <= idx <= instance.set_count:
            raise DimensionError(f"set index {idx} out of range 1..{instance.set_count}")
    return chosen


def cover_weight(instance: SetCoverInstance, selected: Iterable[int]) -> float:
    """Total weight of the 1-based set indices in ``selected``."""
    total: float = 0
    for idx in _chosen(instance, selected):
        total += instance.weights[idx - 1]
    return total


def is_cover(instance: SetCoverInstance, selected: Iterable[int]) -> bool:
    covered = frozenset().union(*(instance.sets[idx - 1] for idx in _chosen(instance, selected)))
    return covered == set(range(1, instance.universe_size + 1))


def brute_force_set_cover(instance: SetCoverInstance) -> tuple[float, frozenset[int]]:
    """Optimal weighted cover by enumerating all subsets of sets."""
    best_weight = None
    best_sets: frozenset[int] = frozenset()
    indices = range(1, instance.set_count + 1)
    for r in range(instance.set_count + 1):
        for subset in combinations(indices, r):
            if is_cover(instance, subset):
                weight = cover_weight(instance, subset)
                if best_weight is None or weight < best_weight:
                    best_weight = weight
                    best_sets = frozenset(subset)
    assert best_weight is not None
    return best_weight, best_sets


def reference_greedy_set_cover(
    instance: SetCoverInstance,
) -> tuple[list[int], float, list[tuple[int, int, float]]]:
    """The greedy as a full scan per round: every set recounted, the first best kept.

    A set replaces the best so far only when ``w * best_new < best_w * new``
    in exact rationals, so ties keep the smaller index. Where every float
    product is exact, this is the scan the library ran before its heap.
    """
    uncovered = set(range(1, instance.universe_size + 1))
    picked: list[int] = []
    trace: list[tuple[int, int, float]] = []
    total: float = 0
    while uncovered:
        best_idx = -1
        best_w: float = 0
        best_new = 0
        for idx in range(1, instance.set_count + 1):
            new = len(instance.sets[idx - 1] & uncovered)
            if new == 0:
                continue
            w = instance.weights[idx - 1]
            if best_idx == -1 or Fraction(w) * best_new < Fraction(best_w) * new:
                best_idx, best_w, best_new = idx, w, new
        picked.append(best_idx)
        trace.append((best_idx, best_new, best_w))
        total += best_w
        uncovered -= instance.sets[best_idx - 1]
    return picked, total, trace


def covering_edge_set(condensation, costs, k: int) -> frozenset[tuple[int, int]]:
    """All admissible feedback links that cover SCC k.

    A link (i, j) covers SCC k when input u_i actuates some SCC at or
    before k and output y_j senses some SCC at or after k: the feedback
    edge then closes a cycle through the whole stretch including SCC k.
    """
    inputs = frozenset().union(*condensation.input_incidence[:k])
    outputs = frozenset().union(*condensation.output_incidence[k - 1:])
    return frozenset(
        (i, j) for i in inputs for j in outputs if not math.isinf(costs.cost(i, j))
    )


def reference_dp_cover(condensation, costs) -> tuple[DpTable, FeedbackPattern]:
    """The chain DP's stage table and pattern, every admissible link pushed.

    The interval sweep of ``dp_cover`` without its dominance rule: each
    newly actuated input pushes a heap entry for every output sensing at or
    after the current stage. The pattern is empty when some SCC stays
    uncovered.
    """
    last_stage: dict[int, int] = {}
    for k, incidence in enumerate(condensation.output_incidence, start=1):
        for j in incidence:
            last_stage[j] = k
    ell = condensation.scc_count
    stage_costs: list[float] = [0] + [math.inf] * ell
    choices: list = [None] * (ell + 1)
    heap: list = []
    actuated: set[int] = set()
    for k, inputs in enumerate(condensation.input_incidence, start=1):
        prior = stage_costs[k - 1]
        for i in inputs - actuated:
            row = costs.rows[i - 1]
            for j, last in last_stage.items():
                cost = row[j - 1]
                if last >= k and cost != math.inf:
                    heapq.heappush(heap, (cost + prior, k, i, cost, j, last))
        actuated |= inputs
        while heap and heap[0][5] < k:
            heapq.heappop(heap)
        if not heap:
            break
        total, start, i, _, j, _ = heap[0]
        stage_costs[k] = total
        choices[k] = (i, j, start - 1)
    links = set()
    k = ell if stage_costs[ell] != math.inf else 0
    while k > 0:
        i, j, k = choices[k]
        links.add((i, j))
    return DpTable(stage_costs=tuple(stage_costs), choices=tuple(choices)), FeedbackPattern(frozenset(links))


def naive_pattern_optimum(system, costs, predicate) -> tuple[float, FeedbackPattern] | None:
    """Minimum-cost pattern among all subsets of admissible links.

    Plain itertools enumeration over the public checkers; ties go to the
    lexicographically smallest pattern, mirroring the solver contract.
    """
    links = costs.finite_links()
    best: tuple[float, tuple] | None = None
    for r in range(len(links) + 1):
        for chosen in combinations(links, r):
            pattern = FeedbackPattern(frozenset(chosen))
            if not predicate(system, pattern):
                continue
            from feedsel import cost_of

            key = (cost_of(pattern, costs), tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[0], FeedbackPattern(frozenset(best[1]))


def brute_force_min_cost_perfect_matching(cost_rows) -> tuple[float, tuple[int, ...]] | None:
    """Optimal assignment by enumerating all permutations (tiny sizes only)."""
    n = len(cost_rows)
    best = None
    best_perm: tuple[int, ...] = ()
    for perm in permutations(range(n)):
        total = 0.0
        ok = True
        for i, j in enumerate(perm):
            c = cost_rows[i][j]
            if c == float("inf"):
                ok = False
                break
            total += c
        if ok and (best is None or total < best):
            best = total
            best_perm = perm
    if best is None:
        return None
    return best, best_perm


def dense_min_cost_assignment(cost: list[list[float]]) -> tuple[list[int], float] | None:
    """Square min-cost assignment by the dense Hungarian method, O(n^3).

    ``cost[i][j]`` is inf for absent edges. Returns (column per row, total)
    or None when no perfect matching over finite-cost edges exists.
    """
    n = len(cost)
    if n == 0:
        return [], 0
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    assigned_row = [0] * (n + 1)  # row matched to each column; 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        assigned_row[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = assigned_row[j0]
            delta = math.inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if delta == math.inf:
                return None  # every remaining column is unreachable
            for j in range(n + 1):
                if used[j]:
                    u[assigned_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if assigned_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1
    columns = [-1] * n
    for j in range(1, n + 1):
        if assigned_row[j]:
            columns[assigned_row[j] - 1] = j - 1
    total = sum(cost[i][columns[i]] for i in range(n))
    return columns, total


def dense_cost_rows(rows) -> list[list[float]]:
    """The square cost matrix of (right vertex, cost) rows, inf where there is no edge."""
    dense = [[math.inf] * len(rows) for _ in rows]
    for l, row in enumerate(rows):
        for r, c in row:
            dense[l][r] = c
    return dense


def closed_loop_cost_rows(
    system: StructuredSystem, costs: CostMatrix
) -> list[list[tuple[int, float]]]:
    """Closed-loop bipartite cost rows over every admissible link.

    Built from ``reference_successors``, not the system's rows: row v - 1
    holds (w - 1, cost) for each edge w -> v, plus (v - 1, 0) on inputs and
    outputs. A feedback edge y_j -> u_i costs link (i, j), every other edge
    0, and each row is sorted by right vertex.
    """
    n, m = system.n, system.m
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n + m + system.p)]
    for tail, heads in enumerate(reference_successors(system, full_pattern(costs))):
        for head in heads:
            cost = costs.cost(head - n, tail - n - m) if tail > n + m else 0
            rows[head - 1].append((tail - 1, cost))
    for v in range(n, len(rows)):
        rows[v].append((v, 0))
    return [sorted(row) for row in rows]


# ---------------------------------------------------------------------------
# per-entry references


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def reference_edge_set(name: str, edges, rows: int | None = None, cols: int = 0):
    """``model._edge_set`` entry by entry: (frozen pairs, sorted out-of-range pairs)."""
    frozen: set[tuple[int, int]] = set()
    outside: set[tuple[int, int]] = set()
    for entry in edges:
        i, j = entry if isinstance(entry, (tuple, list)) and len(entry) == 2 else (None, None)
        if not (_is_int(i) and _is_int(j)):
            raise ValueError(f"field '{name}': entry {entry!r} is not an integer pair")
        if rows is not None and not (1 <= i <= rows and 1 <= j <= cols):
            outside.add((i, j))
        frozen.add((i, j))
    return frozenset(frozen), sorted(outside)


def reference_cost_rows(raw_rows) -> tuple[tuple, ...]:
    """The rows ``CostMatrix`` stores, checked entry by entry, or its error."""
    rows = tuple(tuple(row) for row in raw_rows)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DimensionError(f"cost matrix is ragged: row widths {sorted(widths)}")
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row, start=1):
            if not (isinstance(entry, (int, float)) and not isinstance(entry, bool)):
                raise ValueError(f"cost entry ({i}, {j}) must be a number or \"inf\", got {entry!r}")
            if not (entry >= 0):
                raise ValueError(f"cost entry ({i}, {j}) must be >= 0, got {entry!r}")
    try:
        overflow = sum(entry for row in rows for entry in row if entry != math.inf) > sys.float_info.max
    except OverflowError:
        overflow = True
    if overflow:
        raise ValueError(
            "the finite cost entries sum beyond the largest float, "
            "so pattern costs would overflow to inf; scale the costs down"
        )
    return rows


def _reference_cost_entry(value, i: int, j: int):
    if isinstance(value, str):
        if value.lower() == "inf":
            return math.inf
        raise SchemaError(f"cost entry ({i}, {j}): unknown literal {value!r}; use \"inf\"")
    if value == math.inf:
        raise SchemaError(
            f"cost entry ({i}, {j}) is not finite, got {value!r}; use \"inf\" to forbid a link"
        )
    if isinstance(value, int) and value > sys.float_info.max:
        raise SchemaError(f"cost entry ({i}, {j}) is an integer beyond the float range")
    return value


def reference_parsed_cost_rows(raw_cost) -> tuple[tuple, ...]:
    """The cost rows ``parse_system`` yields for a well-shaped ``cost`` field, read entry by entry."""
    rows = [
        [_reference_cost_entry(value, i, j) for j, value in enumerate(row, start=1)]
        for i, row in enumerate(raw_cost, start=1)
    ]
    try:
        return reference_cost_rows(rows)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def reference_strongly_connected_components(succ) -> list[list[int]]:
    """Tarjan's algorithm returning the component lists in emission order."""
    index = [0] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 1
    for root in range(1, len(succ)):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, neighbors = work[-1]
            for w in neighbors:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    sccs.append(component)
    return sccs


def reference_condense(system: StructuredSystem) -> Condensation:
    """The condensation with Kahn's heap keyed by smallest member state on every graph."""
    n = system.n
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in system.a_edges:
        succ[j].append(i)
    components = reference_strongly_connected_components(succ)
    comp_of = [0] * (n + 1)
    for cid, component in enumerate(components):
        for v in component:
            comp_of[v] = cid
    raw_edges = {(comp_of[j], comp_of[i]) for i, j in system.a_edges if comp_of[j] != comp_of[i]}
    out_adj: list[list[int]] = [[] for _ in components]
    indeg = [0] * len(components)
    for a, b in raw_edges:
        out_adj[a].append(b)
        indeg[b] += 1
    min_state = [min(component) for component in components]
    heap = [(min_state[c], c) for c in range(len(components)) if indeg[c] == 0]
    heapq.heapify(heap)
    position = [0] * len(components)  # 1-based topological index
    order: list[int] = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        position[c] = len(order)
        for b in out_adj[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (min_state[b], b))
    inputs: list[set[int]] = [set() for _ in order]
    outputs: list[set[int]] = [set() for _ in order]
    for i, j in system.b_edges:
        inputs[position[comp_of[i]] - 1].add(j)
    for i, j in system.c_edges:
        outputs[position[comp_of[j]] - 1].add(i)
    return Condensation(
        sccs=tuple(frozenset(components[c]) for c in order),
        dag_edges=frozenset((position[a], position[b]) for a, b in raw_edges),
        input_incidence=tuple(frozenset(s) for s in inputs),
        output_incidence=tuple(frozenset(s) for s in outputs),
    )


def reference_hopcroft_karp(adjacency, n_right: int) -> tuple[int, list[int], list[int]]:
    """Hopcroft-Karp whose first phase is a BFS and DFS phase like every other."""
    n_left = len(adjacency)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = math.inf
        shortest = math.inf
        while queue:
            u = queue.popleft()
            if dist[u] >= shortest:
                continue
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    if shortest == math.inf:
                        shortest = dist[u] + 1
                elif dist[w] == math.inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return shortest != math.inf

    def dfs(root: int) -> bool:
        stack = [(root, iter(adjacency[root]))]
        entered_via: list[int] = []
        while stack:
            u, neighbors = stack[-1]
            descended = False
            for v in neighbors:
                w = match_r[v]
                if w == -1:
                    match_l[u] = v
                    match_r[v] = u
                    stack.pop()
                    while stack:
                        pu, _ = stack.pop()
                        pv = entered_via.pop()
                        match_l[pu] = pv
                        match_r[pv] = pu
                    return True
                if dist[w] == dist[u] + 1:
                    stack.append((w, iter(adjacency[w])))
                    entered_via.append(v)
                    descended = True
                    break
            if not descended:
                dist[u] = math.inf
                stack.pop()
                if entered_via:
                    entered_via.pop()
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def reference_greedy_start_hopcroft_karp(
    adjacency: Sequence[Sequence[int]], n_right: int
) -> tuple[int, list[int], list[int]]:
    """``graphs.hopcroft_karp`` as it was with float layers and nested closures.

    Maximum bipartite matching: O(sqrt(V)) phases, O(E * sqrt(V)) time.

    Returns (size, match_left, match_right) with -1 marking unmatched
    vertices. The first phase is a greedy pass in row order: with every
    left vertex free, the phase's shortest augmenting paths are single
    edges and its DFS matches each row to its first free right vertex, so
    the pass finds the same matching without the BFS layering. The
    augmenting DFS of the later phases is iterative, so long alternating
    paths are safe.
    """
    n_left = len(adjacency)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left
    size = 0
    for u, row in enumerate(adjacency):
        for v in row:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                size += 1
                break

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        shortest = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= shortest:
                continue
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    if shortest == INF:
                        shortest = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return shortest != INF

    def dfs(root: int) -> bool:
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(adjacency[root]))]
        entered_via: list[int] = []  # right vertex used to reach each non-root frame
        while stack:
            u, neighbors = stack[-1]
            descended = False
            for v in neighbors:
                w = match_r[v]
                if w == -1:
                    match_l[u] = v
                    match_r[v] = u
                    stack.pop()
                    while stack:
                        pu, _ = stack.pop()
                        pv = entered_via.pop()
                        match_l[pu] = pv
                        match_r[pv] = pu
                    return True
                if dist[w] == dist[u] + 1:
                    stack.append((w, iter(adjacency[w])))
                    entered_via.append(v)
                    descended = True
                    break
            if not descended:
                dist[u] = INF
                stack.pop()
                if entered_via:
                    entered_via.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


@contextmanager
def counted_state_row_builds() -> Iterator[list[StructuredSystem]]:
    """Yields the list of systems whose ``state_rows`` are built in the block, one entry a build."""
    built: list[StructuredSystem] = []
    build = StructuredSystem.__dict__["state_rows"].func

    def counted(system: StructuredSystem) -> list[list[int]]:
        built.append(system)
        return build(system)

    spy = cached_property(counted)
    spy.__set_name__(StructuredSystem, "state_rows")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StructuredSystem, "state_rows", spy)
        yield built


def labelled_matching(system: StructuredSystem, matching) -> list[tuple[str, str]]:
    """The cycle stage's id matching as the sorted (v', w) name pairs it was once certified by.

    ``matching[v]`` is the vertex id matched to vertex id v, entry 0 the
    unused vertex; ids 1..n name x1..xn, then u1..um, then y1..yp, and the
    left side is primed, as in ("x'1", "x2").
    """
    names = [f"{kind}{k}" for kind, count in (("x", system.n), ("u", system.m), ("y", system.p))
             for k in range(1, count + 1)]
    primed = [f"{name[0]}'{name[1:]}" for name in names]
    return sorted((primed[v - 1], names[w - 1]) for v, w in enumerate(matching) if v)


def reference_condition_b_rows(system: StructuredSystem, costs: CostMatrix):
    """The cycle stage's matcher rows as it built them by overlaying link tuples.

    Every admissible link (i, j) becomes the bipartite edge u'_i - y_j,
    laid over the system's ``loop_rows``; a row that gains links is costed 0
    per base edge, then each link's cost, and every other row keeps None.
    The unused row 0 is [0], matched to itself at no cost.
    """
    links = costs.finite_links()
    rows, base = system.loop_rows(links), system.loop_rows()
    weights = [None if row is kept else [0] * len(kept) for row, kept in zip(rows, base)]
    for i, j in links:
        weights[system.n + i].append(costs.rows[i - 1][j - 1])
    rows[0] = [0]
    return rows, weights


def reference_min_cost_perfect_matching(rows, stats=None) -> tuple[list[int], float] | None:
    """Sparse successive shortest paths on (right vertex, cost) tuple rows.

    The form the cycle stage's matcher had before it read the int loop
    rows with per-row costs: every row is a list of (right, cost) pairs
    sorted by right vertex, potentials start at the row minima, the warm
    start matches the edges at their row minimum, and one Dijkstra runs per
    missing unit. Its matching, total and ``stats["augmentations"]`` must
    match the library's exactly.
    """
    n = len(rows)
    u = [min((c for _, c in row), default=0) for row in rows]
    v = [0] * n
    _, match_l, match_r = reference_hopcroft_karp(
        [[r for r, c in row if c == ul] for row, ul in zip(rows, u)], n
    )
    stats = {} if stats is None else stats
    stats["augmentations"] = 0
    for source in [l for l, r in enumerate(match_l) if r == -1]:
        stats["augmentations"] += 1
        dist: dict[int, float] = {}
        reached_from: dict[int, int] = {}
        settled: set[int] = set()
        settled_left = [(source, 0)]
        heap: list[tuple[float, int]] = []
        l, dl = source, 0
        while True:
            base = dl - u[l]
            for r, c in rows[l]:
                d = base + c - v[r]
                if r not in settled and d < dist.get(r, math.inf):
                    dist[r] = d
                    reached_from[r] = l
                    heapq.heappush(heap, (d, r))
            while heap and heap[0][1] in settled:
                heapq.heappop(heap)
            if not heap:
                return None
            d, r = heapq.heappop(heap)
            settled.add(r)
            if match_r[r] == -1:
                break
            l, dl = match_r[r], d
            settled_left.append((l, d))
        for l, dl in settled_left:
            u[l] += d - dl
        for s in settled:
            v[s] -= d - dist[s]
        while r != -1:
            l = reached_from[r]
            match_r[r] = l
            match_l[l], r = r, match_l[l]
    total = 0  # in left order, without the compensated rounding of sum() from 3.12 on
    for row, matched in zip(rows, match_l):
        total += next(c for r, c in row if r == matched)
    return match_l, total


# ---------------------------------------------------------------------------
# faulty inputs

# JSON never produces these subclasses; the checks accept them as their bases.


class IntSub(int):
    pass


class FloatSub(float):
    pass


class ListSub(list):
    pass


COST_FAULTS = (
    True, False, "x", "inf", "INF", "Inf", None, [], [1], -1, -2.5, -0.0, math.nan, -math.inf,
    10**400, -(10**400), 1e308, sys.float_info.max, IntSub(3), FloatSub(2.5), 2**63,
)
# Two 1e308 entries sum beyond the largest float, though each is finite.
_costs = st.one_of(st.integers(0, 100), st.sampled_from([0.0, 2.5, 1e-300, math.inf]))


@st.composite
def faulty_cost_rows(draw):
    """A rectangular cost matrix with up to two entries replaced by ``COST_FAULTS``."""
    m, p = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    rows = [draw(st.lists(_costs, min_size=p, max_size=p)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2)) if m and p else 0):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, p - 1))] = draw(st.sampled_from(COST_FAULTS))
    return rows
