"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: matching size
is recomputed by augmenting max-flow, SCCs by transitive closure, cycle
spanning by exhaustive subset-and-permutation search, set cover by full
enumeration, and min-cost matching by a dense O(n^3) assignment. They are
the ground truth the fast implementations are compared against.

The per-entry references keep the straightforward forms of code the
library runs faster: the input checks entry by entry, and Hopcroft-Karp
with a BFS-and-DFS first phase. Their results and messages must match
exactly.
"""

from __future__ import annotations

import collections
import math
import random
import sys
from collections import deque
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from feedsel import (
    CostMatrix, DimensionError, FeedbackPattern, SetCoverInstance, StructuredSystem, full_pattern,
)
from feedsel.fileio import SchemaError


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

    Independent of ``ClosedLoopIndex``: states are 1..n, inputs n+1..n+m,
    outputs n+m+1..n+m+p, and entry 0 is unused.
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


def brute_force_set_cover(instance: SetCoverInstance) -> tuple[float, frozenset[int]]:
    """Optimal weighted cover by enumerating all subsets of sets."""
    best_weight = None
    best_sets: frozenset[int] = frozenset()
    indices = range(1, instance.set_count + 1)
    for r in range(instance.set_count + 1):
        for subset in combinations(indices, r):
            if instance.is_cover(subset):
                weight = instance.cover_weight(subset)
                if best_weight is None or weight < best_weight:
                    best_weight = weight
                    best_sets = frozenset(subset)
    assert best_weight is not None
    return best_weight, best_sets


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

    Built from ``reference_successors``, not ``ClosedLoopIndex``: row v - 1
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
    if sum(entry for row in rows for entry in row if entry != math.inf) > sys.float_info.max:
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
