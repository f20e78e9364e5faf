"""Graph machinery: the closed-loop index, SCC condensation, bipartite matchings.

``ClosedLoopIndex`` alone knows how states, inputs and outputs are numbered
as vertices. ``scc_ids`` is the one SCC routine: a Tarjan pass that numbers
the components in the order it emits them, which is reverse topological,
and ``condense`` orders the SCC DAG from those ids. A bipartite graph is a
list of adjacency rows: row l holds the 0-based right vertices joined to
left vertex l, in increasing order; the min-cost matcher adds per-row
costs (None where a row's edges all cost 0).
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

from .model import DimensionError, Edge, INF, StructuredSystem

VertexEdge = tuple[int, int]


# ---------------------------------------------------------------------------
# the closed-loop graph


def _overlay(base: list[list[int]], edges: Iterable[VertexEdge]) -> list[list[int]]:
    """``base`` plus ``edges``; only the rows that gain an edge are copied."""
    rows = list(base)
    for tail, head in edges:
        if rows[tail] is base[tail]:
            rows[tail] = base[tail] + [head]
        else:
            rows[tail].append(head)
    return rows


@dataclass(frozen=True, eq=False)
class ClosedLoopIndex:
    """The closed-loop graph of one system, with feedback links laid over it.

    Digraph vertex ids: states x_1..x_n are 1..n, inputs u_1..u_m are
    n+1..n+m and outputs y_1..y_p are n+m+1..n+m+p; entry 0 of the
    successor lists is unused. The bipartite graph pairs the primed copy
    v' of every vertex (left) with the vertices (right), 0-based in the
    same order: v' - w is an edge when w -> v is, and every input and
    output is also paired with itself. A feedback link (i, j) adds the
    edge y_j -> u_i; bipartite rows are sorted when the links come in
    lexicographic order. The base lists are built on first use, straight
    from the system's edge fields in the order of ``edges()``, and kept, so
    one index serves every pattern checked on its system; each pattern's
    lists copy only the rows its feedback edges change and share the
    others with the base, so callers must not mutate them.
    """

    system: StructuredSystem

    @cached_property
    def vertex_count(self) -> int:
        return self.system.n + self.system.m + self.system.p

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Vertex names by digraph id (entry 0 unused)."""
        s = self.system
        return (
            ("",)
            + tuple(f"x{i}" for i in range(1, s.n + 1))
            + tuple(f"u{i}" for i in range(1, s.m + 1))
            + tuple(f"y{j}" for j in range(1, s.p + 1))
        )

    def edges(self) -> Iterator[VertexEdge]:
        """The system's digraph edges x_j -> x_i, u_j -> x_i and x_j -> y_i."""
        s, n = self.system, self.system.n
        yield from ((j, i) for i, j in s.a_edges)
        yield from ((n + j, i) for i, j in s.b_edges)
        yield from ((j, n + s.m + i) for i, j in s.c_edges)

    def check_links(self, links: Iterable[Edge]) -> list[Edge]:
        """The links as a list; DimensionError if one lies outside 1..m x 1..p."""
        m, p = self.system.m, self.system.p
        links = list(links)
        for i, j in links:
            if not (1 <= i <= m and 1 <= j <= p):
                raise DimensionError(f"feedback link ({i}, {j}) out of range for m={m}, p={p}")
        return links

    def feedback_edges(self, links: Iterable[Edge]) -> list[VertexEdge]:
        """Digraph edges y_j -> u_i of the links (not range-checked)."""
        n = self.system.n
        offset = n + self.system.m
        return [(offset + j, n + i) for i, j in links]

    def matching_edges(self, links: Iterable[Edge]) -> list[VertexEdge]:
        """Bipartite edges u'_i - y_j of the links, as (left, right) indices."""
        return [(head - 1, tail - 1) for tail, head in self.feedback_edges(links)]

    @cached_property
    def _successors(self) -> list[list[int]]:
        s, n = self.system, self.system.n
        succ: list[list[int]] = [[] for _ in range(self.vertex_count + 1)]
        for i, j in s.a_edges:
            succ[j].append(i)
        for i, j in s.b_edges:
            succ[n + j].append(i)
        outputs = n + s.m
        for i, j in s.c_edges:
            succ[j].append(outputs + i)
        return succ

    @cached_property
    def _adjacency(self) -> list[list[int]]:
        s, n = self.system, self.system.n
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, j in s.a_edges:
            adj[i - 1].append(j - 1)
        inputs = n - 1
        for i, j in s.b_edges:
            adj[i - 1].append(inputs + j)
        outputs = n + s.m - 1
        for i, j in s.c_edges:
            adj[outputs + i].append(j - 1)
        for v in range(n, self.vertex_count):
            adj[v].append(v)
        for row in adj:
            row.sort()
        return adj

    def successors(self, links: Iterable[Edge] = ()) -> list[list[int]]:
        """Closed-loop successor lists with the feedback edges of ``links``."""
        return _overlay(self._successors, self.feedback_edges(links))

    def adjacency(self, links: Iterable[Edge] = ()) -> list[list[int]]:
        """Left adjacency of the closed-loop bipartite graph with ``links``."""
        return _overlay(self._adjacency, self.matching_edges(links))


def scc_ids(succ: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Tarjan's algorithm: (component id per vertex, component count).

    ``succ`` is indexed by vertex id 1..len(succ) - 1 (entry 0 unused).
    Components are numbered 0, 1, ... in the order Tarjan emits them,
    which is reverse topological: an edge v -> w between two components
    has ids[v] > ids[w]. Iterative, so deep chains don't hit the recursion
    limit. Each DFS frame keeps its vertex's index; ``low`` is nonzero once
    a vertex is reached, which is on Tarjan's stack until it gets an id.
    """
    size = len(succ)
    low = [0] * size
    ids = [-1] * size
    stack: list[int] = []
    counter = 1
    count = 0

    for root in range(1, size):
        if low[root]:
            continue
        low[root] = counter
        stack.append(root)
        work: list[tuple[int, int, Iterator[int]]] = [(root, counter, iter(succ[root]))]
        counter += 1
        while work:
            v, index, neighbors = work[-1]
            for w in neighbors:
                low_w = low[w]
                if not low_w:
                    low[w] = counter
                    stack.append(w)
                    work.append((w, counter, iter(succ[w])))
                    counter += 1
                    break
                if low_w < low[v] and ids[w] < 0:
                    low[v] = low_w
            else:
                work.pop()
                if low[v] == index:
                    while True:
                        w = stack.pop()
                        ids[w] = count
                        if w == v:
                            break
                    count += 1
                else:  # v is not a component's root, so it has a parent frame
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return ids, count


# ---------------------------------------------------------------------------
# condensation


@dataclass(frozen=True, eq=False)
class Condensation:
    """SCCs of the state digraph in a fixed topological order.

    dag_edges are 1-based SCC index pairs (source, target) with source <
    target. input_incidence[k-1] is the set of inputs actuating some state
    of the k-th SCC; output_incidence[k-1] the outputs sensing it.
    """

    sccs: tuple[frozenset[int], ...]
    dag_edges: frozenset[tuple[int, int]]
    input_incidence: tuple[frozenset[int], ...]
    output_incidence: tuple[frozenset[int], ...]

    @property
    def scc_count(self) -> int:
        return len(self.sccs)

    def non_top_linked_sccs(self) -> list[int]:
        """SCCs without an incoming edge from another SCC, in order."""
        targets = {target for _, target in self.dag_edges}
        return [k for k in range(1, self.scc_count + 1) if k not in targets]

    def non_bottom_linked_sccs(self) -> list[int]:
        """SCCs without an outgoing edge to another SCC, in order."""
        sources = {source for source, _ in self.dag_edges}
        return [k for k in range(1, self.scc_count + 1) if k not in sources]


def condense(system: StructuredSystem) -> Condensation:
    """Condense the state digraph into its SCC DAG.

    The SCC order is topological; among admissible choices the SCC holding
    the smallest state index comes first, so the result is reproducible and
    independent of edge iteration order. SCCs are first ranked in the
    reversed order of ``scc_ids``. When every two consecutive ranks are
    joined by an edge, as on a line, no other order is topological: it
    would put the target of one of those edges first. Only otherwise does
    Kahn's algorithm rerank them, by a min-heap keyed by smallest state.
    """
    n = system.n
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in system.a_edges:
        succ[j].append(i)
    ids, count = scc_ids(succ)
    rank = [count - c for c in ids]  # 1-based SCC index per state
    rank[0] = 0  # vertex 0 is unused

    members: list[list[int]] = [[] for _ in range(count + 1)]
    for s in range(1, n + 1):
        members[rank[s]].append(s)  # so members[k][0] is the smallest state
    # the edges x_j -> x_i between two SCCs, as (source rank, target rank)
    dag_edges = {(rank[j], rank[i]) for i, j in system.a_edges if rank[j] != rank[i]}

    if not dag_edges.issuperset(zip(range(1, count), range(2, count + 1))):
        out_adj: list[list[int]] = [[] for _ in range(count + 1)]
        indeg = [0] * (count + 1)
        for a, b in dag_edges:
            out_adj[a].append(b)
            indeg[b] += 1
        heap = [(members[k][0], k) for k in range(1, count + 1) if indeg[k] == 0]
        heapq.heapify(heap)
        order = [0]
        position = [0] * (count + 1)
        while heap:
            _, k = heapq.heappop(heap)
            position[k] = len(order)
            order.append(k)
            for b in out_adj[k]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(heap, (members[b][0], b))
        rank = [position[k] for k in rank]
        members = [members[k] for k in order]
        dag_edges = {(position[a], position[b]) for a, b in dag_edges}

    return Condensation(
        sccs=tuple(map(frozenset, members[1:])),
        dag_edges=frozenset(dag_edges),
        input_incidence=_incidence(system.b_edges, rank, count),
        output_incidence=_incidence(((j, i) for i, j in system.c_edges), rank, count),
    )


def _incidence(
    pairs: Iterable[Edge], rank: Sequence[int], count: int
) -> tuple[frozenset[int], ...]:
    """Per SCC, the x of the (state, x) pairs on its states; untouched SCCs share one empty set."""
    touched: defaultdict[int, set[int]] = defaultdict(set)
    for state, x in pairs:
        touched[rank[state]].add(x)
    incidence = [frozenset()] * (count + 1)
    for k, xs in touched.items():
        incidence[k] = frozenset(xs)
    return tuple(incidence[1:])


def missing_path_links(condensation: Condensation) -> list[tuple[int, int]]:
    """Consecutive SCC pairs that are not joined by a DAG edge.

    The list is empty exactly when the SCC DAG has a Hamiltonian path: a
    DAG has one when its topological order is unique, i.e. every pair of
    consecutive SCCs in the fixed order is joined by an edge. Extra
    forward edges are allowed.
    """
    ell = condensation.scc_count
    return [
        (k, k + 1) for k in range(1, ell) if (k, k + 1) not in condensation.dag_edges
    ]


# ---------------------------------------------------------------------------
# bipartite graphs and matchings


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite graph over labelled left/right vertex lists.

    Edges are 0-based (left index, right index) pairs; ``adjacency``
    gives them as sorted rows.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        for l, r in self.edges:
            if not (0 <= l < len(self.left) and 0 <= r < len(self.right)):
                raise DimensionError(f"edge ({l}, {r}) out of range")

    @cached_property
    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.left]
        for l, r in sorted(self.edges):
            adj[l].append(r)
        return adj


def state_bipartite(system: StructuredSystem) -> BipartiteGraph:
    """Bipartite graph pairing primed states with states: x'_i — x_j iff a_edge (i, j)."""
    n = system.n
    return BipartiteGraph(
        left=tuple(f"x'{i}" for i in range(1, n + 1)),
        right=tuple(f"x{i}" for i in range(1, n + 1)),
        edges=frozenset((i - 1, j - 1) for i, j in system.a_edges),
    )


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]], n_right: int
) -> tuple[int, list[int], list[int]]:
    """Maximum bipartite matching: O(sqrt(V)) phases, O(E * sqrt(V)) time.

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


def min_cost_perfect_matching(
    adjacency: Sequence[Sequence[int]],
    weights: Sequence[Optional[Sequence[float]]],
    stats: Optional[dict] = None,
) -> Optional[tuple[list[int], float]]:
    """Minimum-cost perfect matching, or None when no perfect matching exists.

    ``adjacency[l]`` is the sorted row of right vertices joined to left
    vertex l, on ``len(adjacency)`` vertices a side; ``weights[l]`` is None
    when every edge of row l costs 0, else the row's finite edge costs in
    its order. Rows are never copied or changed. Returns the right vertex
    matched to each left vertex and the total cost, summed in left order.

    Sparse successive shortest paths (Jonker & Volgenant 1987). Left
    potentials start at the row minima (0 on a None row), right ones at 0;
    a Hopcroft-Karp matching on the edges at their row minimum (a None row
    whole) is then optimal for its size, and each of the d units it lacks
    is added along a shortest augmenting path found by Dijkstra on the
    reduced costs; O(E sqrt(V) + d E log V). Ties follow the sorted rows,
    which are scanned in order, and heap ties break by vertex index, so
    adding a constant to every cost changes nothing. When given,
    ``stats["augmentations"]`` receives the number of shortest paths run.
    """
    n = len(adjacency)
    u = [min(costs) if costs else 0 for costs in weights]
    v = [0] * n
    warm_rows = [
        row if costs is None else [r for r, c in zip(row, costs) if c == ul]
        for row, costs, ul in zip(adjacency, weights, u)
    ]
    _, match_l, match_r = hopcroft_karp(warm_rows, n)
    stats = {} if stats is None else stats
    stats["augmentations"] = 0
    for source in [l for l, r in enumerate(match_l) if r == -1]:
        stats["augmentations"] += 1
        # Dijkstra over alternating paths; the reduced costs c - u[l] - v[r]
        # are >= 0 on every edge and 0 on matched ones.
        dist: dict[int, float] = {}
        reached_from: dict[int, int] = {}
        settled: set[int] = set()
        settled_left = [(source, 0)]
        heap: list[tuple[float, int]] = []
        l, dl = source, 0
        while True:
            base = dl - u[l]
            for r, c in zip(adjacency[l], weights[l] or repeat(0)):
                d = base + c - v[r]
                if r not in settled and d < dist.get(r, INF):
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
        # Make the path tight without turning any reduced cost negative.
        for l, dl in settled_left:
            u[l] += d - dl
        for s in settled:
            v[s] -= d - dist[s]
        while r != -1:
            l = reached_from[r]
            match_r[r] = l
            match_l[l], r = r, match_l[l]
    total = sum(
        costs[row.index(r)] for row, costs, r in zip(adjacency, weights, match_l) if costs
    )
    return match_l, total
