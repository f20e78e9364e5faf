"""Graph machinery: the closed-loop index, SCC condensation, bipartite matchings.

``ClosedLoopIndex`` alone knows how states, inputs and outputs are numbered
as vertices. A bipartite graph is a list of adjacency rows: row l holds the
0-based right vertices joined to left vertex l, in increasing order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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


def strongly_connected_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative so deep chains don't hit the recursion limit.

    ``succ`` is indexed by vertex id 1..len(succ) - 1 (entry 0 unused).
    """
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
        work: list[tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
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


def scc_ids(succ: Sequence[Sequence[int]]) -> list[int]:
    """Component id per vertex (entry 0 unused); ids are arbitrary but consistent."""
    ids = [0] * len(succ)
    for cid, component in enumerate(strongly_connected_components(succ)):
        for v in component:
            ids[v] = cid
    return ids


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
    independent of edge iteration order.
    """
    n = system.n
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in system.a_edges:
        succ[j].append(i)
    components = strongly_connected_components(succ)

    comp_of = [0] * (n + 1)
    for cid, component in enumerate(components):
        for v in component:
            comp_of[v] = cid

    raw_edges: set[tuple[int, int]] = set()
    for i, j in system.a_edges:  # edge x_j -> x_i
        a, b = comp_of[j], comp_of[i]
        if a != b:
            raw_edges.add((a, b))

    # Kahn's algorithm with a min-heap keyed by smallest member state.
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

    sccs = tuple(frozenset(components[c]) for c in order)
    dag_edges = frozenset((position[a], position[b]) for a, b in raw_edges)

    inputs: list[set[int]] = [set() for _ in sccs]
    outputs: list[set[int]] = [set() for _ in sccs]
    for i, j in system.b_edges:  # input j actuates state i
        inputs[position[comp_of[i]] - 1].add(j)
    for i, j in system.c_edges:  # output i senses state j
        outputs[position[comp_of[j]] - 1].add(i)

    return Condensation(
        sccs=sccs,
        dag_edges=dag_edges,
        input_incidence=tuple(frozenset(s) for s in inputs),
        output_incidence=tuple(frozenset(s) for s in outputs),
    )


def is_line_dag(condensation: Condensation) -> bool:
    """True when the SCC DAG is exactly the path C_1 -> C_2 -> ... -> C_l."""
    ell = condensation.scc_count
    expected = frozenset((k, k + 1) for k in range(1, ell))
    return condensation.dag_edges == expected


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
    """Maximum bipartite matching in O(E * sqrt(V)) phases.

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
    rows: Sequence[Sequence[tuple[int, float]]], stats: Optional[dict] = None
) -> Optional[tuple[list[int], float]]:
    """Minimum-cost perfect matching, or None when no perfect matching exists.

    ``rows[l]`` lists the edges of left vertex l as (right vertex, cost)
    pairs sorted by right vertex; both sides have ``len(rows)`` vertices
    and every cost is finite (an absent edge is left out). Returns the
    right vertex matched to each left vertex and the total cost, summed in
    left order.

    Sparse successive shortest paths (Jonker & Volgenant 1987). Left
    potentials start at the row minima, right ones at 0; a Hopcroft-Karp
    matching on the edges at their row minimum (on closed-loop graphs, the
    zero-cost edges) is then optimal for its size, and each of the d units
    it lacks is added along a shortest augmenting path found by Dijkstra on
    the reduced costs; O(E sqrt(V) + d E log V). Ties follow the sorted
    rows, which are scanned in order, and heap ties break by vertex index,
    so adding a constant to every cost changes nothing. When given,
    ``stats["augmentations"]`` receives the number of shortest paths run.
    """
    n = len(rows)
    u = [min((c for _, c in row), default=0) for row in rows]
    v = [0] * n
    _, match_l, match_r = hopcroft_karp(
        [[r for r, c in row if c == ul] for row, ul in zip(rows, u)], n
    )
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
            for r, c in rows[l]:
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
    total = sum(c for row, matched in zip(rows, match_l) for r, c in row if r == matched)
    return match_l, total
