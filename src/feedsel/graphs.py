"""Graph machinery: the closed-loop index, SCC condensation, bipartite matchings.

``ClosedLoopIndex`` numbers states, inputs and outputs as vertices 1..n,
n+1..n+m and n+m+1..n+m+p, and every closed-loop id in ``sfm`` and
``solvers`` is one of these; row 0 of its rows is unused. Its
``state_rows`` are the one state graph, which ``condense`` runs Tarjan on
and the state-matching test matches; its ``loop_rows`` are laid over them,
and a two-stage solve's cycle stage reads the index ``condense`` built.
``scc_ids`` is the one SCC routine, and on those predecessor rows it emits
the components in topological order. A bipartite graph is only a list of
adjacency rows: row l holds the right vertices joined to left vertex l
(``loop_rows`` serve as is); the min-cost matcher takes them sorted, with
per-row costs (None for all-0 rows), and its right id per left id is the
cycle stage's certificate. Vertices are ids throughout; only ``dot``
names them, to print them, and only the benchmark's ``state_bipartite``
shifts them to 0-based rows.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .model import DimensionError, Edge, INF, StructuredSystem

VertexEdge = tuple[int, int]


# ---------------------------------------------------------------------------
# the closed-loop graph


@dataclass(frozen=True, eq=False)
class ClosedLoopIndex:
    """The closed-loop graph of one system, with feedback links laid over it.

    Digraph vertex ids: states x_1..x_n are 1..n, inputs u_1..u_m are
    n+1..n+m and outputs y_1..y_p are n+m+1..n+m+p (entry 0 of the rows is
    unused); a feedback link (i, j) adds the edge y_j -> u_i. ``loop_rows``
    are the sorted predecessor rows, each input and output row ending in
    the vertex itself: a self-loop merges no SCCs and adds nothing to
    reachability, and as bipartite rows v' - w, one per edge w -> v, they
    match perfectly iff disjoint cycles span the states. ``state_rows`` are
    the same rows over the states alone, the state digraph, and the only
    rows built from the a_edges: a state's loop row is its state row
    object when no input actuates it, else a copy extended by the input
    ids. Rows are built on first use and kept; a pattern's list copies only
    the rows its links change and shares the others, so callers must not
    mutate them.
    """

    system: StructuredSystem

    @cached_property
    def vertex_count(self) -> int:
        return self.system.n + self.system.m + self.system.p

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

    @cached_property
    def state_rows(self) -> list[list[int]]:
        """Row i: the sorted j of the a_edges (i, j), the predecessors of x_i; row 0 unused."""
        rows: list[list[int]] = [[] for _ in range(self.system.n + 1)]
        for i, j in self.system.a_edges:
            rows[i].append(j)
        for row in rows:
            row.sort()
        return rows

    @cached_property
    def _loop_rows(self) -> list[list[int]]:
        # Input ids exceed every state id, so a state row extended by its
        # inputs' ids in increasing order stays sorted.
        s, n = self.system, self.system.n
        states = self.state_rows
        rows = states + [[v] for v in range(n + 1, n + s.m + 1)]
        for i, j in sorted(s.b_edges):
            if rows[i] is states[i]:
                rows[i] = states[i] + [n + j]
            else:
                rows[i].append(n + j)
        rows.extend([] for _ in range(s.p))
        outputs = n + s.m
        for i, j in s.c_edges:
            rows[outputs + i].append(j)
        for v in range(outputs + 1, len(rows)):
            row = rows[v]
            row.sort()
            row.append(v)
        return rows

    def loop_rows(self, links: Iterable[Edge] = ()) -> list[list[int]]:
        """The base rows plus y_j in row u_i per link (i, j); rows gaining a link are copied."""
        base = self._loop_rows
        rows = list(base)
        for y, u in self.feedback_edges(links):
            if rows[u] is base[u]:
                rows[u] = base[u] + [y]
            else:
                rows[u].append(y)
        return rows


def scc_ids(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Tarjan's algorithm: (component id per vertex, component count).

    ``rows`` is indexed by vertex id 1..len(rows) - 1 (entry 0 unused, id
    -1). Components are numbered 0, 1, ... in the order Tarjan emits them:
    w in row v, between two components, gives ids[v] > ids[w], so on
    predecessor rows (``state_rows``) the order is topological. Iterative,
    for deep chains: the current frame is in locals, its ancestors' on
    ``work``. ``low`` is nonzero once a vertex is reached, and above every
    index once it has its component.
    """
    size = len(rows)
    low = [0] * size
    ids = [-1] * size
    stack: list[int] = []
    counter = count = 0  # the last index given, the components emitted

    for root in range(1, size):
        if low[root]:
            continue
        v, neighbors = root, iter(rows[root])
        index = low[v] = counter = counter + 1
        stack.append(v)
        work: list[tuple[int, int, Iterator[int]]] = []
        while True:
            for w in neighbors:
                low_w = low[w]
                if not low_w:
                    work.append((v, index, neighbors))
                    v, neighbors = w, iter(rows[w])
                    index = low[w] = counter = counter + 1
                    stack.append(w)
                    break
                if low_w < low[v]:
                    low[v] = low_w
            else:
                low_v = low[v]
                if low_v == index:
                    while True:
                        w = stack.pop()
                        ids[w] = count
                        low[w] = size  # above every index
                        if w == v:
                            break
                    count += 1
                if not work:
                    break
                v, index, neighbors = work.pop()
                if low_v < low[v]:
                    low[v] = low_v
    return ids, count


# ---------------------------------------------------------------------------
# condensation


class Condensation:
    """SCCs of the state digraph in a fixed topological order.

    dag_edges are 1-based SCC index pairs (source, target) with source <
    target. input_incidence[k-1] is the set of inputs actuating some state
    of the k-th SCC; output_incidence[k-1] the outputs sensing it. Instead
    of ``sccs``, built on first read, ``condense`` passes ``scc_index`` (the
    1-based SCC per state) and the ``index`` whose ``state_rows`` it ran
    Tarjan on. Built by hand, without either, its incidence lengths and DAG
    edges are checked, and ``sccs`` is readable only if passed.
    """

    def __init__(self, sccs=None, dag_edges=frozenset(), input_incidence=(), output_incidence=(),
                 *, scc_index: Sequence[int] = (), index: Optional[ClosedLoopIndex] = None):
        if sccs is not None:
            self.sccs = sccs
        self.scc_count = ell = len(input_incidence if sccs is None else sccs)
        if not scc_index:
            for name, sets in (("input", input_incidence), ("output", output_incidence)):
                if len(sets) != ell:
                    raise DimensionError(f"{name}_incidence has {len(sets)} entries for {ell} SCCs")
            bad = sorted(e for e in dag_edges if not 1 <= e[0] < e[1] <= ell)
            if bad:
                raise DimensionError(f"DAG edge {bad[0]} is not 1 <= source < target <= {ell}")
        self.dag_edges, self.scc_index, self.index = dag_edges, scc_index, index
        self.input_incidence, self.output_incidence = input_incidence, output_incidence

    @cached_property
    def sccs(self) -> tuple[frozenset[int], ...]:
        if not self.scc_index:
            raise DimensionError("this condensation was built without its SCC members")
        members: list[list[int]] = [[] for _ in range(self.scc_count + 1)]
        for s, k in enumerate(self.scc_index):
            members[k].append(s)
        return tuple(map(frozenset, members[1:]))

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

    The SCC order is topological; among admissible choices the SCC holding the
    smallest state index comes first, so the result is reproducible and
    independent of edge iteration order. SCCs are first ranked in the order
    ``scc_ids`` emits them on the index's ``state_rows``, which is
    topological. When every two consecutive ranks are joined by an edge, as
    on a line, that order is the only topological one; only otherwise does
    Kahn's algorithm rerank them, by a min-heap keyed by smallest state. SCC
    sets are built only when read.
    """
    index = ClosedLoopIndex(system)
    ids, count = scc_ids(index.state_rows)
    rank = [c + 1 for c in ids]  # 1-based SCC index per state; 0 at the unused vertex 0
    # the edges x_j -> x_i between two SCCs, as (source rank, target rank)
    dag_edges = {(rank[j], rank[i]) for i, j in system.a_edges if rank[j] != rank[i]}

    if not dag_edges.issuperset(zip(range(1, count), range(2, count + 1))):
        smallest = [0] * (count + 1)  # the smallest state of each SCC
        for s in range(system.n, 0, -1):
            smallest[rank[s]] = s
        out_adj: list[list[int]] = [[] for _ in range(count + 1)]
        indeg = [0] * (count + 1)
        for a, b in dag_edges:
            out_adj[a].append(b)
            indeg[b] += 1
        heap = [(smallest[k], k) for k in range(1, count + 1) if indeg[k] == 0]
        heapq.heapify(heap)
        position = [0] * (count + 1)
        placed = 0
        while heap:
            _, k = heapq.heappop(heap)
            position[k] = placed = placed + 1
            for b in out_adj[k]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(heap, (smallest[b], b))
        rank = [position[k] for k in rank]
        dag_edges = {(position[a], position[b]) for a, b in dag_edges}

    return Condensation(
        dag_edges=frozenset(dag_edges),
        input_incidence=_incidence(system.b_edges, rank, count),
        output_incidence=_incidence(((j, i) for i, j in system.c_edges), rank, count),
        scc_index=rank,
        index=index,
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
    forward edges are allowed. One ``issuperset`` over the consecutive
    pairs decides a line in C; the pairs are walked one by one only to
    list what is missing.
    """
    ell = condensation.scc_count
    if condensation.dag_edges.issuperset(zip(range(1, ell), range(2, ell + 1))):
        return []
    return [
        (k, k + 1) for k in range(1, ell) if (k, k + 1) not in condensation.dag_edges
    ]


# ---------------------------------------------------------------------------
# bipartite graphs and matchings


# Kept for the benchmark's instance builder, which counts matching deficiency with it.
def state_bipartite(system: StructuredSystem) -> SimpleNamespace:
    """``.adjacency``: ``ClosedLoopIndex(system).state_rows`` shifted down to 0-based rows."""
    rows = ClosedLoopIndex(system).state_rows
    return SimpleNamespace(adjacency=[[j - 1 for j in row] for row in rows[1:]])


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]], n_right: int
) -> tuple[int, list[int], list[int]]:
    """Maximum bipartite matching: O(sqrt(V)) phases, O(E * sqrt(V)) time.

    Returns (size, match_left, match_right) with -1 marking unmatched
    vertices. The first phase is a greedy pass in row order: with every
    left vertex free, the phase's shortest augmenting paths are single
    edges and its DFS matches each row to its first free right vertex, so
    the pass finds the same matching without the BFS layering. It lists
    the rows it leaves free, in row order, and each later phase takes them
    as its BFS sources and DFS roots (an augmenting path passes through
    matched rows only, so each root is still free on its turn), then carries
    those still free to the next: a matched row never becomes free again,
    so no phase rescans every row. Unreached rows sit at layer ``far``. The
    DFS is iterative, so long alternating paths are safe.
    """
    n_left = len(adjacency)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    free: list[int] = []
    for u, row in enumerate(adjacency):
        for v in row:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                break
        else:
            free.append(u)

    far = n_left + 1
    while free:
        dist = [far] * n_left
        for u in free:
            dist[u] = 0
        queue = deque(free)
        shortest = far
        while queue:
            u = queue.popleft()
            layer = dist[u] + 1
            if layer > shortest:
                continue
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    if shortest == far:
                        shortest = layer
                elif dist[w] == far:
                    dist[w] = layer
                    queue.append(w)
        if shortest == far:
            break
        for root in free:
            # frames: (row, its remaining neighbors, the layer after the row's)
            stack: list[tuple[int, Iterator[int], int]] = [(root, iter(adjacency[root]), 1)]
            entered_via: list[int] = []  # right vertex used to reach each non-root frame
            while stack:
                u, neighbors, layer = stack[-1]
                for v in neighbors:
                    w = match_r[v]
                    if w == -1:  # augment along the stack, which empties it
                        match_l[u] = v
                        match_r[v] = u
                        stack.pop()
                        while stack:
                            pu = stack.pop()[0]
                            pv = entered_via.pop()
                            match_l[pu] = pv
                            match_r[pv] = pu
                        break
                    if dist[w] == layer:
                        stack.append((w, iter(adjacency[w]), layer + 1))
                        entered_via.append(v)
                        break
                else:  # a dead end for this phase
                    dist[u] = far
                    stack.pop()
                    if entered_via:
                        entered_via.pop()
        free = [u for u in free if match_l[u] == -1]
    return n_left - len(free), match_l, match_r


def min_cost_perfect_matching(
    adjacency: Sequence[Sequence[int]],
    weights: Sequence[Optional[Sequence[float]]],
    stats: Optional[dict] = None,
) -> Optional[tuple[list[int], float]]:
    """Minimum-cost perfect matching, or None when no perfect matching exists.

    ``adjacency[l]`` is the sorted row of right vertices joined to left
    vertex l, on ``len(adjacency)`` vertices a side; ``weights[l]`` is None
    when every edge of row l costs 0, else the row's finite edge costs in
    its order (an empty list reads as None). Rows are never copied or
    changed. Returns the right vertex matched to each left vertex and the
    total cost, summed in left order.

    Sparse successive shortest paths (Jonker & Volgenant 1987). Left
    potentials start at the row minima (0 on a None row), right ones at 0;
    a Hopcroft-Karp matching on the edges at their row minimum (a None row
    whole) is then optimal for its size, and each of the d units it lacks
    is added along a shortest augmenting path found by Dijkstra on the
    reduced costs; O(E sqrt(V) + d E log V). Only the rows with costs are
    visited to set up the potentials and warm rows and to total the
    result, the others being read as they are. Ties follow the sorted rows,
    which are scanned in order, and heap ties break by vertex index, so
    adding a constant to every cost changes nothing. When given,
    ``stats["augmentations"]`` receives the number of shortest paths run.
    """
    n = len(adjacency)
    weighted = list(compress(range(n), weights))  # the rows with a nonempty cost list
    u = [0] * n
    v = [0] * n
    warm_rows = list(adjacency)
    for l in weighted:
        costs = weights[l]
        u[l] = ul = min(costs)
        warm_rows[l] = [r for r, c in zip(adjacency[l], costs) if c == ul]
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
    total = 0  # added one by one, as cost_of does: sum() compensates rounding from 3.12 on
    for l in weighted:
        total += weights[l][adjacency[l].index(match_l[l])]
    return match_l, total
