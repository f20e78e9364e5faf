import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedsel import (
    Condensation,
    CostMatrix,
    DimensionError,
    FeedbackPattern,
    StructuredSystem,
    condense,
    reduce_set_cover,
)
from feedsel.graphs import (
    BipartiteGraph,
    ClosedLoopIndex,
    hopcroft_karp,
    is_line_dag,
    min_cost_perfect_matching,
    missing_path_links,
    state_bipartite,
    strongly_connected_components,
)
from feedsel.generators import random_line_system
from tests.conftest import (
    brute_force_min_cost_perfect_matching,
    closed_loop_cost_rows,
    dense_cost_rows,
    dense_min_cost_assignment,
    fig1_cover_instance,
    maxflow_matching_size,
    reference_hopcroft_karp,
    reference_successors,
    scc_partition_by_closure,
    section5_system,
)


def fig1_system():
    system, costs = reduce_set_cover(fig1_cover_instance())
    return system, costs


# ---------------------------------------------------------------------------
# the closed-loop index


def test_state_digraph_single_entry():
    system = StructuredSystem(n=2, m=0, p=0, a_edges=frozenset({(1, 2)}))
    index = ClosedLoopIndex(system)
    assert list(index.edges()) == [(2, 1)]  # x2 -> x1
    assert index.successors() == [[], [], [1]]


def test_state_digraph_empty():
    system = StructuredSystem(n=3, m=0, p=0)
    assert list(ClosedLoopIndex(system).edges()) == []


def test_state_digraph_fig1_topology():
    system, _ = fig1_system()
    n = system.n
    state_edges = {(t, h) for t, h in ClosedLoopIndex(system).edges() if t <= n and h <= n}
    self_loops = {(v, v) for v in range(1, 7)}
    hub_edges = {(6, i) for i in range(1, 6)}
    assert state_edges == self_loops | hub_edges


def test_closed_loop_digraph_adds_feedback_edge():
    system, _ = fig1_system()
    index = ClosedLoopIndex(system)
    # y1 is vertex 6+1+1 = 8, u1 is vertex 7
    assert index.feedback_edges([(1, 1)]) == [(8, 7)]
    assert index.successors([(1, 1)])[8] == [7]
    assert index.labels[8] == "y1" and index.labels[7] == "u1"


def test_closed_loop_digraph_empty_pattern_has_no_feedback():
    system, _ = fig1_system()
    index = ClosedLoopIndex(system)
    assert index.feedback_edges([]) == []
    edges = list(index.edges())
    assert len([e for e in edges if index.labels[e[0]][0] == "u"]) == 1
    assert len([e for e in edges if index.labels[e[1]][0] == "y"]) == 7
    outputs = range(system.n + system.m + 1, index.vertex_count + 1)
    assert all(index.successors()[y] == [] for y in outputs)


def test_closed_loop_digraph_rejects_out_of_range_link():
    system, _ = fig1_system()
    for link in [(2, 1), (0, 1), (1, 0), (1, 4)]:
        with pytest.raises(DimensionError, match=re.escape(f"link {link} out of range for m=1, p=3")):
            ClosedLoopIndex(system).check_links([(1, 1), link])
    assert ClosedLoopIndex(system).check_links({(1, 3)}) == [(1, 3)]


def test_overlay_copies_only_the_rows_its_links_change(section5):
    system, _ = section5
    index = ClosedLoopIndex(system)
    base_succ, base_adj = index.successors(), index.adjacency()
    snapshot = ([list(row) for row in base_succ], [list(row) for row in base_adj])
    links = [(2, 3), (1, 1), (4, 3)]
    succ, adj = index.successors(links), index.adjacency(links)
    y1, y3 = system.n + system.m + 1, system.n + system.m + 3
    u1, u2, u4 = system.n + 1, system.n + 2, system.n + 4
    assert succ[y3] == [u2, u4] and succ[y1] == [u1]
    assert adj[u2 - 1] == [u2 - 1, y3 - 1] and adj[u4 - 1] == [u4 - 1, y3 - 1]
    changed_succ, changed_adj = {y1, y3}, {u1 - 1, u2 - 1, u4 - 1}
    for v, row in enumerate(succ):
        assert (row is base_succ[v]) == (v not in changed_succ)
    for v, row in enumerate(adj):
        assert (row is base_adj[v]) == (v not in changed_adj)
    assert ([list(row) for row in index.successors()], [list(row) for row in index.adjacency()]) == snapshot


def _reaches(succ, start, goal):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def test_closed_loop_digraph_reference_cycle(section5):
    system, _ = section5
    succ = ClosedLoopIndex(system).successors([(2, 3)])
    u2 = system.n + 2
    y3 = system.n + system.m + 3
    assert _reaches(succ, u2, y3) and _reaches(succ, y3, u2)


def _lists_from_edges(index):
    """The base successor and adjacency lists built from ``index.edges()``."""
    succ = [[] for _ in range(index.vertex_count + 1)]
    adj = [[] for _ in range(index.vertex_count)]
    for tail, head in index.edges():
        succ[tail].append(head)
        adj[head - 1].append(tail - 1)
    for v in range(index.system.n, index.vertex_count):
        adj[v].append(v)
    return succ, [sorted(row) for row in adj]


def _generated_systems():
    yield section5_system()
    yield fig1_system()
    for seed in range(12):
        yield random_line_system(
            seed, scc_count=1 + seed % 6, n_inputs=1 + seed % 4, n_outputs=1 + seed % 3,
            perfect_matching=seed % 2 == 0,
        )


def test_successor_lists_agree_with_fast_builder():
    for system, costs in _generated_systems():
        index = ClosedLoopIndex(system)
        # Built from the edge fields directly, in the order of edges().
        assert (index.successors(), index.adjacency()) == _lists_from_edges(index)
        pattern = FeedbackPattern(frozenset(costs.finite_links()[::2]))
        fast = index.successors(pattern.links)
        slow = reference_successors(system, pattern)
        assert [sorted(row) for row in fast] == [sorted(row) for row in slow]


# ---------------------------------------------------------------------------
# condensation


def test_condense_reference_system(section5):
    system, _ = section5
    cond = condense(system)
    assert [sorted(s) for s in cond.sccs] == [
        [1, 2, 3], [4, 5], [6], [7, 8, 9, 10, 11],
    ]
    assert cond.sccs[3] >= frozenset({7, 8, 9, 10})
    assert sorted(cond.dag_edges) == [(1, 2), (2, 3), (3, 4)]
    assert [sorted(s) for s in cond.input_incidence] == [[1, 2], [2], [3], [3, 4]]
    assert [sorted(s) for s in cond.output_incidence] == [[1], [], [2], [3]]
    assert 1 in cond.sccs[0] and 6 in cond.sccs[2] and 11 in cond.sccs[3]
    assert cond.non_top_linked_sccs() == [1] and cond.non_bottom_linked_sccs() == [4]


def test_condense_single_self_loop_vertex():
    system = StructuredSystem(n=1, m=0, p=0, a_edges=frozenset({(1, 1)}))
    cond = condense(system)
    assert cond.scc_count == 1
    assert cond.non_top_linked_sccs() == [1] and cond.non_bottom_linked_sccs() == [1]


def test_condense_fig1_has_unique_source():
    system, _ = fig1_system()
    cond = condense(system)
    assert cond.scc_count == 6
    sources = cond.non_top_linked_sccs()
    assert len(sources) == 1
    assert cond.sccs[sources[0] - 1] == frozenset({6})
    assert len(cond.non_bottom_linked_sccs()) == 5


def test_condense_dag_edges_respect_topological_order():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.3
        }
        cond = condense(StructuredSystem(n=n, m=0, p=0, a_edges=frozenset(edges)))
        assert all(a < b for a, b in cond.dag_edges)
        assert sorted(s for scc in cond.sccs for s in scc) == list(range(1, n + 1))


def test_condense_matches_transitive_closure_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.35
        }
        system = StructuredSystem(n=n, m=0, p=0, a_edges=frozenset(edges))
        cond = condense(system)
        succ = [[] for _ in range(n + 1)]
        for i, j in edges:
            succ[j].append(i)
        assert set(cond.sccs) == scc_partition_by_closure(succ, n)


def test_condense_isomorphic_under_relabeling():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.3
        }
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabel = {v: perm[v - 1] for v in range(1, n + 1)}
        original = condense(StructuredSystem(n=n, m=0, p=0, a_edges=frozenset(edges)))
        mapped = condense(
            StructuredSystem(
                n=n, m=0, p=0,
                a_edges=frozenset((relabel[i], relabel[j]) for i, j in edges),
            )
        )
        translated = {frozenset(relabel[s] for s in scc) for scc in original.sccs}
        assert translated == set(mapped.sccs)
        index_map = {
            k: mapped.sccs.index(frozenset(relabel[s] for s in original.sccs[k - 1])) + 1
            for k in range(1, original.scc_count + 1)
        }
        assert {(index_map[a], index_map[b]) for a, b in original.dag_edges} == set(
            mapped.dag_edges
        )


def _chain_condensation(ell, extra=()):
    return Condensation(
        sccs=tuple(frozenset({k}) for k in range(1, ell + 1)),
        dag_edges=frozenset({(k, k + 1) for k in range(1, ell)} | set(extra)),
        input_incidence=tuple(frozenset() for _ in range(ell)),
        output_incidence=tuple(frozenset() for _ in range(ell)),
    )


def test_is_line_dag_reference(section5):
    system, _ = section5
    assert is_line_dag(condense(system))


def test_is_line_dag_rejects_disconnected_pair():
    system = StructuredSystem(n=2, m=0, p=0, a_edges=frozenset({(1, 1), (2, 2)}))
    assert not is_line_dag(condense(system))


def test_spanning_path_with_forward_shortcuts():
    shortcuts = {(1, 6), (2, 4), (3, 5), (2, 5), (4, 6), (1, 4)}
    cond = _chain_condensation(6, extra=shortcuts)
    assert not is_line_dag(cond)
    assert missing_path_links(cond) == []


def test_spanning_path_absent_with_two_sources():
    system = StructuredSystem(
        n=3, m=0, p=0, a_edges=frozenset({(1, 1), (2, 2), (3, 3), (3, 1), (3, 2)})
    )
    cond = condense(system)
    assert missing_path_links(cond) == [(1, 2)]


def test_strict_line_has_identity_spanning_path():
    cond = _chain_condensation(4)
    assert is_line_dag(cond)
    assert missing_path_links(cond) == []


# ---------------------------------------------------------------------------
# bipartite graphs and matchings


def test_state_bipartite_fig1_has_perfect_matching():
    system, _ = fig1_system()
    graph = state_bipartite(system)
    assert hopcroft_karp(graph.adjacency, system.n)[0] == system.n


def test_state_bipartite_lower_triangular_has_no_perfect_matching():
    # Strictly lower-triangular pattern: row 1 is empty, so x'_1 is isolated.
    system = StructuredSystem(
        n=4, m=0, p=0,
        a_edges=frozenset((i, j) for i in range(2, 5) for j in range(1, i)),
    )
    graph = state_bipartite(system)
    assert hopcroft_karp(graph.adjacency, system.n)[0] < system.n


def test_state_bipartite_diagonal_matches_everything():
    system = StructuredSystem(n=5, m=0, p=0, a_edges=frozenset((i, i) for i in range(1, 6)))
    assert hopcroft_karp(state_bipartite(system).adjacency, 5)[0] == 5


def test_closed_loop_bipartite_pads_with_identity_edges():
    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 2)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    index = ClosedLoopIndex(system)
    assert hopcroft_karp(index.adjacency(), index.vertex_count)[0] == 4


def test_closed_loop_bipartite_reference_full_pattern(section5):
    system, _ = section5
    full = FeedbackPattern(frozenset((i, j) for i in range(1, 5) for j in range(1, 4)))
    index = ClosedLoopIndex(system)
    size, _, _ = hopcroft_karp(index.adjacency(full.sorted_links()), index.vertex_count)
    assert size == system.n + system.m + system.p


def test_closed_loop_bipartite_degenerates_to_state_bipartite():
    system = StructuredSystem(n=3, m=0, p=0, a_edges=frozenset({(1, 2), (2, 3)}))
    assert ClosedLoopIndex(system).adjacency() == state_bipartite(system).adjacency


def test_max_matching_complete_3x3():
    graph = BipartiteGraph(
        left=("a", "b", "c"),
        right=("d", "e", "f"),
        edges=frozenset((l, r) for l in range(3) for r in range(3)),
    )
    assert hopcroft_karp(graph.adjacency, len(graph.right))[0] == 3


def test_max_matching_star():
    graph = BipartiteGraph(
        left=("hub",), right=("a", "b", "c"), edges=frozenset((0, r) for r in range(3))
    )
    assert hopcroft_karp(graph.adjacency, len(graph.right))[0] == 1


def test_max_matching_agrees_with_flow_oracle():
    rng = random.Random(41)
    for _ in range(60):
        n_left = rng.randint(1, 12)
        n_right = rng.randint(1, 12)
        adjacency = [
            sorted({rng.randrange(n_right) for _ in range(rng.randint(0, 4))})
            for _ in range(n_left)
        ]
        size, _, _ = hopcroft_karp(adjacency, n_right)
        assert size == maxflow_matching_size(adjacency, n_left, n_right)


@settings(max_examples=300, deadline=None)
@given(
    n_right=st.integers(1, 10),
    rows=st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=10),
)
def test_greedy_first_phase_matches_like_the_bfs_and_dfs_phase(n_right, rows):
    adjacency = [[v % n_right for v in row] for row in rows]
    assert hopcroft_karp(adjacency, n_right) == reference_hopcroft_karp(adjacency, n_right)


def test_greedy_first_phase_matches_like_the_bfs_and_dfs_phase_on_closed_loops():
    for system, costs in _generated_systems():
        index = ClosedLoopIndex(system)
        links = costs.finite_links()
        for chosen in (links, links[::2], links[1::3], []):
            adjacency = index.adjacency(chosen)
            expected = reference_hopcroft_karp(adjacency, index.vertex_count)
            assert hopcroft_karp(adjacency, index.vertex_count) == expected


def test_tarjan_agrees_with_closure_on_mixed_graphs():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        succ = [[] for _ in range(n + 1)]
        for v in range(1, n + 1):
            for w in range(1, n + 1):
                if rng.random() < 0.3:
                    succ[v].append(w)
        parts = {frozenset(c) for c in strongly_connected_components(succ)}
        assert parts == scc_partition_by_closure(succ, n)


def _cost_rows(matrix):
    return [[(r, c) for r, c in enumerate(row) if c != math.inf] for row in matrix]


def test_min_cost_perfect_matching_prefers_diagonal():
    result = min_cost_perfect_matching(_cost_rows([[0, 1], [1, 0]]))
    assert result is not None
    match_left, total = result
    assert total == 0 and match_left == [0, 1]


def test_min_cost_perfect_matching_infeasible_when_vertex_isolated():
    assert min_cost_perfect_matching([[(0, 0)], [(0, 0)]]) is None


def test_min_cost_perfect_matching_agrees_with_permutation_oracle():
    rng = random.Random(57)
    for _ in range(40):
        n = 6
        rows = [
            [math.inf if rng.random() < 0.25 else rng.randint(0, 50) for _ in range(n)]
            for _ in range(n)
        ]
        expected = brute_force_min_cost_perfect_matching(rows)
        result = min_cost_perfect_matching(_cost_rows(rows))
        if expected is None:
            assert result is None
        else:
            assert result is not None
            assert result[1] == expected[0]


def test_min_cost_perfect_matching_shift_invariance():
    rng = random.Random(91)
    for _ in range(20):
        n = 5
        rows = [[rng.randint(0, 40) for _ in range(n)] for _ in range(n)]
        base = min_cost_perfect_matching(_cost_rows(rows))
        assert base is not None
        delta = rng.randint(1, 9)
        shifted_rows = [[c + delta for c in row] for row in rows]
        shifted = min_cost_perfect_matching(_cost_rows(shifted_rows))
        assert shifted is not None
        assert shifted[0] == base[0]  # same optimal edge set
        assert shifted[1] == base[1] + n * delta


def _assert_agrees_with_dense_reference(rows):
    expected = dense_min_cost_assignment(dense_cost_rows(rows))
    result = min_cost_perfect_matching(rows)
    if expected is None:
        assert result is None
        return
    assert result is not None
    match_left, total = result
    assert total == expected[1]
    assert list(range(len(match_left))) == sorted(match_left) == list(range(len(rows)))
    assert all(r in dict(rows[l]) for l, r in enumerate(match_left))
    assert total == sum(dict(rows[l])[r] for l, r in enumerate(match_left))


_square_costs = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(st.just(math.inf), st.just(0), st.integers(0, 30)),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300, deadline=None)
@given(rows=_square_costs)
def test_min_cost_matching_agrees_with_dense_reference_on_square_costs(rows):
    _assert_agrees_with_dense_reference(_cost_rows(rows))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    perfect_matching=st.booleans(),
    overrides=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0, 1, math.inf])),
        max_size=8,
    ),
)
def test_min_cost_matching_agrees_with_dense_reference_on_closed_loop_graphs(
    seed, perfect_matching, overrides
):
    system, costs = random_line_system(
        seed,
        scc_count=3,
        n_inputs=4,
        n_outputs=4,
        cost_range=(1, 20),
        perfect_matching=perfect_matching,
    )
    rows = [list(row) for row in costs.rows]
    for i, j, value in overrides:
        rows[i][j] = value  # zero-cost ties and forbidden links
    costs = CostMatrix.from_rows(rows)
    _assert_agrees_with_dense_reference(closed_loop_cost_rows(system, costs))
