import hashlib
import heapq
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
    PreconditionError,
    StructuredSystem,
    check_no_sfm,
    condense,
    dp_cover,
    exact_oracle,
    min_cost_condition_b,
    reduce_set_cover,
    solve_dp,
    two_stage,
)
from feedsel import graphs, sfm
from feedsel.dot import condensation_to_dot, system_to_dot
from feedsel.graphs import (
    hopcroft_karp,
    min_cost_perfect_matching,
    missing_path_links,
    scc_ids,
    state_bipartite,
)
from feedsel.generators import random_line_system
from feedsel.sfm import _has_cycle_family, _has_state_perfect_matching
from tests.conftest import (
    brute_force_min_cost_perfect_matching,
    closed_loop_cost_rows,
    dense_cost_rows,
    dense_min_cost_assignment,
    fig1_cover_instance,
    maxflow_matching_size,
    random_system,
    reference_condense,
    reference_greedy_start_hopcroft_karp,
    reference_hopcroft_karp,
    reference_loop_rows,
    reference_min_cost_perfect_matching,
    reference_state_bipartite_rows,
    reference_state_rows,
    reference_strongly_connected_components,
    reference_successors,
    scc_partition_by_closure,
    section5_system,
)


def fig1_system():
    system, costs = reduce_set_cover(fig1_cover_instance())
    return system, costs


# ---------------------------------------------------------------------------
# the closed-loop rows of a system


def test_state_digraph_single_entry():
    system = StructuredSystem(n=2, m=0, p=0, a_edges=frozenset({(1, 2)}))
    assert list(system.edges()) == [(2, 1)]  # x2 -> x1
    assert system.loop_rows() == [[], [2], []]  # x1's row holds its predecessor x2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(0, 3), p=st.integers(0, 3))
def test_state_rows_equal_the_edge_built_and_loop_row_references(seed, n, m, p):
    rng = random.Random(seed)
    system, _ = random_system(rng, n=n, m=m, p=p, a_density=rng.uniform(0, 0.6))
    rows = system.state_rows
    # Row i: the sorted predecessors x_j of x_i, one per a_edge (i, j); row 0 unused.
    assert rows == reference_state_rows(system)
    # The loop rows of the states, with their input ids (n + 1 and up) dropped.
    assert rows[1:] == [[w for w in row if w <= n] for row in system.loop_rows()[1:n + 1]]
    assert state_bipartite(system).adjacency == reference_state_bipartite_rows(system)


def _random_instance(rng, line):
    """A random line system with its costs, or a random system with random costs."""
    if line:
        return random_line_system(
            rng, scc_count=rng.randint(1, 5), n_inputs=rng.randint(1, 4),
            n_outputs=rng.randint(1, 4), perfect_matching=rng.random() < 0.5,
        )
    n, m, p = rng.randint(1, 10), rng.randint(0, 3), rng.randint(0, 3)
    system, _ = random_system(rng, n=n, m=m, p=p, a_density=rng.uniform(0, 0.6))
    costs = [[rng.choice([1, 2, 5, math.inf]) for _ in range(p)] for _ in range(m)]
    return system, CostMatrix.from_rows(costs)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), line=st.booleans())
def test_loop_rows_lay_the_sorted_inputs_over_the_state_rows_reference(seed, line):
    rng = random.Random(seed)
    system, _ = _random_instance(rng, line)
    n = system.n
    rows, states = system.loop_rows(), system.state_rows
    for i in range(1, n + 1):
        inputs = sorted(n + j for k, j in system.b_edges if k == i)
        assert rows[i] == states[i] + inputs
        if not inputs:  # shared, not copied
            assert rows[i] is states[i]
    assert states == reference_state_rows(system)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), line=st.booleans())
def test_state_rows_stay_the_edge_built_reference_after_every_closed_loop_use(seed, line):
    # One system object through every reader of its cached rows: none may change them.
    rng = random.Random(seed)
    system, costs = _random_instance(rng, line)
    links = costs.finite_links()
    chosen = FeedbackPattern(frozenset(link for link in links if rng.random() < 0.5))
    states, base = system.state_rows, system.loop_rows()
    condense(system)
    system.loop_rows(chosen.links)
    system.loop_rows(links)
    min_cost_condition_b(system, costs)
    check_no_sfm(system, chosen)
    for solver in (two_stage, solve_dp):
        try:
            solver(system, costs)
        except PreconditionError:  # no line order, or solve_dp's failed cycle test
            pass
    assert len(links) <= 24
    exact_oracle(system, costs, budget=24)
    system_to_dot(system, chosen)
    condensation_to_dot(condense(system))
    assert system.state_rows is states and system.state_rows == reference_state_rows(system)
    assert system.loop_rows() == base == reference_loop_rows(system)


def test_state_digraph_empty():
    system = StructuredSystem(n=3, m=0, p=0)
    assert list(system.edges()) == []


def test_state_digraph_fig1_topology():
    system, _ = fig1_system()
    n = system.n
    state_edges = {(t, h) for t, h in system.edges() if t <= n and h <= n}
    self_loops = {(v, v) for v in range(1, 7)}
    hub_edges = {(6, i) for i in range(1, 6)}
    assert state_edges == self_loops | hub_edges


def test_closed_loop_digraph_adds_feedback_edge():
    system, _ = fig1_system()
    # y1 is vertex 6+1+1 = 8, u1 is vertex 7
    assert system.feedback_edges([(1, 1)]) == [(8, 7)]
    assert system.loop_rows([(1, 1)])[7] == [7, 8]  # u1's self-loop, then y1 fed back
    assert (system.n, system.m, system.vertex_count) == (6, 1, 10)  # u1 is 7, y1..y3 are 8..10


def test_closed_loop_digraph_empty_pattern_has_no_feedback():
    system, _ = fig1_system()
    assert system.feedback_edges([]) == []
    edges = list(system.edges())
    inputs = range(system.n + 1, system.n + system.m + 1)
    outputs = range(system.n + system.m + 1, system.vertex_count + 1)
    assert len([e for e in edges if e[0] in inputs]) == 1
    assert len([e for e in edges if e[1] in outputs]) == 7
    assert all(e[0] not in outputs and e[1] not in inputs for e in edges)
    rows = system.loop_rows()
    assert all(rows[u] == [u] for u in inputs)
    assert all(rows[y][-1] == y and len(rows[y]) > 1 for y in outputs)


def test_closed_loop_digraph_rejects_out_of_range_link():
    system, _ = fig1_system()
    for link in [(2, 1), (0, 1), (1, 0), (1, 4)]:
        with pytest.raises(DimensionError, match=re.escape(f"link {link} out of range for m=1, p=3")):
            system.check_links([(1, 1), link])
    assert system.check_links({(1, 3)}) == [(1, 3)]


def test_overlay_copies_only_the_rows_its_links_change(section5):
    system, _ = section5
    base = system.loop_rows()
    snapshot = [list(row) for row in base]
    links = [(2, 3), (1, 1), (4, 3), (2, 1)]
    rows = system.loop_rows(links)
    y1, y3 = system.n + system.m + 1, system.n + system.m + 3
    u1, u2, u4 = system.n + 1, system.n + 2, system.n + 4
    assert rows[u2] == [u2, y1, y3] and rows[u4] == [u4, y3] and rows[u1] == [u1, y1]
    for v, row in enumerate(rows):
        assert (row is base[v]) == (v not in {u1, u2, u4})
    assert [list(row) for row in system.loop_rows()] == snapshot


def test_loop_rows_sort_the_links_they_are_given(monkeypatch):
    # n = 1, m = 1, p = 8: u1 is vertex 2 and y_j is vertex 2 + j.
    system = StructuredSystem(
        n=1, m=1, p=8, a_edges={(1, 1)}, b_edges={(1, 1)}, c_edges={(j, 1) for j in range(1, 9)},
    )
    assert system.loop_rows([(1, 6), (1, 1)])[2] == [2, 3, 8]
    # check_no_sfm hands a pattern's links over in set order; the rows it matches stay sorted.
    matched = []

    def recording(rows):
        matched.append(rows)
        return _has_cycle_family(rows)

    monkeypatch.setattr(sfm, "_has_cycle_family", recording)
    rng = random.Random(6)
    every_link = [(1, j) for j in range(1, 9)]
    for _ in range(100):
        check_no_sfm(system, FeedbackPattern(frozenset(rng.sample(every_link, rng.randint(2, 8)))))
    assert len(matched) == 100
    assert all(row == sorted(row) for rows in matched for row in rows)


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
    rows = system.loop_rows([(2, 3)])
    u2 = system.n + 2
    y3 = system.n + system.m + 3
    assert _reaches(rows, u2, y3) and _reaches(rows, y3, u2)


def _self_closed(system, rows):
    """``rows`` with the vertex itself appended to each input and output row."""
    return [row if v <= system.n else row + [v] for v, row in enumerate(rows)]


def _predecessors(succ):
    """Successor rows turned into predecessor rows, in tail order."""
    pred = [[] for _ in succ]
    for tail, heads in enumerate(succ):
        for head in heads:
            pred[head].append(tail)
    return pred


def _rows_from_edges(system):
    """The base loop rows built from ``system.edges()``, sorted row by row."""
    succ = [[] for _ in range(system.vertex_count + 1)]
    for tail, head in system.edges():
        succ[tail].append(head)
    return _self_closed(system, [sorted(row) for row in _predecessors(succ)])


def _generated_systems():
    yield section5_system()
    yield fig1_system()
    for seed in range(12):
        yield random_line_system(
            seed, scc_count=1 + seed % 6, n_inputs=1 + seed % 4, n_outputs=1 + seed % 3,
            perfect_matching=seed % 2 == 0,
        )


def test_loop_rows_equal_the_edge_built_reference():
    for system, costs in _generated_systems():
        # Built from the edge fields directly, sorted row by row.
        assert system.loop_rows() == _rows_from_edges(system) == reference_loop_rows(system)
        pattern = FeedbackPattern(frozenset(costs.finite_links()[::2]))
        fast = system.loop_rows(pattern.links)
        slow = _self_closed(system, _predecessors(reference_successors(system, pattern)))
        inputs = range(system.n + 1, system.n + system.m + 1)
        outputs = range(system.n + system.m + 1, system.vertex_count + 1)
        assert all(fast[u][0] == u for u in inputs) and all(fast[y][-1] == y for y in outputs)
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


CONDENSE_BENCH_SIZE_DIGEST = "18cc11aa11001628d03905b4611a92e750fca76827d040f93a30c9c3fcc628aa"


def _condensation_fields(cond):
    return (
        [sorted(s) for s in cond.sccs],
        sorted(cond.dag_edges),
        [sorted(s) for s in cond.input_incidence],
        [sorted(s) for s in cond.output_incidence],
    )


def test_condense_bench_size_digest():
    """condense on 500- and 1000-SCC perfect-matching chains and 300-SCC nopm lines."""
    records = []
    shapes = (
        (500, (1, 3), 50, 50, True),
        (1000, (1, 3), 50, 50, True),
        (300, (2, 2), 20, 20, False),
    )
    for scc_count, size_range, n_inputs, n_outputs, pm in shapes:
        for seed in range(3):
            system, _ = random_line_system(
                seed, scc_count=scc_count, scc_size_range=size_range,
                n_inputs=n_inputs, n_outputs=n_outputs, perfect_matching=pm,
            )
            records.append((scc_count, pm, seed, *_condensation_fields(condense(system))))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CONDENSE_BENCH_SIZE_DIGEST


def _assert_condenses_like_reference(system):
    cond, expected = condense(system), reference_condense(system)
    assert cond.sccs == expected.sccs
    assert cond.dag_edges == expected.dag_edges
    assert cond.input_incidence == expected.input_incidence
    assert cond.output_incidence == expected.output_incidence


def test_lazy_scc_sets_equal_the_reference_read_before_or_after_the_rest():
    rng = random.Random(19)
    systems = [random_line_system(seed, scc_count=1 + seed % 7)[0] for seed in range(15)]
    systems += [_random_line(rng, extra_forward=3) for _ in range(15)]
    systems += [
        random_system(rng, n=rng.randint(1, 9), m=2, p=2, a_density=rng.random())[0]
        for _ in range(30)
    ]
    for system in systems:
        expected = reference_condense(system)
        first, later = condense(system), condense(system)
        assert first.sccs == expected.sccs
        for cond in (first, later):
            assert cond.scc_count == expected.scc_count
            assert cond.dag_edges == expected.dag_edges
            assert cond.input_incidence == expected.input_incidence
            assert cond.output_incidence == expected.output_incidence
        assert later.sccs == expected.sccs
        assert first.sccs is first.sccs  # built once and kept


def _with_io(rng, n, a_edges, m=3, p=3):
    """A system on ``a_edges`` with a few random input and output edges."""
    return StructuredSystem(
        n=n, m=m, p=p,
        a_edges=frozenset(a_edges),
        b_edges=frozenset((rng.randint(1, n), rng.randint(1, m)) for _ in range(rng.randint(0, 4))),
        c_edges=frozenset((rng.randint(1, p), rng.randint(1, n)) for _ in range(rng.randint(0, 4))),
    )


def _random_line(rng, extra_forward=0):
    """Cycles of shuffled states in a chain, each joined to the next, plus forward edges."""
    ell = rng.randint(1, 9)
    sizes = [rng.randint(1, 3) for _ in range(ell)]
    states = list(range(1, sum(sizes) + 1))
    rng.shuffle(states)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(states[start:start + size])
        start += size
    edges = set()
    for block in blocks:  # x_j -> x_i is the pair (i, j)
        if len(block) == 1 and rng.random() < 0.5:
            edges.add((block[0], block[0]))
        for k, j in enumerate(block):
            if len(block) > 1:
                edges.add((block[(k + 1) % len(block)], j))
    for upper, lower in zip(blocks, blocks[1:]):
        edges.add((rng.choice(lower), rng.choice(upper)))
    for _ in range(extra_forward if ell > 2 else 0):
        a = rng.randrange(ell - 1)
        b = rng.randrange(a + 1, ell)
        edges.add((rng.choice(blocks[b]), rng.choice(blocks[a])))
    return _with_io(rng, len(states), edges)


class _CountingHeapq:
    """Stands in for ``heapq`` in ``graphs`` and counts heapify calls."""

    def __init__(self):
        self.heapify_calls = 0

    def heapify(self, heap):
        self.heapify_calls += 1
        heapq.heapify(heap)

    heappush = staticmethod(heapq.heappush)
    heappop = staticmethod(heapq.heappop)


def test_condense_line_fast_path_agrees_with_reference(monkeypatch):
    counter = _CountingHeapq()
    monkeypatch.setattr(graphs, "heapq", counter)
    rng = random.Random(41)
    for k in range(300):
        _assert_condenses_like_reference(_random_line(rng, extra_forward=k % 4))
    for seed in range(20):
        system, _ = random_line_system(
            seed, scc_count=1 + seed % 8, n_inputs=1 + seed % 3, n_outputs=1 + seed % 4,
            perfect_matching=seed % 3 != 0,
        )
        _assert_condenses_like_reference(system)
    assert counter.heapify_calls == 0  # every line takes the fast path


@pytest.mark.parametrize(
    "n, a_edges",
    [
        (3, {(1, 1), (2, 2), (3, 3), (3, 1), (3, 2)}),  # two sources
        (4, {(2, 1), (3, 1), (4, 2), (4, 3)}),  # diamond
        (4, {(2, 1), (3, 1), (4, 2), (4, 3), (4, 1)}),  # diamond with a shortcut
        (5, {(2, 2), (4, 4)}),  # isolated states
        (6, {(5, 4), (4, 5), (3, 5), (1, 6)}),  # two chains side by side
    ],
)
def test_condense_kahn_path_agrees_with_reference(monkeypatch, n, a_edges):
    counter = _CountingHeapq()
    monkeypatch.setattr(graphs, "heapq", counter)
    _assert_condenses_like_reference(_with_io(random.Random(n), n, a_edges))
    assert counter.heapify_calls == 1


def test_condense_agrees_with_reference_on_random_digraphs():
    rng = random.Random(43)
    for _ in range(400):
        n = rng.randint(1, 10)
        density = rng.choice((0.05, 0.15, 0.3, 0.5))
        edges = {
            (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density
        }
        _assert_condenses_like_reference(_with_io(rng, n, edges))


def _chain_condensation(ell, extra=()):
    return Condensation(
        sccs=tuple(frozenset({k}) for k in range(1, ell + 1)),
        dag_edges=frozenset({(k, k + 1) for k in range(1, ell)} | set(extra)),
        input_incidence=tuple(frozenset() for _ in range(ell)),
        output_incidence=tuple(frozenset() for _ in range(ell)),
    )


def test_hand_built_condensation_rejects_inconsistent_fields():
    f = frozenset
    three = (f({1}), f({2}), f({3}))
    edges = f({(1, 2), (2, 3)})
    with pytest.raises(DimensionError, match=re.escape("input_incidence has 4 entries for 3 SCCs")):
        Condensation(sccs=three, dag_edges=edges, input_incidence=(f({1}),) * 4,
                     output_incidence=(f({1}),) * 3)
    with pytest.raises(DimensionError, match=re.escape("output_incidence has 2 entries for 3 SCCs")):
        Condensation(sccs=three, dag_edges=edges, input_incidence=(f({1}),) * 3,
                     output_incidence=(f({1}),) * 2)
    for edge in [(2, 5), (0, 1), (2, 1), (2, 2)]:
        with pytest.raises(DimensionError, match=re.escape(f"DAG edge {edge} is not 1 <= source < target <= 3")):
            Condensation(sccs=three, dag_edges=edges | {edge}, input_incidence=(f(),) * 3,
                         output_incidence=(f(),) * 3)
    # A chain whose incidence runs past its SCCs no longer reaches the DP.
    with pytest.raises(DimensionError, match="input_incidence has 4 entries"):
        dp_cover(Condensation(sccs=three, dag_edges=edges, input_incidence=(f({1}),) * 4,
                              output_incidence=(f({1}),) * 4), CostMatrix.from_rows([[5]]))
    consistent = Condensation(sccs=three, dag_edges=edges, input_incidence=(f({1}),) * 3,
                              output_incidence=(f({1}),) * 3)
    assert consistent.scc_count == 3 and dp_cover(consistent, CostMatrix.from_rows([[5]])).cost == 5
    # Without sccs, the SCC count is that of input_incidence, and the same checks run.
    with pytest.raises(DimensionError, match=re.escape("output_incidence has 4 entries for 3 SCCs")):
        dp_cover(Condensation(dag_edges=edges, input_incidence=(f({1}),) * 3,
                              output_incidence=(f({1}),) * 4), CostMatrix.from_rows([[5]]))
    for edge in [(2, 5), (0, 1), (2, 1)]:
        with pytest.raises(DimensionError, match=re.escape(f"DAG edge {edge} is not 1 <= source < target <= 2")):
            Condensation(dag_edges=f({(1, 2), edge}), input_incidence=(f(),) * 2,
                         output_incidence=(f(),) * 2)
    # No members were given, so there are none to read.
    bare = Condensation(dag_edges=edges, input_incidence=(f({1}),) * 3, output_incidence=(f({1}),) * 3)
    assert bare.scc_count == 3 and dp_cover(bare, CostMatrix.from_rows([[5]])).cost == 5
    with pytest.raises(DimensionError, match="built without its SCC members"):
        bare.sccs


def test_is_line_dag_reference(section5):
    system, _ = section5
    cond = condense(system)
    assert missing_path_links(cond) == []
    assert len(cond.dag_edges) == cond.scc_count - 1


def test_is_line_dag_rejects_disconnected_pair():
    system = StructuredSystem(n=2, m=0, p=0, a_edges=frozenset({(1, 1), (2, 2)}))
    cond = condense(system)
    assert missing_path_links(cond) == [(1, 2)]
    assert cond.dag_edges == frozenset()


def test_spanning_path_with_forward_shortcuts():
    shortcuts = {(1, 6), (2, 4), (3, 5), (2, 5), (4, 6), (1, 4)}
    cond = _chain_condensation(6, extra=shortcuts)
    assert len(cond.dag_edges) == cond.scc_count - 1 + len(shortcuts)
    assert missing_path_links(cond) == []


def test_spanning_path_absent_with_two_sources():
    system = StructuredSystem(
        n=3, m=0, p=0, a_edges=frozenset({(1, 1), (2, 2), (3, 3), (3, 1), (3, 2)})
    )
    cond = condense(system)
    assert missing_path_links(cond) == [(1, 2)]


def test_strict_line_has_identity_spanning_path():
    cond = _chain_condensation(4)
    assert len(cond.dag_edges) == cond.scc_count - 1
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
    assert hopcroft_karp(system.loop_rows(), system.vertex_count + 1)[0] == 4


def test_closed_loop_bipartite_reference_full_pattern(section5):
    system, _ = section5
    full = FeedbackPattern(frozenset((i, j) for i in range(1, 5) for j in range(1, 4)))
    size, _, _ = hopcroft_karp(system.loop_rows(full.sorted_links()), system.vertex_count + 1)
    assert size == system.n + system.m + system.p


def test_state_bipartite_rows_equal_the_edge_built_reference():
    # Systems with inputs and outputs, isolated states and self-loops: the
    # rows are x'_l - x_j for the a_edges (l, j) alone, and they match
    # perfectly exactly when the rows condense ran Tarjan on do.
    rng = random.Random(2317)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 9)
        system, _ = random_system(
            rng, n=n, m=rng.randint(1, 3), p=rng.randint(1, 3), a_density=rng.random() * 0.5
        )
        reference = [sorted(j - 1 for i, j in system.a_edges if i == l) for l in range(1, n + 1)]
        rows = state_bipartite(system).adjacency
        assert rows == reference
        perfect = hopcroft_karp(rows, n)[0] == n
        assert perfect == _has_state_perfect_matching(system)
        touched = {v for edge in system.a_edges for v in edge}
        seen |= {"perfect" if perfect else "deficient"}
        seen |= {"isolated"} if len(touched) < n else set()
        seen |= {"self-loop"} if any(i == j for i, j in system.a_edges) else set()
    assert seen == {"perfect", "deficient", "isolated", "self-loop"}


def test_state_matching_leaves_the_index_state_rows_unchanged():
    # x_1's successors x_1, x_2, x_3 once came out of the edge set as [2, 3, 1], and
    # the state-matching test sorted that list in place.
    system = StructuredSystem(
        n=3, m=0, p=0, a_edges=frozenset({(1, 1), (2, 1), (3, 1), (1, 2), (2, 3), (3, 3)})
    )
    condensation = condense(system)
    rows = system.state_rows
    before = [list(row) for row in rows]
    assert _has_state_perfect_matching(system)
    assert system.state_rows is rows
    assert rows == before == [[], [1, 2], [1, 3], [1, 3]]
    assert not hasattr(condensation, "state_rows")


def test_max_matching_complete_3x3():
    assert hopcroft_karp([[0, 1, 2], [0, 1, 2], [0, 1, 2]], 3)[0] == 3


def test_max_matching_star():
    assert hopcroft_karp([[0, 1, 2]], 3)[0] == 1


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


def _greedy_matching_size(adjacency, n_right: int) -> int:
    taken = [False] * n_right
    size = 0
    for row in adjacency:
        free = next((v for v in row if not taken[v]), None)
        if free is not None:
            taken[free] = True
            size += 1
    return size


def test_greedy_first_phase_matches_like_the_bfs_and_dfs_phase_on_closed_loops():
    augmented = 0
    for system, costs in _generated_systems():
        links = costs.finite_links()
        for chosen in (links, links[::2], links[1::3], []):
            rows = system.loop_rows(chosen)
            expected = reference_hopcroft_karp(rows, len(rows))
            assert hopcroft_karp(rows, len(rows)) == expected
            assert reference_greedy_start_hopcroft_karp(rows, len(rows)) == expected
            augmented += expected[0] > _greedy_matching_size(rows, len(rows))
    assert augmented  # some graphs need BFS and DFS phases after the greedy pass


@settings(max_examples=300, deadline=None)
@given(
    n_right=st.integers(1, 30),
    rows=st.lists(st.sets(st.integers(0, 29), max_size=6), max_size=30),
)
def test_hopcroft_karp_equals_its_greedy_start_reference_on_sorted_rows(n_right, rows):
    adjacency = [sorted({v % n_right for v in row}) for row in rows]
    expected = reference_greedy_start_hopcroft_karp(adjacency, n_right)
    assert hopcroft_karp(adjacency, n_right) == expected


def test_rows_the_greedy_pass_matches_fully_run_no_bfs_phase(monkeypatch):
    """Row u leads with its own right vertex, so the greedy pass matches every row and no
    phase follows: no BFS queue is built."""
    queues = []

    class CountingDeque(graphs.deque):
        def __init__(self, *args):
            queues.append(args)
            super().__init__(*args)

    monkeypatch.setattr(graphs, "deque", CountingDeque)
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 12)
        own = rng.sample(range(n), n)
        adjacency = [[own[u]] + sorted(rng.sample(range(n), rng.randint(0, n))) for u in range(n)]
        size, match_l, _ = hopcroft_karp(adjacency, n)
        assert (size, match_l) == (n, own)
    assert queues == []
    # The greedy pass gives row 0 vertex 0, the second row's only one: one phase augments.
    assert hopcroft_karp([[0, 1], [0]], 2)[:2] == (2, [1, 0])
    assert len(queues) == 1


def test_carried_free_rows_match_the_greedy_start_reference_over_several_phases(monkeypatch):
    """On 60-SCC line systems without a state perfect matching the greedy pass leaves 11-21
    loop rows free and two to four augmenting phases follow, each starting from the rows the
    last one left free. Every phase builds one BFS queue, which counts the phases."""
    phases = []

    class CountingDeque(graphs.deque):
        def __init__(self, *args):
            phases[-1] += 1
            super().__init__(*args)

    most_free = 0
    for seed in range(6):
        system, costs = random_line_system(
            seed, scc_count=60, scc_size_range=(2, 2), n_inputs=5, n_outputs=5, perfect_matching=False,
        )
        links = costs.finite_links()
        for rows in (system.loop_rows(links), system.loop_rows(links[::2]), system.loop_rows()):
            phases.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(graphs, "deque", CountingDeque)
                found = hopcroft_karp(rows, len(rows))
            assert found == reference_greedy_start_hopcroft_karp(rows, len(rows))
            most_free = max(most_free, len(rows) - _greedy_matching_size(rows, len(rows)))
    assert most_free >= 10
    assert max(phases) >= 3  # two augmenting phases, then the one that finds no path


def test_tarjan_agrees_with_closure_on_mixed_graphs():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        succ = [[] for _ in range(n + 1)]
        for v in range(1, n + 1):
            for w in range(1, n + 1):
                if rng.random() < 0.3:
                    succ[v].append(w)
        ids, count = scc_ids(succ)
        parts = {frozenset(v for v in range(1, n + 1) if ids[v] == c) for c in range(count)}
        assert parts == scc_partition_by_closure(succ, n)
        # Ids 0..count-1, numbered in reverse topological order.
        assert {ids[v] for v in range(1, n + 1)} == set(range(count))
        assert all(ids[v] >= ids[w] for v in range(1, n + 1) for w in succ[v])


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.lists(st.lists(st.integers(1, max(n, 1)), max_size=5), min_size=n, max_size=n)
    )
)
def test_tarjan_numbers_components_as_the_reference_emits_them(rows):
    # Self-loops, repeated edges and empty rows included; entry 0 is unused.
    succ = [[]] + rows
    components = reference_strongly_connected_components(succ)
    expected = [-1] * len(succ)
    for c, component in enumerate(components):
        for v in component:
            expected[v] = c
    assert scc_ids(succ) == (expected, len(components))


def _cost_rows(matrix):
    """The matcher's (adjacency, weights) for a square cost matrix, inf where no edge.

    A row whose finite entries all cost 0 gets None weights, as the
    system's loop rows do in the cycle stage.
    """
    adjacency = [[r for r, c in enumerate(row) if c != math.inf] for row in matrix]
    weights = [
        [row[r] for r in adj] if any(row[r] for r in adj) else None
        for row, adj in zip(matrix, adjacency)
    ]
    return adjacency, weights


def test_min_cost_perfect_matching_prefers_diagonal():
    result = min_cost_perfect_matching(*_cost_rows([[0, 1], [1, 0]]))
    assert result is not None
    match_left, total = result
    assert total == 0 and match_left == [0, 1]


def test_min_cost_perfect_matching_infeasible_when_vertex_isolated():
    assert min_cost_perfect_matching(*_cost_rows([[0, math.inf], [0, math.inf]])) is None


def test_min_cost_perfect_matching_agrees_with_permutation_oracle():
    rng = random.Random(57)
    for _ in range(40):
        n = 6
        rows = [
            [math.inf if rng.random() < 0.25 else rng.randint(0, 50) for _ in range(n)]
            for _ in range(n)
        ]
        expected = brute_force_min_cost_perfect_matching(rows)
        result = min_cost_perfect_matching(*_cost_rows(rows))
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
        base = min_cost_perfect_matching(*_cost_rows(rows))
        assert base is not None
        delta = rng.randint(1, 9)
        shifted_rows = [[c + delta for c in row] for row in rows]
        shifted = min_cost_perfect_matching(*_cost_rows(shifted_rows))
        assert shifted is not None
        assert shifted[0] == base[0]  # same optimal edge set
        assert shifted[1] == base[1] + n * delta


def _assert_agrees_with_dense_reference(matrix):
    expected = dense_min_cost_assignment(matrix)
    result = min_cost_perfect_matching(*_cost_rows(matrix))
    if expected is None:
        assert result is None
        return
    assert result is not None
    match_left, total = result
    assert total == expected[1]
    assert list(range(len(match_left))) == sorted(match_left) == list(range(len(matrix)))
    assert all(matrix[l][r] != math.inf for l, r in enumerate(match_left))
    assert total == sum(matrix[l][r] for l, r in enumerate(match_left))


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
    _assert_agrees_with_dense_reference(rows)


@st.composite
def _mostly_unweighted_rows(draw):
    """A square cost matrix, mostly all-0 rows, and the matcher's rows for it.

    An all-0 row is handed over as None or as an explicit list of zeros, and
    a row without edges as None or as []; a few rows carry costs.
    """
    n = draw(st.integers(0, 8))
    matrix, weights = [], []
    for _ in range(n):
        present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if draw(st.integers(0, 4)) == 0:  # a costed row
            row = [draw(st.sampled_from([0, 1, 2, 5])) if keep else math.inf for keep in present]
            costs = [c for c in row if c != math.inf]
        else:
            row = [0 if keep else math.inf for keep in present]
            costs = draw(st.sampled_from([None, [0.0] * sum(present)]))
        matrix.append(row)
        weights.append(costs)
    return matrix, weights


@settings(max_examples=300, deadline=None)
@given(case=_mostly_unweighted_rows())
def test_min_cost_matching_agrees_with_dense_reference_on_mostly_unweighted_rows(case):
    matrix, weights = case
    adjacency, canonical = _cost_rows(matrix)
    _assert_agrees_with_dense_reference(matrix)
    # None, [] and a list of zeros are the same all-0 row to the matcher.
    assert min_cost_perfect_matching(adjacency, weights) == min_cost_perfect_matching(
        adjacency, canonical
    )


def test_min_cost_matching_reads_all_zero_and_empty_cost_lists_as_unweighted():
    adjacency = [[0, 1], [0, 1], [0, 2], []]
    for weights in ([None, [0, 0], [3, 1], None], [[0, 0], [0, 0], [3, 1], []]):
        assert min_cost_perfect_matching(adjacency[:3], weights[:3]) == ([0, 1, 2], 1)
        assert min_cost_perfect_matching(adjacency, weights) is None  # row 3 has no edge
    assert min_cost_perfect_matching([], []) == ([], 0)


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
    _assert_agrees_with_dense_reference(dense_cost_rows(closed_loop_cost_rows(system, costs)))


def _sparse_rows(n):
    """Sorted rows over n right vertices, each all-zero (None) or costed.

    Costed rows draw from a few values, so equal-cost edges and equal-cost
    optima are common; an offset lifts some rows' minimum above 0.
    """
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda keep: [r for r, k in enumerate(keep) if k]  # each edge present at 3/4
    )
    costed = row.flatmap(
        lambda adj: st.tuples(
            st.just(adj),
            st.integers(0, 3).flatmap(
                lambda offset: st.lists(
                    st.sampled_from([0, 1, 2, 0.5]).map(lambda c: c + offset),
                    min_size=len(adj),
                    max_size=len(adj),
                )
            ),
        )
    )
    return st.lists(
        st.one_of(row.map(lambda adj: (adj, None)), costed), min_size=n, max_size=n
    )


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(0, 8).flatmap(_sparse_rows))
def test_min_cost_matching_agrees_with_tuple_row_reference(rows):
    adjacency = [adj for adj, _ in rows]
    weights = [costs for _, costs in rows]
    tuple_rows = [
        list(zip(adj, costs if costs is not None else [0] * len(adj))) for adj, costs in rows
    ]
    before = repr(rows)
    stats, reference_stats = {}, {}
    result = min_cost_perfect_matching(adjacency, weights, stats)
    assert result == reference_min_cost_perfect_matching(tuple_rows, reference_stats)
    assert stats == reference_stats
    assert repr(rows) == before  # the rows are read, never changed
