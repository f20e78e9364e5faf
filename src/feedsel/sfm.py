"""Feasibility of a feedback pattern: the no-structurally-fixed-modes check.

A pattern is feasible when both graph conditions hold on the closed loop:

  (a) every state vertex lies in a strongly connected component that
      contains a selected feedback edge (both of its endpoints), and
  (b) every state vertex is spanned by a disjoint union of cycles: the
      closed-loop bipartite graph has a perfect matching.

Feasible patterns permit arbitrary (generic) pole placement; check results
carry the offending states so callers can explain failures. Both read
the rows the system builds once and keeps. ``check_no_sfm`` runs Tarjan for
(a) on one pattern's loop rows; the oracle asks ``CoverageKernel`` instead.
(b) has one predicate, ``_has_cycle_family``, on a system's rows: a
pattern's ``loop_rows``, or the ``state_rows`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import hopcroft_karp, scc_ids
from .model import Edge, FeedbackPattern, StructuredSystem


@dataclass(frozen=True)
class SfmVerdict:
    """Outcome of the two-part feasibility check."""

    uncovered_states: tuple[int, ...]
    condition_b_ok: bool

    @property
    def condition_a_ok(self) -> bool:
        return not self.uncovered_states

    @property
    def feasible(self) -> bool:
        return self.condition_a_ok and self.condition_b_ok

    def describe(self) -> str:
        a = "pass" if self.condition_a_ok else f"fail (uncovered states: {list(self.uncovered_states)})"
        b = "pass" if self.condition_b_ok else "fail (no spanning cycle family)"
        verdict = "feasible" if self.feasible else "infeasible"
        return f"condition a: {a}; condition b: {b}; {verdict}"


def _uncovered_states(
    system: StructuredSystem, links: Sequence[Edge], rows: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """States whose SCC on the closed-loop ``rows`` of ``links`` holds no link's edge."""
    ids, _ = scc_ids(rows)
    # A feedback edge is inside an SCC exactly when its endpoints share one.
    covered = {ids[u] for y, u in system.feedback_edges(links) if ids[y] == ids[u]}
    return tuple([s for s in range(1, system.n + 1) if ids[s] not in covered])


def _reachable(rows: Sequence[Sequence[int]], source: int) -> set[int]:
    """Vertices reachable from ``source`` along ``rows``, ``source`` included."""
    seen = {source}
    stack = [source]
    while stack:
        for w in rows[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class CoverageKernel:
    """Condition (a) for many link lists on one system, from open-loop bitsets.

    Three tables over the open loop (no feedback), as bitsets with bit s
    for state x_s, bit j for output y_j and bit k for input u_k:

    * ``SR[k]``, the states u_k reaches;
    * ``OR[k]``, the outputs u_k reaches;
    * ``SQ[j]``, the states that reach y_j.

    For a link list L, the input graph has an edge k -> i when some link
    (i, j) in L has y_j in OR[k]; a state is covered iff, for some SCC C
    of that graph, it lies in the union of SR[k] over k in C and in the
    union of SQ[j] over the links (i, j) of L with i in C.

    This is ``_uncovered_states`` exactly. The open loop has no edge into
    an input, so a closed-loop path re-enters an input only by a feedback
    edge, and between two inputs it runs in the open loop: u_k reaches u_i
    in the closed loop iff the input graph has a path k ~> i. A state s
    shares its closed-loop SCC with a feedback edge iff some closed walk
    passes through s and a feedback edge, so through an input. Cut that
    walk at the last input u_k before s and the first feedback edge
    y_j -> u_i after it: u_k ~> s and s ~> y_j are open-loop paths, so s
    is in SR[k] and SQ[j], and u_i ~> u_k ~> s ~> y_j -> u_i puts k and i
    in one SCC of the input graph. Conversely those memberships close
    that walk. One reverse search per output on the system's ``loop_rows``
    fills SQ and ``inputs_to``; SR comes from forward searches on their
    transpose. Building the tables costs O((m + p) * (n + E)); each call
    then costs O(|L| + m^2) big-int operations and O(n) to list the states,
    against a Tarjan run on the whole closed loop, so the kernel pays only
    across many patterns.
    """

    def __init__(self, system: StructuredSystem) -> None:
        n, m, p = system.n, system.m, system.p
        pred = system.loop_rows()
        self.n = n
        self.SQ = [0] * (p + 1)
        # OR stored transposed: bit k of inputs_to[j] is set when y_j is in
        # OR[k], so a link (i, j) adds the input-graph edges inputs_to[j] -> i.
        self.inputs_to = [0] * (p + 1)
        for j in range(1, p + 1):
            for v in _reachable(pred, n + m + j):
                if v <= n:
                    self.SQ[j] |= 1 << v
                elif v <= n + m:
                    self.inputs_to[j] |= 1 << (v - n)
        succ: list[list[int]] = [[] for _ in pred]
        for v, row in enumerate(pred):
            for w in row:
                succ[w].append(v)
        self.SR = [0] * (m + 1)
        for k in range(1, m + 1):
            for v in _reachable(succ, n + k):
                if v <= n:
                    self.SR[k] |= 1 << v

    def uncovered_states(self, links: Sequence[Edge]) -> tuple[int, ...]:
        """States whose closed-loop SCC holds no feedback edge of ``links``."""
        into: dict[int, int] = {}  # link input i -> input-graph predecessors of i
        sensed: dict[int, int] = {}  # link input i -> union of SQ[j] over its links
        for i, j in links:
            into[i] = into.get(i, 0) | self.inputs_to[j]
            sensed[i] = sensed.get(i, 0) | self.SQ[j]
        # Only link inputs have predecessors, so every inner vertex of an
        # input-graph path is one: Warshall over them closes ``into``.
        heads = list(into)
        for k in heads:
            reach_k = into[k]
            for i in heads:
                if into[i] >> k & 1:
                    into[i] |= reach_k
        covered = 0
        for i in heads:
            actuated = self.SR[i]
            for k in heads:
                if into[i] >> k & 1 and into[k] >> i & 1:
                    actuated |= self.SR[k]
            covered |= actuated & sensed[i]
        return tuple([v for v in range(1, self.n + 1) if not covered >> v & 1])


def _has_cycle_family(rows: Sequence[Sequence[int]]) -> bool:
    """True when a system's sorted ``rows`` (row 0 empty) match perfectly: disjoint cycles span them."""
    return hopcroft_karp(rows, len(rows))[0] == len(rows) - 1


def _has_state_perfect_matching(system: StructuredSystem) -> bool:
    """True when disjoint cycles span the states alone: the system's ``state_rows`` match perfectly."""
    return _has_cycle_family(system.state_rows)


def check_no_sfm(system: StructuredSystem, pattern: FeedbackPattern) -> SfmVerdict:
    """Run both feasibility conditions on one closed-loop row list; the combined verdict."""
    links = system.check_links(pattern.links)
    rows = system.loop_rows(links)
    return SfmVerdict(_uncovered_states(system, links, rows), _has_cycle_family(rows))
