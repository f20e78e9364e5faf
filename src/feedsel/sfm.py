"""Feasibility of a feedback pattern: the no-structurally-fixed-modes check.

A pattern is feasible when both graph conditions hold on the closed loop:

  (a) every state vertex lies in a strongly connected component that
      contains a selected feedback edge (both of its endpoints), and
  (b) every state vertex is spanned by a disjoint union of cycles, which
      is equivalent to a perfect matching in the closed-loop bipartite
      graph.

Feasible patterns permit arbitrary (generic) pole placement; check results
carry the offending states so callers can explain failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import ClosedLoopIndex, hopcroft_karp, scc_ids
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


def _uncovered_states(index: ClosedLoopIndex, links: Sequence[Edge]) -> tuple[int, ...]:
    """States whose closed-loop SCC holds no feedback edge of ``links``."""
    ids = scc_ids(index.successors(links), index.vertex_count)
    # A feedback edge is inside an SCC exactly when its endpoints share one.
    covered = {ids[u] for y, u in index.feedback_edges(links) if ids[y] == ids[u]}
    return tuple([s for s in range(1, index.system.n + 1) if ids[s] not in covered])


def _has_cycle_family(index: ClosedLoopIndex, links: Sequence[Edge]) -> bool:
    """True when the closed-loop bipartite graph with ``links`` has a perfect matching."""
    size, _, _ = hopcroft_karp(index.adjacency(links), index.vertex_count)
    return size == index.vertex_count


def check_condition_a(system: StructuredSystem, pattern: FeedbackPattern) -> tuple[int, ...]:
    """States whose closed-loop SCC contains no selected feedback edge (empty = pass)."""
    index = ClosedLoopIndex(system)
    return _uncovered_states(index, index.check_links(pattern.links))


def check_condition_b(system: StructuredSystem, pattern: FeedbackPattern) -> bool:
    """True when the closed-loop bipartite graph has a perfect matching."""
    index = ClosedLoopIndex(system)
    return _has_cycle_family(index, index.check_links(pattern.links))


def check_no_sfm(system: StructuredSystem, pattern: FeedbackPattern) -> SfmVerdict:
    """Run both feasibility conditions and return the combined verdict."""
    return SfmVerdict(
        uncovered_states=check_condition_a(system, pattern),
        condition_b_ok=check_condition_b(system, pattern),
    )
