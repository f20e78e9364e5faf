"""Core data model: sparsity patterns, feedback link costs, and validation.

All indices on the public surface are 1-based: states are x_1..x_n, inputs
u_1..u_m, outputs y_1..y_p. A feedback link (i, j) feeds output y_j to input
u_i. Forbidden links carry cost ``math.inf``; cost arithmetic saturates, so
an infinite total means "not achievable with admissible links".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

INF = math.inf

Edge = tuple[int, int]


class DimensionError(ValueError):
    """An index or shape does not fit the instance's (n, m, p) dimensions."""


class PreconditionError(ValueError):
    """A solver was invoked on an instance outside its supported class."""


def _edge_set(edges: Iterable[Iterable[int]]) -> frozenset[Edge]:
    return frozenset((int(a), int(b)) for a, b in edges)


@dataclass(frozen=True)
class StructuredSystem:
    """Zero/nonzero sparsity pattern of a linear system, stored as edge sets.

    a_edges: (i, j) means state j influences state i (digraph edge x_j -> x_i).
    b_edges: (i, j) means input j actuates state i (edge u_j -> x_i).
    c_edges: (i, j) means output i senses state j (edge x_j -> y_i).

    Each edge field takes any iterable of integer pairs and is frozen into
    a set here, once, so repeated pairs collapse. Construction checks the
    counts and every index against them, and raises ``DimensionError``
    naming each problem, so every instance is valid. Instances are
    immutable and safe to share between threads.
    """

    n: int
    m: int
    p: int
    a_edges: frozenset[Edge] = frozenset()
    b_edges: frozenset[Edge] = frozenset()
    c_edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_edges", _edge_set(self.a_edges))
        object.__setattr__(self, "b_edges", _edge_set(self.b_edges))
        object.__setattr__(self, "c_edges", _edge_set(self.c_edges))
        problems: list[str] = []
        if self.n < 1:
            problems.append(f"state count n must be >= 1, got {self.n}")
        if self.m < 0 or self.p < 0:
            problems.append(f"input/output counts must be >= 0, got m={self.m}, p={self.p}")
        ranges = (
            ("a_edges", self.a_edges, self.n, self.n),
            ("b_edges", self.b_edges, self.n, self.m),
            ("c_edges", self.c_edges, self.p, self.n),
        )
        for name, edges, rows, cols in ranges:
            for i, j in sorted(e for e in edges if not (1 <= e[0] <= rows and 1 <= e[1] <= cols)):
                problems.append(
                    f"{name}: entry ({i}, {j}) out of range for "
                    f"(n, m, p) = ({self.n}, {self.m}, {self.p})"
                )
        if problems:
            raise DimensionError("; ".join(problems))


@dataclass(frozen=True)
class CostMatrix:
    """m x p matrix of nonnegative feedback-link costs; inf marks a forbidden link.

    Construction freezes the rows into tuples and is the one place that
    checks the entries: each must be >= 0 (NaN is not), and the finite
    entries must sum to a finite float, so that no pattern of admissible
    links, and no path length in the solvers, overflows to inf.
    """

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise DimensionError(f"cost matrix is ragged: row widths {sorted(widths)}")
        for i, row in enumerate(rows, start=1):
            for j, entry in enumerate(row, start=1):
                if not (entry >= 0):
                    raise ValueError(f"cost entry ({i}, {j}) must be >= 0, got {entry!r}")
        if sum(entry for row in rows for entry in row if entry != INF) > sys.float_info.max:
            raise ValueError(
                "the finite cost entries sum beyond the largest float, "
                "so pattern costs would overflow to inf; scale the costs down"
            )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "CostMatrix":
        return cls(rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def p(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def cost(self, i: int, j: int) -> float:
        """Cost of feeding output y_j to input u_i (1-based)."""
        if not (1 <= i <= self.m and 1 <= j <= self.p):
            raise DimensionError(f"link ({i}, {j}) out of range for {self.m}x{self.p} cost matrix")
        return self.rows[i - 1][j - 1]

    def finite_links(self) -> list[Edge]:
        """All admissible (input, output) links, in lexicographic order."""
        return [
            (i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.p + 1)
            if not math.isinf(self.rows[i - 1][j - 1])
        ]

    def matches(self, system: StructuredSystem) -> bool:
        # An empty matrix cannot carry a column count, so m == 0 matches any p.
        return self.m == system.m and (self.m == 0 or self.p == system.p)

    def require_matches(self, system: StructuredSystem) -> None:
        if not self.matches(system):
            raise DimensionError(
                f"cost matrix is {self.m}x{self.p} but system has m={system.m}, p={system.p}"
            )


@dataclass(frozen=True)
class FeedbackPattern:
    """The set of selected feedback links {(i, j)}: output y_j fed to input u_i."""

    links: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _edge_set(self.links))

    @classmethod
    def of(cls, *links: Edge) -> "FeedbackPattern":
        return cls(frozenset(links))

    def sorted_links(self) -> list[Edge]:
        return sorted(self.links)

    def union(self, other: "FeedbackPattern") -> "FeedbackPattern":
        return FeedbackPattern(self.links | other.links)

    def __len__(self) -> int:
        return len(self.links)

    def __contains__(self, link: Edge) -> bool:
        return link in self.links


def full_pattern(costs: CostMatrix) -> FeedbackPattern:
    """The pattern selecting every admissible (finite-cost) link."""
    return FeedbackPattern(frozenset(costs.finite_links()))


def cost_of(pattern: FeedbackPattern, costs: CostMatrix) -> float:
    """Total cost of a pattern: the sum of its link costs, saturating at inf."""
    total: float = 0
    for i, j in pattern.sorted_links():
        total += costs.cost(i, j)
    return total


@dataclass(frozen=True)
class SetCoverInstance:
    """A weighted set cover instance: universe {1..N}, candidate sets, weights.

    The union of the candidate sets must equal the universe, so a cover
    always exists; choosing one of minimum total weight is the problem.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        sets = tuple(frozenset(int(e) for e in s) for s in self.sets)
        weights = tuple(self.weights)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", weights)
        if self.universe_size < 1:
            raise ValueError(f"universe size must be >= 1, got {self.universe_size}")
        if len(sets) != len(weights):
            raise DimensionError(f"{len(sets)} sets but {len(weights)} weights")
        universe = frozenset(range(1, self.universe_size + 1))
        for idx, s in enumerate(sets, start=1):
            if not s:
                raise ValueError(f"set {idx} is empty")
            if not s <= universe:
                raise ValueError(f"set {idx} contains elements outside 1..{self.universe_size}")
        if frozenset().union(*sets) != universe:
            raise ValueError("the sets do not cover the universe; no cover exists")
        for idx, w in enumerate(weights, start=1):
            if not 0 <= w <= sys.float_info.max:
                raise ValueError(f"weight {idx} must be finite and >= 0, got {w!r}")

    @property
    def set_count(self) -> int:
        return len(self.sets)

    def cover_weight(self, selected: Iterable[int]) -> float:
        """Total weight of the 1-based set indices in ``selected``."""
        total: float = 0
        for idx in set(selected):
            if not 1 <= idx <= self.set_count:
                raise DimensionError(f"set index {idx} out of range 1..{self.set_count}")
            total += self.weights[idx - 1]
        return total

    def is_cover(self, selected: Iterable[int]) -> bool:
        chosen = set(selected)
        covered: set[int] = set()
        for idx in chosen:
            covered |= self.sets[idx - 1]
        return covered == set(range(1, self.universe_size + 1))
