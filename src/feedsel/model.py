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
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

INF = math.inf

Edge = tuple[int, int]
VertexEdge = tuple[int, int]  # (tail, head) closed-loop vertex ids


class DimensionError(ValueError):
    """An index or shape does not fit the instance's (n, m, p) dimensions."""


class PreconditionError(ValueError):
    """A solver was invoked on an instance outside its supported class."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sums_past_float(values: Iterable[float]) -> bool:
    """True when ``values`` sum beyond the largest float; an int sum too large to convert does."""
    try:
        return sum(values) > sys.float_info.max
    except OverflowError:  # an int sum beyond the float range meets a float
        return True


_PAIR_TYPES = frozenset({tuple, list})
_PAIR_LENGTH = frozenset({2})
_INT_TYPE = frozenset({int})
_NUMBER_TYPES = frozenset({int, float})


def _edge_set(
    name: str, edges: Iterable, rows: int | None = None, cols: int = 0
) -> tuple[frozenset[Edge], list[Edge]]:
    """Frozen ``edges`` and, sorted, those outside 1..rows x 1..cols (unless rows is None).

    A field of plain tuples or lists of two plain ints, all in range, is
    decided whole by builtins: entry types, lengths and element types are
    checked before anything is hashed, ranges by min and max (of the flat
    list if rows == cols). Other fields go through the per-entry loop,
    which accepts int and list subclasses and names the first offender.
    Both freeze the pairs through a set: the same iteration order.
    """
    entries = list(edges)
    if _PAIR_TYPES.issuperset(map(type, entries)) and _PAIR_LENGTH.issuperset(map(len, entries)):
        flat = list(chain.from_iterable(entries))
        if _INT_TYPE.issuperset(map(type, flat)):
            firsts, seconds = (flat, ()) if rows == cols else (flat[0::2], flat[1::2])
            if rows is None or not flat or (
                1 <= min(firsts) and max(firsts) <= rows
                and 1 <= min(seconds, default=1) and max(seconds, default=1) <= cols
            ):
                return frozenset(set(map(tuple, entries))), []
    frozen: set[Edge] = set()
    outside: set[Edge] = set()
    for entry in entries:
        i, j = entry if isinstance(entry, (tuple, list)) and len(entry) == 2 else (None, None)
        if not (_is_int(i) and _is_int(j)):
            raise ValueError(f"field '{name}': entry {entry!r} is not an integer pair")
        if rows is not None and not (1 <= i <= rows and 1 <= j <= cols):
            outside.add((i, j))
        frozen.add((i, j))
    return frozenset(frozen), sorted(outside)


@dataclass(frozen=True)
class StructuredSystem:
    """Zero/nonzero sparsity pattern of a linear system, stored as edge sets.

    a_edges: (i, j) means state j influences state i (digraph edge x_j -> x_i).
    b_edges: (i, j) means input j actuates state i (edge u_j -> x_i).
    c_edges: (i, j) means output i senses state j (edge x_j -> y_i).

    Construction is the one owner of the checks on these values (parsers
    check only document shape), and never coerces: a count that is not an
    int, or an edge that is not a pair of ints, raises ``ValueError``. Each
    edge field takes any iterable of pairs and is frozen into a set, so
    repeated pairs collapse; ``_edge_set`` checks a well-formed field whole
    and falls back to checking each pair only to name a fault. The range
    problems raise one ``DimensionError`` naming each.

    The system is also its closed-loop digraph. Vertex ids: states
    x_1..x_n are 1..n, inputs u_1..u_m are n+1..n+m and outputs y_1..y_p
    are n+m+1..n+m+p (entry 0 of the rows is unused); a feedback link
    (i, j) adds the edge y_j -> u_i. ``loop_rows`` are the sorted
    predecessor rows with a self-loop on each input and output: an input
    row is the vertex itself followed by the outputs fed back to it,
    [u_i, y...], and an output row is its states followed by the vertex
    itself. A self-loop merges no SCCs and adds nothing to reachability,
    and as bipartite rows v' - w, one per edge w -> v, they match
    perfectly iff disjoint cycles span the states. ``state_rows`` are the
    same rows over the states alone, the state digraph, and the only rows
    built from the a_edges: a state's loop row is its state row object
    when no input actuates it, else a copy extended by the input ids. Rows
    are built on first use and kept, as plain int lists, so a system makes
    no reference cycle; a pattern's list copies only the rows its links
    change and shares the others, so callers must not mutate them.
    ``admissible_loop_rows`` is the list of every admissible link, read
    off a cost matrix's rows.
    Instances are immutable and safe to share between threads: two
    threads that build the same rows at once build equal ones.
    """

    n: int
    m: int
    p: int
    a_edges: frozenset[Edge] = frozenset()
    b_edges: frozenset[Edge] = frozenset()
    c_edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        n, m, p = self.n, self.m, self.p
        for name, value in (("n", n), ("m", m), ("p", p)):
            if not _is_int(value):
                raise ValueError(f"field '{name}' must be an integer, got {value!r}")
        problems: list[str] = []
        if n < 1:
            problems.append(f"state count n must be >= 1, got {n}")
        if m < 0 or p < 0:
            problems.append(f"input/output counts must be >= 0, got m={m}, p={p}")
        for name, rows, cols in (("a_edges", n, n), ("b_edges", n, m), ("c_edges", p, n)):
            edges, outside = _edge_set(name, getattr(self, name), rows, cols)
            object.__setattr__(self, name, edges)
            problems += [
                f"{name}: entry ({i}, {j}) out of range for (n, m, p) = ({n}, {m}, {p})"
                for i, j in outside
            ]
        if problems:
            raise DimensionError("; ".join(problems))

    @property
    def vertex_count(self) -> int:
        return self.n + self.m + self.p

    def edges(self) -> Iterator[VertexEdge]:
        """The digraph edges x_j -> x_i, u_j -> x_i and x_j -> y_i, as vertex ids."""
        n = self.n
        yield from ((j, i) for i, j in self.a_edges)
        yield from ((n + j, i) for i, j in self.b_edges)
        yield from ((j, n + self.m + i) for i, j in self.c_edges)

    def check_links(self, links: Iterable[Edge]) -> list[Edge]:
        """The links as a list; DimensionError if one lies outside 1..m x 1..p."""
        m, p = self.m, self.p
        links = list(links)
        for i, j in links:
            if not (1 <= i <= m and 1 <= j <= p):
                raise DimensionError(f"feedback link ({i}, {j}) out of range for m={m}, p={p}")
        return links

    def feedback_edges(self, links: Iterable[Edge]) -> list[VertexEdge]:
        """Digraph edges y_j -> u_i of the links (not range-checked)."""
        n = self.n
        offset = n + self.m
        return [(offset + j, n + i) for i, j in links]

    @cached_property
    def state_rows(self) -> list[list[int]]:
        """Row i: the sorted j of the a_edges (i, j), the predecessors of x_i; row 0 unused."""
        rows: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, j in self.a_edges:
            rows[i].append(j)
        for row in rows:
            row.sort()
        return rows

    @cached_property
    def _loop_rows(self) -> list[list[int]]:
        # Input ids exceed every state id, so a state row extended by its
        # inputs' ids in increasing order stays sorted.
        n = self.n
        states = self.state_rows
        rows = states + [[v] for v in range(n + 1, n + self.m + 1)]
        for i, j in sorted(self.b_edges):
            if rows[i] is states[i]:
                rows[i] = states[i] + [n + j]
            else:
                rows[i].append(n + j)
        rows.extend([] for _ in range(self.p))
        outputs = n + self.m
        for i, j in self.c_edges:
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
        for y, u in self.feedback_edges(sorted(links)):  # so rows stay sorted in any link order
            if rows[u] is base[u]:
                rows[u] = base[u] + [y]
            else:
                rows[u].append(y)
        return rows

    def admissible_loop_rows(self, costs: "CostMatrix") -> list[list[int]]:
        """``loop_rows`` of every admissible link, read off the cost rows without link tuples.

        Input row u_i is [u_i], then y_j for each finite entry j of cost
        row i in order; an input with no admissible link, and every other
        row, is the shared base row. DimensionError if ``costs`` does not
        match the system.
        """
        costs.require_matches(self)
        n = self.n
        outputs = n + self.m
        rows = list(self._loop_rows)
        for u, row in enumerate(costs.rows, start=n + 1):
            fed = [outputs + j for j, c in enumerate(row, start=1) if c != INF]
            if fed:
                rows[u] = [u, *fed]
        return rows


@dataclass(frozen=True)
class CostMatrix:
    """m x p matrix of nonnegative feedback-link costs; inf marks a forbidden link.

    Construction freezes the rows into tuples and is the one owner of the
    entry checks past JSON's own forms, never coercing: each entry must be
    an int or float, not a bool, and >= 0 (NaN is not), and the finite
    entries must sum to a finite float, so that no pattern of admissible
    links, and no path length in the solvers, overflows to inf. A matrix
    of plain ints and floats is checked whole by builtins: one sum (NaN
    if an entry is), one min for the sign, and only an inf total summed
    again without the inf entries. Any other goes through the per-entry
    loop, which accepts int and float subclasses and names the first
    offending entry.
    """

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise DimensionError(f"cost matrix is ragged: row widths {sorted(widths)}")
        entries = list(chain.from_iterable(rows))
        try:  # NaN when an entry is NaN, or when +inf and -inf are both entries
            total = sum(entries) if _NUMBER_TYPES.issuperset(map(type, entries)) else math.nan
        except OverflowError:  # an int beyond the float range meets a float
            total = math.nan
        if total != total or min(entries, default=0) < 0:
            for i, row in enumerate(rows, start=1):
                for j, entry in enumerate(row, start=1):
                    if not _is_number(entry):
                        raise ValueError(
                            f"cost entry ({i}, {j}) must be a number or \"inf\", got {entry!r}"
                        )
                    if not (entry >= 0):
                        raise ValueError(f"cost entry ({i}, {j}) must be >= 0, got {entry!r}")
        # inf entries, an overflow, or a NaN total
        if not total <= sys.float_info.max and _sums_past_float(filter(INF.__ne__, entries)):
            raise ValueError("the finite cost entries sum beyond the largest float, "
                             "so pattern costs would overflow to inf; scale the costs down")
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

    def require_matches(self, system: StructuredSystem) -> None:
        # An empty matrix cannot carry a column count, so m == 0 matches any p.
        if self.m != system.m or (self.m and self.p != system.p):
            raise DimensionError(
                f"cost matrix is {self.m}x{self.p} but system has m={system.m}, p={system.p}"
            )


@dataclass(frozen=True)
class FeedbackPattern:
    """The set of selected feedback links {(i, j)}: output y_j fed to input u_i."""

    links: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _edge_set("links", self.links)[0])

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


def _set_elements(idx: int, elements: Iterable) -> Iterator[int]:
    for e in elements:
        if not _is_int(e):
            raise ValueError(f"set {idx}: element {e!r} is not an integer")
        yield e


@dataclass(frozen=True)
class SetCoverInstance:
    """A weighted set cover instance: universe {1..N}, candidate sets, weights.

    The union of the candidate sets must equal the universe, so a cover
    always exists. Construction checks the universe size, the set elements
    (ints) and the weights (finite ints or floats >= 0, with a finite sum),
    and never coerces: a bool or other type raises.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not _is_int(self.universe_size):
            raise ValueError(f"field 'universe_size' must be an integer, got {self.universe_size!r}")
        sets = tuple(frozenset(_set_elements(idx, s)) for idx, s in enumerate(self.sets, 1))
        weights = tuple(self.weights)
        for idx, w in enumerate(weights, start=1):
            if not _is_number(w):
                raise ValueError(f"weight {idx} must be a number, got {w!r}")
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
        if _sums_past_float(weights):
            raise ValueError("the weights sum beyond the largest float, "
                             "so cover totals would overflow to inf; scale the weights down")

    @property
    def set_count(self) -> int:
        return len(self.sets)
