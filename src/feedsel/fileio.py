"""JSON file formats for systems and set-cover instances.

System files carry exactly the fields ``n``, ``m``, ``p``, the three edge
lists as arrays of 1-based ``[i, j]`` pairs, and ``cost`` as an m x p array
of finite numbers whose forbidden entries are the literal string ``"inf"``.
Set-cover files carry ``universe_size``, ``sets`` and ``weights``. Parsers
reject missing fields, malformed entries (non-finite numeric costs, integer
costs beyond the float range and set elements that are not integers among
them), dimension mismatches, systems with more than ``MAX_SYSTEM_VERTICES``
vertices, and set-cover instances whose reduced system would have more
(``universe_size + 2`` plus the set count); duplicate edges are collapsed
with a warning. Parsers check only what JSON can get wrong; the model
constructors check index ranges and cost signs, freeze each edge set and
cost row once, and their errors surface as ``SchemaError``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any

from .model import INF, CostMatrix, DimensionError, SetCoverInstance, StructuredSystem

SYSTEM_FIELDS = ("n", "m", "p", "a_edges", "b_edges", "c_edges", "cost")
SETCOVER_FIELDS = ("universe_size", "sets", "weights")

# Largest n + m + p a system file may declare. The solvers allocate lists
# over every vertex, so a few bytes declaring a huge n would exhaust
# memory; the cap lies far above the few thousand vertices of a
# 1000-SCC chain.
MAX_SYSTEM_VERTICES = 100_000


class SchemaError(ValueError):
    """The document does not conform to the file schema."""


def _require_fields(data: Any, fields: tuple[str, ...], kind: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{kind} document must be a JSON object")
    missing = [name for name in fields if name not in data]
    if missing:
        raise SchemaError(f"missing required field(s): {', '.join(missing)}")


def _int_field(data: dict, name: str) -> int:
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field '{name}' must be an integer, got {value!r}")
    return value


def _edge_list(data: dict, name: str) -> list[list[int]]:
    value = data[name]
    if not isinstance(value, list):
        raise SchemaError(f"field '{name}' must be an array of [i, j] pairs")
    for entry in value:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in entry)
        ):
            raise SchemaError(f"field '{name}': entry {entry!r} is not an integer pair")
    return value


def _cost_entry(value: Any, i: int, j: int) -> float:
    if isinstance(value, str):
        if value.lower() == "inf":
            return INF
        raise SchemaError(f"cost entry ({i}, {j}): unknown literal {value!r}; use \"inf\"")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"cost entry ({i}, {j}) must be a number or \"inf\", got {value!r}")
    if value == INF:
        raise SchemaError(
            f"cost entry ({i}, {j}) is not finite, got {value!r}; use \"inf\" to forbid a link"
        )
    if isinstance(value, int) and value > sys.float_info.max:
        raise SchemaError(f"cost entry ({i}, {j}) is an integer beyond the float range")
    return value


def parse_system(text: str) -> tuple[StructuredSystem, CostMatrix, list[str]]:
    """Parse a system document; returns (system, costs, warnings)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _require_fields(data, SYSTEM_FIELDS, "system")
    n = _int_field(data, "n")
    m = _int_field(data, "m")
    p = _int_field(data, "p")
    if n + m + p > MAX_SYSTEM_VERTICES:
        raise SchemaError(
            f"system too large: n + m + p = {n + m + p} exceeds {MAX_SYSTEM_VERTICES}"
        )
    edges = {name: _edge_list(data, name) for name in ("a_edges", "b_edges", "c_edges")}
    try:
        system = StructuredSystem(n, m, p, **edges)
    except DimensionError as exc:
        raise SchemaError(str(exc)) from exc
    warnings = [
        f"{name}: {len(pairs) - len(getattr(system, name))} duplicate entries collapsed"
        for name, pairs in edges.items()
        if len(getattr(system, name)) < len(pairs)
    ]

    raw_cost = data["cost"]
    if not isinstance(raw_cost, list) or len(raw_cost) != m:
        raise SchemaError(f"field 'cost' must be an array of {m} rows")
    rows = []
    for i, row in enumerate(raw_cost, start=1):
        if not isinstance(row, list) or len(row) != p:
            raise SchemaError(f"cost row {i} must have {p} entries")
        rows.append([_cost_entry(value, i, j) for j, value in enumerate(row, start=1)])
    try:
        costs = CostMatrix(rows)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return system, costs, warnings


def emit_system(system: StructuredSystem, costs: CostMatrix) -> str:
    """Serialize a system document; ``parse_system`` inverts this exactly."""
    costs.require_matches(system)
    document = {
        "n": system.n,
        "m": system.m,
        "p": system.p,
        "a_edges": [list(e) for e in sorted(system.a_edges)],
        "b_edges": [list(e) for e in sorted(system.b_edges)],
        "c_edges": [list(e) for e in sorted(system.c_edges)],
        "cost": [
            ["inf" if math.isinf(entry) else entry for entry in row] for row in costs.rows
        ],
    }
    return json.dumps(document, indent=2) + "\n"


def load_system(path) -> tuple[StructuredSystem, CostMatrix, list[str]]:
    return parse_system(Path(path).read_text())


def parse_setcover(text: str) -> SetCoverInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _require_fields(data, SETCOVER_FIELDS, "set cover")
    universe_size = _int_field(data, "universe_size")
    raw_sets = data["sets"]
    raw_weights = data["weights"]
    if not isinstance(raw_sets, list) or not all(isinstance(s, list) for s in raw_sets):
        raise SchemaError("field 'sets' must be an array of integer arrays")
    for idx, s in enumerate(raw_sets, start=1):
        for e in s:
            if isinstance(e, bool) or not isinstance(e, int):
                raise SchemaError(f"set {idx}: element {e!r} is not an integer")
    vertices = universe_size + 2 + len(raw_sets)
    if vertices > MAX_SYSTEM_VERTICES:
        raise SchemaError(
            f"set cover too large: its reduced system has n + m + p = {vertices}, "
            f"which exceeds {MAX_SYSTEM_VERTICES}"
        )
    if not isinstance(raw_weights, list):
        raise SchemaError("field 'weights' must be an array of numbers")
    weights = []
    for idx, w in enumerate(raw_weights, start=1):
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise SchemaError(f"weight {idx} must be a number, got {w!r}")
        weights.append(w)
    try:
        return SetCoverInstance(
            universe_size=universe_size,
            sets=tuple(frozenset(s) for s in raw_sets),
            weights=tuple(weights),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def emit_setcover(instance: SetCoverInstance) -> str:
    document = {
        "universe_size": instance.universe_size,
        "sets": [sorted(s) for s in instance.sets],
        "weights": list(instance.weights),
    }
    return json.dumps(document, indent=2) + "\n"


def load_setcover(path) -> SetCoverInstance:
    return parse_setcover(Path(path).read_text())
