"""JSON file formats for systems and set-cover instances.

System files carry exactly the fields ``n``, ``m``, ``p``, the three edge
lists as arrays of 1-based ``[i, j]`` pairs, and ``cost`` as an m x p array
of finite numbers whose forbidden entries are the literal string ``"inf"``.
Set-cover files carry ``universe_size``, ``sets`` and ``weights``.
Duplicate edges are collapsed with a warning.

Each value is checked once, by its owner. The parsers check the document
shape (required fields, arrays where arrays belong, cost row lengths, an
integer ``universe_size``), the size caps (``MAX_SYSTEM_VERTICES`` on
n + m + p, and on a set cover's reduced system), and what only JSON can
produce: cost strings other than ``"inf"``, numbers that read as infinity
and integers beyond the float range. A cost matrix of well-shaped rows
whose largest entry, one ``max`` over the whole matrix, lies within the
float range holds none of these and is passed on whole. Any other is
checked row by row, and only the rows that fail the same test are read
entry by entry. The model
constructor that stores a value checks everything else about it (types,
ranges, signs) without coercing, and its errors surface as
``SchemaError``.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .model import INF, CostMatrix, SetCoverInstance, StructuredSystem, _is_int
from .model import _INT_TYPE, _NUMBER_TYPES, _PAIR_TYPES

SYSTEM_FIELDS = ("n", "m", "p", "a_edges", "b_edges", "c_edges", "cost")
SETCOVER_FIELDS = ("universe_size", "sets", "weights")

# Largest n + m + p a system file may declare. The solvers allocate lists
# over every vertex, so a few bytes declaring a huge n would exhaust
# memory; the cap lies far above the few thousand vertices of a
# 1000-SCC chain.
MAX_SYSTEM_VERTICES = 100_000


class SchemaError(ValueError):
    """The document does not conform to the file schema."""


def _document(text: str, fields: tuple[str, ...], kind: str) -> dict:
    """The JSON object in ``text``, which must hold every name in ``fields``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{kind} document must be a JSON object")
    missing = [name for name in fields if name not in data]
    if missing:
        raise SchemaError(f"missing required field(s): {', '.join(missing)}")
    return data


def _cost_entry(value: Any, i: int, j: int) -> Any:
    """``value`` with the literal "inf" read as ``INF``; the model checks the rest."""
    if isinstance(value, str):
        if value.lower() == "inf":
            return INF
        raise SchemaError(f"cost entry ({i}, {j}): unknown literal {value!r}; use \"inf\"")
    if value == INF:
        raise SchemaError(
            f"cost entry ({i}, {j}) is not finite, got {value!r}; use \"inf\" to forbid a link"
        )
    if isinstance(value, int) and value > sys.float_info.max:
        raise SchemaError(f"cost entry ({i}, {j}) is an integer beyond the float range")
    return value


def _cost_rows(raw_cost: list, p: int) -> list:
    """The cost rows checked row by row, and entry by entry in a row that needs it."""
    rows = []
    for i, row in enumerate(raw_cost, start=1):
        if not isinstance(row, list) or len(row) != p:
            raise SchemaError(f"cost row {i} must have {p} entries")
        if _NUMBER_TYPES.issuperset(map(type, row)) and max(row, default=0) <= sys.float_info.max:
            rows.append(row)
        else:
            rows.append([_cost_entry(value, i, j) for j, value in enumerate(row, start=1)])
    return rows


def parse_system(text: str) -> tuple[StructuredSystem, CostMatrix, list[str]]:
    """Parse a system document; returns (system, costs, warnings)."""
    data = _document(text, SYSTEM_FIELDS, "system")
    edges = {name: data[name] for name in ("a_edges", "b_edges", "c_edges")}
    for name, value in edges.items():
        if not isinstance(value, list):
            raise SchemaError(f"field '{name}' must be an array of [i, j] pairs")
    try:
        system = StructuredSystem(data["n"], data["m"], data["p"], **edges)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    # The constructor does no per-vertex work, so nothing is allocated per vertex yet.
    n, m, p = system.n, system.m, system.p
    if n + m + p > MAX_SYSTEM_VERTICES:
        raise SchemaError(
            f"system too large: n + m + p = {n + m + p} exceeds {MAX_SYSTEM_VERTICES}"
        )
    warnings = [
        f"{name}: {len(pairs) - len(getattr(system, name))} duplicate entries collapsed"
        for name, pairs in edges.items()
        if len(getattr(system, name)) < len(pairs)
    ]

    raw_cost = data["cost"]
    if not isinstance(raw_cost, list) or len(raw_cost) != m:
        raise SchemaError(f"field 'cost' must be an array of {m} rows")
    # The matrix passes whole when _cost_entry would return every entry as
    # it is. An inf or an int beyond the float range puts max above the
    # bound; a string (even "inf"), null, array or object makes max or the
    # bound raise TypeError; a NaN first makes max NaN, while a later one,
    # which _cost_entry passes on too, max skips.
    try:
        whole = _PAIR_TYPES.issuperset(map(type, raw_cost)) and {p}.issuperset(map(len, raw_cost)) and (
            max(chain.from_iterable(raw_cost), default=0) <= sys.float_info.max
        )
    except TypeError:
        whole = False
    rows = raw_cost if whole else _cost_rows(raw_cost, p)
    try:
        costs = CostMatrix(rows)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return system, costs, warnings


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _dumps(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, with the lists encoded in C.

    Before CPython 3.13, ``indent`` sends json to its pure-Python encoder.
    Here dicts are walked in Python, and a list takes one of three paths.
    A list of scalars is one call to json's C encoder at the indented
    separator. Rows (lists or tuples) of one non-zero width, all plain
    ints (by type, so never a bool), like a system file's edges, fill one
    ``%d`` row template each in one ``%``. Any other list is walked item
    by item. CPython 3.13 and later encode ``indent`` in C themselves;
    this helper only calls public json at fixed separators, so its output
    stays exact there too.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "\n" + "  " * (level + 1)
        fields = (
            encode_basestring_ascii(key) + ": " + _dumps(value, level + 1)
            for key, value in obj.items()
        )
        return "{" + pad + ("," + pad).join(fields) + "\n" + "  " * level + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "]"
    if _JSON_SCALARS.issuperset(map(type, obj)):
        return "[" + pad + json.dumps(obj, separators=("," + pad, ": "))[1:-1] + close
    if _PAIR_TYPES.issuperset(map(type, obj)) and len(set(map(len, obj))) == 1 and obj[0] and (
        _INT_TYPE.issuperset(map(type, chain.from_iterable(obj)))
    ):
        row_pad = pad + "  "
        row = "[" + row_pad + ("%d," + row_pad) * (len(obj[0]) - 1) + "%d" + pad + "]"
        return "[" + pad + ("," + pad).join([row] * len(obj)) % tuple(chain.from_iterable(obj)) + close
    return "[" + pad + ("," + pad).join(_dumps(value, level + 1) for value in obj) + close


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
    return _dumps(document) + "\n"


def load_system(path) -> tuple[StructuredSystem, CostMatrix, list[str]]:
    return parse_system(Path(path).read_text())


def parse_setcover(text: str) -> SetCoverInstance:
    data = _document(text, SETCOVER_FIELDS, "set cover")
    universe_size = data["universe_size"]
    if not _is_int(universe_size):
        raise SchemaError(f"field 'universe_size' must be an integer, got {universe_size!r}")
    raw_sets = data["sets"]
    raw_weights = data["weights"]
    if not isinstance(raw_sets, list) or not all(isinstance(s, list) for s in raw_sets):
        raise SchemaError("field 'sets' must be an array of integer arrays")
    # The cap comes before construction, which builds the universe.
    vertices = universe_size + 2 + len(raw_sets)
    if vertices > MAX_SYSTEM_VERTICES:
        raise SchemaError(
            f"set cover too large: its reduced system has n + m + p = {vertices}, "
            f"which exceeds {MAX_SYSTEM_VERTICES}"
        )
    if not isinstance(raw_weights, list):
        raise SchemaError("field 'weights' must be an array of numbers")
    try:
        return SetCoverInstance(universe_size=universe_size, sets=raw_sets, weights=raw_weights)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_setcover(path) -> SetCoverInstance:
    return parse_setcover(Path(path).read_text())
