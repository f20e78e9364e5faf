import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedsel import (
    CostMatrix,
    SchemaError,
    StructuredSystem,
    emit_system,
    load_setcover,
    load_system,
    parse_setcover,
    parse_system,
)
from tests.conftest import (
    faulty_cost_rows, fig1_cover_instance, reference_parsed_cost_rows, section5_system,
)


def test_load_functions_take_str_and_path(tmp_path):
    system_path = tmp_path / "section5.json"
    system_path.write_text(emit_system(*section5_system()))
    cover = fig1_cover_instance()
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(
        {"universe_size": cover.universe_size, "sets": [sorted(s) for s in cover.sets],
         "weights": list(cover.weights)}
    ))
    system, costs = section5_system()
    for path in (system_path, str(system_path)):
        loaded_system, loaded_costs, warnings = load_system(path)
        assert (loaded_system, loaded_costs.rows, warnings) == (system, costs.rows, [])
    for path in (cover_path, str(cover_path)):
        assert load_setcover(path) == cover


def roundtrip(system, costs):
    parsed_system, parsed_costs, warnings = parse_system(emit_system(system, costs))
    assert warnings == []
    return parsed_system, parsed_costs


def test_roundtrip_reference_system(section5):
    system, costs = section5
    parsed_system, parsed_costs = roundtrip(system, costs)
    assert parsed_system == system
    assert parsed_costs.rows == costs.rows


def test_roundtrip_preserves_infinite_entries():
    system = StructuredSystem(n=2, m=1, p=2, a_edges=frozenset({(1, 1), (2, 2)}))
    costs = CostMatrix.from_rows([[3, math.inf]])
    parsed_system, parsed_costs = roundtrip(system, costs)
    assert parsed_system == system
    assert parsed_costs.rows[0][0] == 3
    assert math.isinf(parsed_costs.rows[0][1])
    assert '"inf"' in emit_system(system, costs)


def test_emitted_files_are_json_dumps_with_indent_2():
    """emit_system renders exactly as ``json.dumps(indent=2)``."""
    rng = random.Random(5)
    values = (0, 1, 7, 2.5, 1e300, 0.1, math.inf)
    for _ in range(200):
        n, m, p = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        system = StructuredSystem(
            n=n, m=m, p=p,
            a_edges=frozenset((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 5))),
            b_edges=frozenset(
                (rng.randint(1, n), rng.randint(1, m)) for _ in range(rng.randint(0, 3) if m else 0)
            ),
            c_edges=frozenset(
                (rng.randint(1, p), rng.randint(1, n)) for _ in range(rng.randint(0, 3) if p else 0)
            ),
        )
        costs = CostMatrix.from_rows([[rng.choice(values) for _ in range(p)] for _ in range(m)])
        text = emit_system(system, costs)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_parse_rejects_missing_field():
    document = json.loads(emit_system(*section5_system()))
    del document["c_edges"]
    with pytest.raises(SchemaError, match="c_edges"):
        parse_system(json.dumps(document))


def test_parse_rejects_cost_dimension_mismatch():
    document = json.loads(emit_system(*section5_system()))
    document["cost"] = document["cost"][:-1]
    with pytest.raises(SchemaError, match="cost"):
        parse_system(json.dumps(document))


def test_parse_rejects_out_of_range_edge():
    document = json.loads(emit_system(*section5_system()))
    document["a_edges"].append([0, 1])
    with pytest.raises(SchemaError, match="out of range"):
        parse_system(json.dumps(document))


def test_parse_rejects_unknown_cost_literal():
    document = json.loads(emit_system(*section5_system()))
    document["cost"][0][0] = "infinity?"
    with pytest.raises(SchemaError, match="inf"):
        parse_system(json.dumps(document))


def test_parse_rejects_costs_that_overflow_when_summed():
    document = {
        "n": 2, "m": 2, "p": 2, "a_edges": [], "b_edges": [[1, 1], [2, 2]],
        "c_edges": [[1, 1], [2, 2]], "cost": [[1e308, "inf"], ["inf", 1e308]],
    }
    with pytest.raises(SchemaError, match="overflow"):
        parse_system(json.dumps(document))


def test_parse_rejects_non_json():
    with pytest.raises(SchemaError, match="JSON"):
        parse_system("n: 1")


def test_parse_warns_on_duplicate_edges():
    document = json.loads(emit_system(*section5_system()))
    document["a_edges"].append(document["a_edges"][0])
    system, _, warnings = parse_system(json.dumps(document))
    assert warnings and "duplicate" in warnings[0]
    assert system == section5_system()[0]


def test_parse_collapses_duplicates_with_warning():
    document = {
        "n": 2, "m": 1, "p": 1, "a_edges": [[1, 1], [1, 1], [2, 1]], "b_edges": [[1, 1]],
        "c_edges": [], "cost": [[1]],
    }
    system, _, warnings = parse_system(json.dumps(document))
    assert system.a_edges == frozenset({(1, 1), (2, 1)})
    assert warnings == ["a_edges: 1 duplicate entries collapsed"]


def test_setcover_roundtrip():
    instance = fig1_cover_instance()
    document = {
        "universe_size": instance.universe_size,
        "sets": [sorted(s) for s in instance.sets],
        "weights": list(instance.weights),
    }
    parsed = parse_setcover(json.dumps(document))
    assert parsed == instance


def test_setcover_rejects_uncoverable():
    with pytest.raises(SchemaError, match="cover"):
        parse_setcover(json.dumps({"universe_size": 3, "sets": [[1]], "weights": [1]}))


def test_setcover_rejects_elements_outside_the_universe():
    document = {"universe_size": 2, "sets": [[1, 3], [2]], "weights": [1, 1]}
    with pytest.raises(SchemaError, match=r"^set 1 contains elements outside 1\.\.2$"):
        parse_setcover(json.dumps(document))


def test_setcover_size_cap_matches_the_reduced_system_cap(monkeypatch):
    from feedsel import fileio

    cap = fileio.MAX_SYSTEM_VERTICES
    # The reduction has universe_size + 1 states, one input and one output
    # per set. At the cap the file passes the size check and fails only
    # because its one set covers nothing beyond element 1.
    at_cap = {"universe_size": cap - 3, "sets": [[1]], "weights": [1]}
    with pytest.raises(SchemaError, match="cover the universe"):
        parse_setcover(json.dumps(at_cap))
    over_cap = {"universe_size": cap - 3, "sets": [[1], [1]], "weights": [1, 1]}

    def no_allocation(**fields):
        raise AssertionError("the instance was built before the size check")

    monkeypatch.setattr(fileio, "SetCoverInstance", no_allocation)
    with pytest.raises(SchemaError, match=f"set cover too large: .* = {cap + 1}, "):
        parse_setcover(json.dumps(over_cap))


def test_parse_rejects_integer_cost_beyond_float_range():
    document = json.loads(emit_system(*section5_system()))
    document["cost"][1][2] = 10**400
    with pytest.raises(SchemaError, match=r"cost entry \(2, 3\) is an integer beyond"):
        parse_system(json.dumps(document))
    document["cost"][1][2] = -(10**400)
    with pytest.raises(SchemaError, match=r"cost entry \(2, 3\) must be >= 0"):
        parse_system(json.dumps(document))


def test_setcover_rejects_integer_weight_beyond_float_range():
    document = {"universe_size": 2, "sets": [[1], [2]], "weights": [1, 10**400]}
    with pytest.raises(SchemaError, match="weight 2 must be finite"):
        parse_setcover(json.dumps(document))


@pytest.mark.parametrize("element", ["[2]", "1e400", "true", "2.7"])
def test_setcover_rejects_non_integer_elements(element):
    # Before the check these raised TypeError or OverflowError, or were
    # read as 1 and 2.
    text = f'{{"universe_size": 2, "sets": [[1], [2, {element}]], "weights": [1, 1]}}'
    with pytest.raises(SchemaError, match=r"^set 2: element .* is not an integer$"):
        parse_setcover(text)


edges_strategy = st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=10)


@settings(max_examples=50, deadline=None)
@given(
    a=edges_strategy,
    b=st.sets(st.tuples(st.integers(1, 5), st.integers(1, 2)), max_size=6),
    c=st.sets(st.tuples(st.integers(1, 2), st.integers(1, 5)), max_size=6),
    costs=st.lists(
        st.lists(
            st.one_of(st.integers(0, 99), st.just(math.inf)), min_size=2, max_size=2
        ),
        min_size=2,
        max_size=2,
    ),
)
def test_roundtrip_property(a, b, c, costs):
    system = StructuredSystem(
        n=5, m=2, p=2, a_edges=frozenset(a), b_edges=frozenset(b), c_edges=frozenset(c)
    )
    matrix = CostMatrix.from_rows(costs)
    parsed_system, parsed_costs = roundtrip(system, matrix)
    assert parsed_system == system
    assert parsed_costs.rows == matrix.rows


@settings(max_examples=500, deadline=None)
@example(rows=[[math.nan, 10**400]])
@example(rows=[[1, math.nan, 10**400]])
@example(rows=[[1e308, 1], [1e308, 1]])
@example(rows=[[1, 2], [math.nan, 3]])  # max skips the NaN, so the matrix passes whole
@example(rows=[[2, 1], [True, "inf"]])  # max raises TypeError: row by row
@example(rows=[[2, None]])
@given(rows=faulty_cost_rows())
def test_parsed_costs_agree_with_per_entry_reference(rows):
    document = {"n": 1, "m": len(rows), "p": len(rows[0]) if rows else 0,
                "a_edges": [], "b_edges": [], "c_edges": [], "cost": rows}
    text = json.dumps(document)
    try:
        fast = parse_system(text)[1].rows
    except SchemaError as exc:
        fast = (SchemaError, str(exc))
    try:
        slow = reference_parsed_cost_rows(json.loads(text)["cost"])
    except SchemaError as exc:
        slow = (SchemaError, str(exc))
    assert repr(fast) == repr(slow)
