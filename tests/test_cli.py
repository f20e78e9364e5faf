import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedsel import (
    INF, CostMatrix, SetCoverInstance, StructuredSystem, cost_of, parse_system, reduce_set_cover,
    solve_dp,
)
from feedsel import cli, generators
from feedsel.cli import parse_feedback_arg, run
from feedsel.fileio import SchemaError, emit_system
from feedsel.generators import random_line_system, random_single_input_system
from feedsel.graphs import missing_path_links
from tests.conftest import (
    counted_state_row_builds, expand_runs, fig1_cover_instance, reference_cli_run,
    section5_system, sink_only_input_system,
)

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def section5_file(tmp_path):
    path = tmp_path / "section5.json"
    path.write_text(emit_system(*section5_system()))
    return str(path)


@pytest.fixture
def fig1_file(tmp_path):
    from feedsel import reduce_set_cover

    path = tmp_path / "fig1.json"
    path.write_text(emit_system(*reduce_set_cover(fig1_cover_instance())))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_feedback_arg_forms():
    assert parse_feedback_arg("").sorted_links() == []
    assert parse_feedback_arg("2:3").sorted_links() == [(2, 3)]
    assert parse_feedback_arg("2:3, 1:1").sorted_links() == [(1, 1), (2, 3)]


def test_parse_feedback_arg_rejects_garbage():
    with pytest.raises(ValueError):
        parse_feedback_arg("2-3")


def test_solve_dp_reference_text(capsys, section5_file):
    code, out, _ = invoke(capsys, "solve-dp", section5_file)
    assert code == 0
    assert "(u2,y3)" in out
    assert "cost:     5" in out
    assert "stages:   [0 2 5 5 5]" in out


def test_solve_dp_reference_structured(capsys, section5_file):
    code, out, _ = invoke(capsys, "solve-dp", section5_file, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "dp"
    assert payload["links"] == [[2, 3]]
    assert payload["cost"] == 5
    assert payload["certificates"]["dp_table"]["runs"] == [
        [0, 0, 0, None, None, None], [1, 1, 2, 1, 1, 0], [2, 4, 5, 2, 3, 0],
    ]


def test_a_non_line_error_is_one_line_under_1_kb(tmp_path, capsys):
    # 200 disjoint sets of 100 reduce to 20 001 one-state SCCs that only the hub joins:
    # 19 999 consecutive pairs lack an edge, and the DAG has 20 000 edges.
    sets = tuple(frozenset(range(100 * k + 1, 100 * k + 101)) for k in range(200))
    path = tmp_path / "cover.json"
    path.write_text(emit_system(*reduce_set_cover(SetCoverInstance(20_000, sets, (1,) * 200))))
    for command in ("solve-dp", "solve-two-stage"):
        code, out, err = invoke(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 1024, len(err)
        assert "without an edge: [(2, 3), (3, 4)," in err
        assert "(11, 12), ...] (19999 in all); DAG edges: [(1, 2), " in err
        assert err.endswith("(1, 11), ...] (20000 in all)\n")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    sccs=st.integers(1, 12),
    inputs=st.integers(1, 4),
    outputs=st.integers(1, 4),
    entries=st.lists(st.sampled_from([None, None, INF, 2.5]), min_size=16, max_size=16),
)
def test_structured_dp_runs_expand_to_the_stage_table(seed, sccs, inputs, outputs, entries):
    # Forbidden links leave some tables with unreachable last stages, and
    # float costs put floats and ints side by side in one table.
    system, costs = random_line_system(
        seed, scc_count=sccs, n_inputs=inputs, n_outputs=outputs, cost_range=(0, 3)
    )
    costs = CostMatrix.from_rows([
        [cost if entries[4 * i + j] is None else entries[4 * i + j] for j, cost in enumerate(row)]
        for i, row in enumerate(costs.rows)
    ])
    stage_costs, choices = expand_runs(solve_dp(system, costs).certificates["dp_table"]["runs"])
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "line.json"
        path.write_text(emit_system(system, costs))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["solve-dp", str(path), "--format=structured"])
    report = json.loads(out.getvalue())
    assert code == (0 if report["feasible"] else 1)
    printed_costs, printed_choices = expand_runs(report["certificates"]["dp_table"]["runs"])
    # repr tells 5 from 5.0, which compare equal.
    assert repr(printed_costs) == repr(tuple("inf" if math.isinf(w) else w for w in stage_costs))
    assert printed_choices == choices


_JSON_NUMBERS = (
    st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), -0.0])
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON_TEXT = st.text(max_size=6) | st.sampled_from(["]", "[", "null", "null,\n  ", "],\n    [", "\u00e9\u2603"])
_NUMERIC_ROWS = st.lists(st.none() | st.lists(_JSON_NUMBERS, max_size=4), max_size=5)


def _rows_of_width(width):
    ints = st.lists(st.integers() | st.just(10**400), min_size=width, max_size=width)
    mixed = st.lists(st.integers() | st.booleans() | st.floats(), min_size=width, max_size=width)
    other_width = st.lists(st.integers(), min_size=1, max_size=4)
    return st.lists(st.none() | ints | ints.map(tuple) | mixed | other_width, max_size=6)


_ROW = (1, 2, 0)
_BOOL_ROW = (True, False)


def _shared_rows(width):
    row = st.lists(st.integers(-2, 2) | st.booleans(), min_size=width, max_size=width).map(tuple)

    def draws(pool):
        # Each draw is a pool entry itself or, for a row, an equal copy of it.
        again = st.sampled_from(pool)
        return st.lists(again | again.map(lambda r: r and tuple(list(r))), max_size=10)

    return st.lists(st.none() | row, min_size=1, max_size=4).flatmap(draws)


# Equal-length rows of plain ints as lists or tuples, mixed with nulls,
# rows holding bools or floats, and rows of another width; and rows drawn
# again and again from a few tuples, as one object or as equal copies,
# some holding bools equal to int rows.
_INT_ROWS = st.integers(1, 4).flatmap(_rows_of_width)
_SHARED_ROWS = st.integers(1, 3).flatmap(_shared_rows)
_JSON_TREES = st.recursive(
    st.none() | _JSON_NUMBERS | _JSON_TEXT | _NUMERIC_ROWS | _INT_ROWS | _SHARED_ROWS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@example(["]", "[", "null", ",\n  ", "\u00e9\u2603 \U0001f600"])
@example({"a]": [[1], "]", None, "[", "null,\n    "], "\u00e9": [None, [2], "null"]})
@example([None, [], [True, False], [math.nan, math.inf, -math.inf, -0.0, 10**400], None])
@example([[1, 2], [], None, [3.5]])
@example([(1, 2, 0), None, [3, -4, 10**400], (5, 6, 7)])
@example([[1, 2], None, [True, 2]])
@example([[1, 2], [1.0, 2]])
@example([[1, 2], [1, 2, 3], None])
@example({"choices": [None, (1, 1, 0), (2, 3, 1)], "x": [[1], [2]]})
@example([[None], [None, 1], [[1]], [1, [2]]])
@example({"a": {}, "b": [], "c": [[], {}, [[]], {"d": {"e": []}}, [{}]]})
@example({"lo": -math.inf, "hi": math.inf, "nan": math.nan, "big": 10**400, "x": [-0.0, [1], True]})
@example({})
@example([])
@example(5)
@example("]")
@example(None)
@example(math.nan)
# Runs of one shared tuple, equal copies and null runs, walked item by item.
@example([None] + [_ROW] * 4 + [tuple([1, 2, 0])] * 2 + [(3, 4, 4)] * 3)
@example([None, None, _ROW, tuple(list(_ROW)), None, None, None])
@example([(7,), (7,), None, (8,), (7,)])
# Rows equal to an int row but holding bools or floats must not take the
# %d path, whether they come first or last, shared or copied.
@example([_ROW, (True, 2, 0), _ROW])
@example([(True, 2, 0), _ROW, _ROW])
@example([(1,), (True,), (False,), (0,)])
@example([_BOOL_ROW, _BOOL_ROW, None])
@example([_ROW, (1.0, 2, 0), _ROW])
@given(_JSON_TREES)
def test_structured_renderer_is_json_dumps_with_indent_2(tree):
    assert cli._dumps(tree) == json.dumps(tree, indent=2)


def test_system_files_with_repeated_list_rows_are_json_dumps_with_indent_2():
    # Many equal cost rows, and rows that are one list object repeated.
    system, costs = random_line_system(
        3, scc_count=40, n_inputs=6, n_outputs=5, cost_range=(1, 2)
    )
    text = emit_system(system, costs)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    shared = [1, 2, 0]
    rows = [shared, shared, None, list(shared), [3, 4, 1]]
    assert cli._dumps(rows) == json.dumps(rows, indent=2)


def test_shipped_reference_file_matches(capsys):
    code, out, _ = invoke(capsys, "solve-dp", str(DATA / "section5.json"))
    assert code == 0 and "cost:     5" in out
    system, costs, _ = parse_system((DATA / "section5.json").read_text())
    reference_system, reference_costs = section5_system()
    assert system == reference_system
    assert costs.rows == reference_costs.rows


def test_report_cost_recomputes_from_links(capsys, section5_file):
    _, out, _ = invoke(capsys, "solve-dp", section5_file, "--format", "structured")
    payload = json.loads(out)
    _, costs, _ = parse_system(Path(section5_file).read_text())
    from feedsel import FeedbackPattern

    pattern = FeedbackPattern(frozenset(tuple(link) for link in payload["links"]))
    assert cost_of(pattern, costs) == payload["cost"]


def test_check_sfm_empty_feedback_fails(capsys, fig1_file):
    code, out, _ = invoke(capsys, "check-sfm", fig1_file, "--feedback", "")
    assert code == 1
    assert "uncovered states" in out


def test_check_sfm_cover_passes(capsys, fig1_file):
    code, out, _ = invoke(
        capsys, "check-sfm", fig1_file, "--feedback", "1:1,1:3", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["condition_a"]["uncovered_states"] == []
    assert payload["cost"] == 6


def test_solve_greedy_cli(capsys, fig1_file):
    code, out, _ = invoke(capsys, "solve-greedy", fig1_file, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["links"] == [[1, 1], [1, 3]]
    assert payload["cost"] == 6


def test_solve_two_stage_cli(capsys, section5_file):
    code, out, _ = invoke(capsys, "solve-two-stage", section5_file, "--format", "structured")
    assert code == 0
    assert json.loads(out)["cost"] == 5


def test_gen_setcover_then_solve_exact(capsys, tmp_path):
    cover = fig1_cover_instance()
    unit = type(cover)(universe_size=5, sets=cover.sets, weights=(1, 1, 1))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(
        {"universe_size": 5, "sets": [sorted(s) for s in unit.sets], "weights": list(unit.weights)}
    ))
    system_path = tmp_path / "system.json"
    code, _, _ = invoke(capsys, "gen-setcover", str(cover_path), "-o", str(system_path))
    assert code == 0
    code, out, _ = invoke(capsys, "solve-exact", str(system_path), "--format", "structured")
    assert code == 0
    assert json.loads(out)["cost"] == 2


def test_gen_line_roundtrip_is_bit_for_bit(capsys, tmp_path):
    argv = ["gen-line", "--seed", "11", "--sccs", "3", "--inputs", "2", "--outputs", "2"]
    code, first, _ = invoke(capsys, *argv)
    assert code == 0
    code, second, _ = invoke(capsys, *argv)
    assert first == second
    path = tmp_path / "gen.json"
    path.write_text(first)
    code, solve_first, _ = invoke(capsys, "solve-dp", str(path))
    assert code == 0
    _, solve_second, _ = invoke(capsys, "solve-dp", str(path))
    assert solve_first == solve_second


def test_gen_line_requires_seed(capsys):
    code, _, _ = invoke(capsys, "gen-line", "--sccs", "3")
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--sccs", "0"],
        ["--inputs", "0"],
        ["--scc-size", "3", "1"],
        ["--scc-size", "0", "0"],
        ["--cost", "5", "1"],
        ["--cost", "-5", "-1"],
    ],
)
def test_gen_line_bad_arguments_are_one_line_usage_errors(capsys, args):
    code, out, err = invoke(capsys, "gen-line", "--seed", "1", *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_line_no_pm_flag(capsys, tmp_path):
    path = tmp_path / "nopm.json"
    code, _, _ = invoke(
        capsys, "gen-line", "--seed", "5", "--sccs", "3", "--no-pm", "-o", str(path)
    )
    assert code == 0
    code, out, _ = invoke(capsys, "solve-dp", str(path), "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "dp" and report["certificates"]["condition_b_checked"] is True


def test_calls_in_one_process_share_no_parsed_state(capsys, fig1_file):
    # The parser is built once per process; each call must still parse from
    # scratch, defaults included, whatever the calls before it set.
    calls = [
        ("solve-exact", fig1_file),
        ("solve-exact", fig1_file, "--budget"),
        ("check-sfm", fig1_file, "--feedback", "1:1,1:3"),
        ("gen-line", "--seed", "7"),
        ("gen-line", "--seed", "7", "--sccs", "2", "--inputs", "1", "--no-pm"),
    ]
    first = [invoke(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 0]
    assert first[3][1] != first[4][1]
    for order in (reversed(range(len(calls))), [3, 1, 4, 3, 2, 0, 3]):
        for k in order:
            assert invoke(capsys, *calls[k]) == first[k]


def test_export_dot_styles_and_determinism(capsys, section5_file):
    code, first, _ = invoke(capsys, "export-dot", section5_file, "--feedback", "2:3")
    assert code == 0
    assert "x1 [shape=circle];" in first
    assert "u1 [shape=box];" in first
    assert "y1 [shape=diamond];" in first
    assert "y3 -> u2 [style=dashed];" in first
    _, second, _ = invoke(capsys, "export-dot", section5_file, "--feedback", "2:3")
    assert first == second


SECTION5_DOT_2_3 = """\
digraph system {
  rankdir=LR;
  x1 [shape=circle];
  x2 [shape=circle];
  x3 [shape=circle];
  x4 [shape=circle];
  x5 [shape=circle];
  x6 [shape=circle];
  x7 [shape=circle];
  x8 [shape=circle];
  x9 [shape=circle];
  x10 [shape=circle];
  x11 [shape=circle];
  u1 [shape=box];
  u2 [shape=box];
  u3 [shape=box];
  u4 [shape=box];
  y1 [shape=diamond];
  y2 [shape=diamond];
  y3 [shape=diamond];
  x1 -> x2;
  x2 -> x1;
  x2 -> x3;
  x2 -> y1;
  x3 -> x2;
  x3 -> x3;
  x3 -> x4;
  x4 -> x5;
  x5 -> x4;
  x5 -> x6;
  x6 -> x6;
  x6 -> x7;
  x6 -> y2;
  x7 -> x8;
  x8 -> x7;
  x8 -> x9;
  x8 -> x10;
  x8 -> x11;
  x9 -> x8;
  x9 -> x9;
  x9 -> y3;
  x10 -> x8;
  x10 -> x10;
  x11 -> x8;
  x11 -> x11;
  u1 -> x1;
  u2 -> x3;
  u2 -> x4;
  u3 -> x6;
  u3 -> x7;
  u4 -> x10;
  y3 -> u2 [style=dashed];
}
"""

SECTION5_CONDENSATION_DOT = """\
digraph condensation {
  rankdir=LR;
  C1 [shape=box, label="C1: {x1,x2,x3}\\nin: u1,u2\\nout: y1"];
  C2 [shape=box, label="C2: {x4,x5}\\nin: u2"];
  C3 [shape=box, label="C3: {x6}\\nin: u3\\nout: y2"];
  C4 [shape=box, label="C4: {x7,x8,x9,x10,x11}\\nin: u3,u4\\nout: y3"];
  C1 -> C2;
  C2 -> C3;
  C3 -> C4;
}
"""


def test_export_dot_golden_output(capsys):
    section5 = str(DATA / "section5.json")
    assert invoke(capsys, "export-dot", section5, "--feedback", "2:3") == (0, SECTION5_DOT_2_3, "")
    assert invoke(capsys, "export-dot", section5, "--condensation") == (0, SECTION5_CONDENSATION_DOT, "")
    assert invoke(capsys, "export-dot", section5, "--feedback", "2:9") == (
        2, "", "error: feedback link (2, 9) out of range for m=4, p=3\n"
    )
    # The condensation has no feedback edges to draw links on; an empty
    # link list draws nothing and passes.
    for feedback in ("99:99", "2:3"):
        assert invoke(capsys, "export-dot", section5, "--condensation", "--feedback", feedback) == (
            2, "", "error: --feedback cannot be drawn on the condensation; drop one of the two\n"
        )
    assert invoke(capsys, "export-dot", section5, "--condensation", "--feedback= , ") == (
        0, SECTION5_CONDENSATION_DOT, ""
    )


def test_check_sfm_out_of_range_link_reads_as_export_dot(capsys):
    section5 = str(DATA / "section5.json")
    assert invoke(capsys, "check-sfm", section5, "--feedback", "2:9") == (
        2, "", "error: feedback link (2, 9) out of range for m=4, p=3\n"
    )


def test_feedsel_solves_without_numpy():
    # A None entry in sys.modules makes any import of numpy raise ImportError.
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        f"sys.path.insert(0, {str(DATA.parent / 'src')!r})\n"
        "import feedsel\n"
        "from feedsel import cli\n"
        f"sys.exit(cli.run(['solve-exact', {str(DATA / 'section5.json')!r}]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "cost:     5\n" in result.stdout


def test_export_dot_condensation(capsys, section5_file):
    code, out, _ = invoke(capsys, "export-dot", section5_file, "--condensation")
    assert code == 0
    assert "C1 -> C2;" in out and "C3 -> C4;" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "solve-dp", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_malformed_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1}')
    code, _, err = invoke(capsys, "solve-dp", str(path))
    assert code == 2
    assert "missing required field" in err


@pytest.mark.parametrize("command", ["solve-dp", "solve-two-stage"])
def test_non_line_system_is_reported(capsys, tmp_path, command):
    from feedsel import CostMatrix, StructuredSystem

    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(1, 1), (2, 2)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    path = tmp_path / "twin.json"
    path.write_text(emit_system(system, CostMatrix.from_rows([[1]])))
    code, _, err = invoke(capsys, command, str(path))
    assert code == 2
    assert "line spanning path" in err


def test_infeasible_solve_exits_one(capsys, tmp_path):
    from feedsel import INF, CostMatrix, StructuredSystem

    system = StructuredSystem(
        n=2, m=1, p=1,
        a_edges=frozenset({(2, 1)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 2)}),
    )
    path = tmp_path / "chain.json"
    path.write_text(emit_system(system, CostMatrix.from_rows([[INF]])))
    # With the lone link forbidden, no pattern can cover the chain.
    code, out, _ = invoke(capsys, "solve-exact", str(path))
    assert code == 1
    assert "feasible: no" in out


def test_solve_exact_solves_a_cost_at_the_float_limit(capsys, tmp_path):
    system = StructuredSystem(
        n=3, m=1, p=1,
        a_edges=frozenset({(2, 1), (3, 2)}),
        b_edges=frozenset({(1, 1)}),
        c_edges=frozenset({(1, 3)}),
    )
    path = tmp_path / "chain.json"
    path.write_text(emit_system(system, CostMatrix.from_rows([[sys.float_info.max]])))
    code, out, err = invoke(capsys, "solve-exact", str(path), "--format", "structured")
    assert (code, err) == (0, "")
    assert json.loads(out)["cost"] == sys.float_info.max


def test_solve_exact_budget_refusal_is_usage_error(capsys, section5_file):
    code, _, err = invoke(capsys, "solve-exact", section5_file, "--budget", "3")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("budget", ["-1", "-30"])
def test_solve_exact_refuses_a_negative_budget(capsys, tmp_path, budget):
    system = StructuredSystem(
        n=1, m=1, p=1, a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}), c_edges=frozenset({(1, 1)}),
    )
    path = tmp_path / "no_links.json"
    path.write_text(emit_system(system, CostMatrix.from_rows([[INF]])))
    code, out, err = invoke(capsys, "solve-exact", str(path), f"--budget={budget}")
    assert (code, out) == (2, "")
    assert err == (
        f"error: enumeration budget must lie in 0..24 admissible links "
        f"(a larger one is capped), got {budget}\n"
    )
    assert invoke(capsys, "solve-exact", str(path), "--budget", "0")[0] == 1


def test_solve_exact_budget_is_capped(capsys, tmp_path):
    system = StructuredSystem(
        n=1, m=5, p=5, a_edges=frozenset({(1, 1)}),
        b_edges=frozenset({(1, 1)}), c_edges=frozenset({(1, 1)}),
    )
    path = tmp_path / "links25.json"
    path.write_text(emit_system(system, CostMatrix.from_rows([[1] * 5] * 5)))
    code, out, err = invoke(capsys, "solve-exact", str(path), "--budget", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: 25 admissible links exceed") and err.count("\n") == 1


def test_cost_overflow_is_a_one_line_input_error(capsys, tmp_path):
    document = {
        "n": 2, "m": 2, "p": 2, "a_edges": [], "b_edges": [[1, 1], [2, 2]],
        "c_edges": [[1, 1], [2, 2]], "cost": [[1e308, "inf"], ["inf", 1e308]],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(document))
    code, out, err = invoke(capsys, "solve-exact", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow" in err and err.count("\n") == 1


def test_integer_costs_beyond_float_range_are_one_line_input_errors(capsys, tmp_path):
    # json writes 10**400 as the integer literal 1 followed by 400 zeros.
    document = json.loads(emit_system(*section5_system()))
    document["cost"][0][2] = 10**400
    system_path = tmp_path / "huge-cost.json"
    system_path.write_text(json.dumps(document))
    cover_path = tmp_path / "huge-weight.json"
    cover_path.write_text(
        json.dumps({"universe_size": 2, "sets": [[1], [2]], "weights": [1, 10**400]})
    )
    for argv, named in (
        (["solve-dp", str(system_path)], "cost entry (1, 3)"),
        (["check-sfm", str(system_path), "--feedback", "1:1"], "cost entry (1, 3)"),
        (["gen-setcover", str(cover_path)], "weight 2"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1e400", 'is not finite, got inf; use "inf" to forbid a link'),
        ("Infinity", 'is not finite, got inf; use "inf" to forbid a link'),
        ("-Infinity", "must be >= 0, got -inf"),
        ("NaN", "must be >= 0, got nan"),
    ],
)
def test_non_finite_numeric_costs_are_one_line_input_errors(capsys, tmp_path, literal, message):
    # Only the string "inf" forbids a link; a number that reads as inf is an error.
    document = json.loads(emit_system(*section5_system()))
    document["cost"][0][2] = "PLACEHOLDER"
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(document).replace('"PLACEHOLDER"', literal))
    assert invoke(capsys, "solve-dp", str(path)) == (2, "", f"error: cost entry (1, 3) {message}\n")


@pytest.mark.parametrize(
    "sizes",
    [
        ["--sccs", "100001", "--scc-size", "1", "1", "--inputs", "1", "--outputs", "1"],
        ["--sccs", "49999", "--scc-size", "2", "2", "--inputs", "1", "--outputs", "1", "--no-pm"],
        ["--inputs", "400", "--outputs", "400"],
    ],
)
def test_gen_line_beyond_the_size_cap_is_a_one_line_input_error(capsys, sizes):
    # The generator refuses before it draws. Without the check the first two
    # would write files of 100 003 and 100 001 vertices (the --no-pm hub SCC
    # has 3 states), which parse_system rejects, and the last would draw a
    # 160 000-entry cost matrix.
    code, out, err = invoke(capsys, "gen-line", "--seed", "1", *sizes)
    assert code == 2
    assert out == ""
    assert err.startswith("error: instance too large") and err.count("\n") == 1, err


def test_oversized_set_cover_is_a_one_line_input_error(capsys, tmp_path):
    path = tmp_path / "huge-cover.json"
    path.write_text('{"universe_size":200000000,"sets":[[1]],"weights":[1]}')
    code, out, err = invoke(capsys, "gen-setcover", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: set cover too large") and err.count("\n") == 1


def test_set_cover_weights_that_overflow_are_a_one_line_input_error(capsys, tmp_path):
    # The error names the weights, not the cost entries of the reduction.
    path = tmp_path / "overflow-cover.json"
    path.write_text('{"universe_size": 2, "sets": [[1], [2]], "weights": [1e308, 1e308]}')
    assert invoke(capsys, "gen-setcover", str(path)) == (
        2, "", "error: the weights sum beyond the largest float, "
        "so cover totals would overflow to inf; scale the weights down\n"
    )


def test_non_integer_set_element_is_a_one_line_input_error(capsys, tmp_path):
    path = tmp_path / "nested-cover.json"
    path.write_text('{"universe_size": 2, "sets": [[1], [[2]]], "weights": [1, 1]}')
    assert invoke(capsys, "gen-setcover", str(path)) == (
        2, "", "error: set 2: element [2] is not an integer\n"
    )


def test_solve_greedy_that_misses_the_source_exits_1_with_one_reason(capsys, tmp_path):
    path = tmp_path / "sink-only.json"
    path.write_text(emit_system(*sink_only_input_system()))
    code, out, err = invoke(capsys, "solve-greedy", str(path))
    assert (code, err) == (1, "")
    reasons = [line for line in out.splitlines() if line.startswith("reason:")]
    assert len(reasons) == 1 and "does not close the loop" in reasons[0]


def test_solve_greedy_precondition_is_usage_error(capsys, section5_file):
    code, _, err = invoke(capsys, "solve-greedy", section5_file)
    assert code == 2
    assert "single input" in err


def test_duplicate_edges_warn_on_stderr(capsys, tmp_path):
    document = json.loads(emit_system(*section5_system()))
    document["a_edges"].append(document["a_edges"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(document))
    code, _, err = invoke(capsys, "solve-dp", str(path))
    assert code == 0
    assert "duplicate" in err


def test_python_dash_m_runs_the_cli(capsys):
    env = {**os.environ, "PYTHONPATH": str(DATA.parent / "src")}
    for module in ("feedsel", "feedsel.cli"):
        result = subprocess.run(
            [sys.executable, "-m", module, "solve-exact", "/nonexistent.json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2, module
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    section5 = str(DATA / "section5.json")
    result = subprocess.run(
        [sys.executable, "-m", "feedsel", "solve-dp", section5],
        capture_output=True, text=True, env=env,
    )
    code, out, _ = invoke(capsys, "solve-dp", section5)
    assert result.returncode == code == 0
    assert result.stdout == out


def test_oversized_system_is_a_one_line_input_error(capsys, tmp_path):
    text = (
        '{"n": 200000000, "m": 1, "p": 1, "a_edges": [], "b_edges": [],'
        ' "c_edges": [], "cost": [[1]]}'
    )
    # The cap rejects the file before any per-vertex list is allocated.
    with pytest.raises(SchemaError, match="system too large"):
        parse_system(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    for argv in (["solve-dp"], ["solve-exact"], ["check-sfm", "--feedback", "1:1"]):
        code, out, err = invoke(capsys, *argv, str(path))
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: system too large") and err.count("\n") == 1


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_is_a_one_line_error(capsys, monkeypatch, error):
    def exhausted(system, costs):
        raise error()

    monkeypatch.setattr(cli, "solve_dp", exhausted)
    code, out, err = invoke(capsys, "solve-dp", str(DATA / "section5.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzz: every subcommand, malformed inputs, in-process

# Small JSON values of every type; integers stay small or lie far beyond
# the size cap and the float range, so no case allocates much.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.sampled_from([2**63, 10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4)
    | st.just("inf"),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def fuzzed_document(draw, document):
    """``document`` as JSON text after at most one malformation."""
    how = draw(st.sampled_from(["none", "replace", "drop", "entry", "whole", "truncate"]))
    field_name = draw(st.sampled_from(sorted(document)))
    if how == "replace":
        document[field_name] = draw(JSON_VALUES)
    elif how == "drop":
        del document[field_name]
    elif how == "entry" and isinstance(document[field_name], list) and document[field_name]:
        entries = document[field_name]
        index = draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[index], list) and entries[index] and draw(st.booleans()):
            entries = entries[index]
            index = draw(st.integers(0, len(entries) - 1))
        entries[index] = draw(JSON_VALUES)
    elif how == "whole":
        document = draw(JSON_VALUES)
    text = json.dumps(document)
    if how == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def system_documents(draw):
    n, m, p = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))

    def pairs(rows, cols):
        if not rows or not cols:
            return []
        pair = st.tuples(st.integers(1, rows), st.integers(1, cols)).map(list)
        return draw(st.lists(pair, max_size=4))

    cost = st.sampled_from([0, 1, 2.5, "inf"])
    return draw(fuzzed_document({
        "n": n, "m": m, "p": p,
        "a_edges": pairs(n, n), "b_edges": pairs(n, m), "c_edges": pairs(p, n),
        "cost": [[draw(cost) for _ in range(p)] for _ in range(m)],
    }))


@st.composite
def cover_documents(draw):
    universe = draw(st.integers(1, 4))
    element = st.integers(1, universe)
    sets = draw(st.lists(st.lists(element, min_size=1, max_size=3), min_size=1, max_size=3))
    sets.append(list(range(1, universe + 1)))
    weights = [draw(st.sampled_from([0, 1, 2.5])) for _ in sets]
    return draw(fuzzed_document({"universe_size": universe, "sets": sets, "weights": weights}))


FEEDBACK_ARGS = (
    st.text(alphabet="0123456789:,; -x", max_size=8)
    | st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), max_size=3).map(
        lambda links: ",".join(f"{i}:{j}" for i, j in links)
    )
    | st.just("1:99999999999999999999")
)


def _gen_line_argv(draw):
    small = st.integers(-1, 4).map(str)
    argv = ["gen-line", "--seed", str(draw(st.integers(0, 2**40)))]
    for option, count in (("--sccs", 1), ("--scc-size", 2), ("--inputs", 1),
                          ("--outputs", 1), ("--cost", 2)):
        if draw(st.booleans()):
            argv += [option, *(draw(small) for _ in range(count))]
    return argv + draw(st.sampled_from([[], ["--pm"], ["--no-pm"]]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_exit_0_1_or_2_with_one_error_line(data):
    draw = data.draw
    command = draw(st.sampled_from([
        "check-sfm", "solve-dp", "solve-two-stage", "solve-greedy", "solve-exact",
        "export-dot", "gen-setcover", "gen-line",
    ]))
    with tempfile.TemporaryDirectory() as tmp:
        if command == "gen-line":
            argv = _gen_line_argv(draw)
        else:
            path = Path(tmp) / "input.json"
            path.write_text(draw(cover_documents() if command == "gen-setcover" else system_documents()))
            argv = [command, str(path)]
            if command in ("check-sfm", "export-dot"):
                argv.append(f"--feedback={draw(FEEDBACK_ARGS)}")
            if command == "export-dot" and draw(st.booleans()):
                argv.append("--condensation")
            if command == "solve-exact":
                argv.append(f"--budget={draw(st.integers(-2, 24))}")
            if command.startswith(("check", "solve")):
                argv.append(f"--format={draw(st.sampled_from(['text', 'structured']))}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    # Duplicate-edge warnings may come before the one error line.
    warnings = [line for line in lines if line.startswith(f"warning: {argv[1]}: ")]
    if code == 2:
        assert len(lines) == len(warnings) + 1 and lines[-1].startswith("error: "), (argv, lines)
    else:
        assert lines == warnings, (argv, lines)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32), sccs=st.integers(1, 5), inputs=st.integers(1, 3),
    outputs=st.integers(1, 3), pm=st.booleans(),
)
@example(seed=3, sccs=5, inputs=3, outputs=3, pm=False)  # a coverage optimum failing (b)
def test_every_feasible_solve_passes_check_sfm_and_every_dp_answer_is_optimal(
    seed, sccs, inputs, outputs, pm
):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "line.json")
        assert _quiet_run([
            "gen-line", "--seed", str(seed), "--sccs", str(sccs), "--inputs", str(inputs),
            "--outputs", str(outputs), "--pm" if pm else "--no-pm", "-o", path,
        ]) == 0
        costs = {}
        for command in ("solve-dp", "solve-two-stage", "solve-greedy", "solve-exact"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run([command, path, "--format=structured"])
            if code:
                continue
            report = json.loads(out.getvalue())
            assert report["feasible"] is True
            feedback = ",".join(f"{i}:{j}" for i, j in report["links"])
            assert _quiet_run(["check-sfm", path, f"--feedback={feedback}"]) == 0, (command, feedback)
            costs[report["method"]] = report["cost"]
    # Every generated system is feasible, and its at most 9 links are within the oracle's budget.
    assert costs["exact"] == costs.get("dp", costs["exact"])


# ---------------------------------------------------------------------------
# golden digest: exit code, stdout and stderr of every subcommand

CLI_DIGEST = "c571eb49571f2f0e3cc633e2a1499ab961812c6f941fe2d5d7087ded1e621721"

# Values a single fault puts in place of a field or an entry. Non-finite
# floats are left out: the JSON spellings Infinity and NaN are not part of
# the file format.
FAULT_VALUES = (
    None, True, -1, 0, 3, 2.5, -2.5, 2**63, 10**400, "x", "inf", "",
    [], [1], [0, 1], [1, 1, 1], [1, "a"], [[1, 2]], {}, {"n": 1},
)


def _single_fault(rng: random.Random, document: dict, name: str, how: str | None = None) -> str:
    """``document`` as JSON text with one fault in or at field ``name``."""
    document = copy.deepcopy(document)
    how = how or rng.choice(["replace", "drop", "entry", "nested", "duplicate", "truncate"])
    entries = document[name]
    if how == "replace":
        document[name] = rng.choice(FAULT_VALUES)
    elif how == "drop":
        del document[name]
    elif how in ("entry", "nested", "duplicate") and isinstance(entries, list) and entries:
        index = rng.randrange(len(entries))
        if how == "duplicate":
            entries.append(copy.deepcopy(entries[index]))
        elif how == "nested" and isinstance(entries[index], list) and entries[index]:
            entries[index][rng.randrange(len(entries[index]))] = rng.choice(FAULT_VALUES)
        else:
            entries[index] = rng.choice(FAULT_VALUES)
    text = json.dumps(document)
    if how == "truncate":
        text = text[: rng.randrange(len(text))]
    return text


def _golden_system_files(directory: Path) -> list[tuple[Path, str]]:
    """40 generated system files, each with its full link set as feedback."""
    made = []
    for seed in range(24):
        made.append(random_line_system(
            seed, scc_count=1 + seed % 5, n_inputs=1 + seed % 3, n_outputs=1 + seed % 4,
            perfect_matching=seed % 2 == 0,
        ))
    for seed, (system, costs) in enumerate(made[:6]):
        # Forbid some links, so that some of these become infeasible.
        rows = [list(row) for row in costs.rows]
        rng = random.Random(seed)
        for i, row in enumerate(rows):
            for j in range(len(row)):
                if rng.random() < 0.6:
                    rows[i][j] = math.inf
        made.append((system, CostMatrix.from_rows(rows)))
    for seed in range(6):
        made.append(random_single_input_system(seed, n_branches=1 + seed % 4))
    for seed in range(4):
        rng = random.Random(seed)
        universe = rng.randint(2, 6)
        sets = [frozenset(rng.sample(range(1, universe + 1), rng.randint(1, universe)))
                for _ in range(rng.randint(2, 7))]
        sets.append(frozenset(range(1, universe + 1)))
        weights = tuple(rng.choice([1, 2, 2.5, 7]) for _ in sets)
        made.append(reduce_set_cover(SetCoverInstance(universe, tuple(sets), weights)))
    files = []
    for k, (system, costs) in enumerate(made):
        path = directory / f"generated-{k}.json"
        path.write_text(emit_system(system, costs))
        files.append((path, ",".join(f"{i}:{j}" for i, j in costs.finite_links())))
    return files


def _system_argvs(path: Path, feedback: str) -> list[list[str]]:
    path = str(path)
    argvs = [["export-dot", path, f"--feedback={feedback}"], ["export-dot", path, "--condensation"]]
    for fmt in ("--format=text", "--format=structured"):
        argvs += [["check-sfm", path, f"--feedback={links}", fmt] for links in ("", feedback)]
        argvs += [
            [command, path, fmt]
            for command in ("solve-dp", "solve-two-stage", "solve-greedy", "solve-exact")
        ]
    return argvs


def test_cli_outputs_match_golden_digest(tmp_path):
    argvs = _system_argvs(DATA / "section5.json", "2:3,1:1")
    argvs.append(["gen-setcover", str(DATA / "fig1_cover.json")])
    fig1_system = tmp_path / "fig1-system.json"
    assert run(["gen-setcover", str(DATA / "fig1_cover.json"), "-o", str(fig1_system)]) == 0
    argvs += _system_argvs(fig1_system, "1:1,1:3")
    for path, feedback in _golden_system_files(tmp_path):
        argvs += _system_argvs(path, feedback)
    argvs += [
        ["gen-line", "--seed", "1"],
        ["gen-line", "--seed", "2", "--no-pm"],
        ["gen-line", "--seed", "3", "--sccs", "6", "--scc-size", "2", "4", "--cost", "0", "9"],
    ]
    rng = random.Random(20261018)
    system_documents = [json.loads(p.read_text()) for p in (DATA / "section5.json", fig1_system)]
    cover_document = json.loads((DATA / "fig1_cover.json").read_text())
    for k in range(240):
        # Every other fault lands in the cost matrix, which has the most
        # checks, and most of those in one entry.
        document = system_documents[k % 3 == 0]
        name = "cost" if k % 2 else rng.choice(sorted(document))
        how = "nested" if k % 4 == 1 else None
        path = tmp_path / f"faulty-system-{k}.json"
        path.write_text(_single_fault(rng, document, name, how))
        argvs += _system_argvs(path, "2:3,1:1")
    for k in range(60):
        path = tmp_path / f"faulty-cover-{k}.json"
        path.write_text(_single_fault(rng, cover_document, rng.choice(sorted(cover_document))))
        argvs.append(["gen-setcover", str(path)])

    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        stdout = re.sub(r'"elapsed_sec": [^,\n]*', '"elapsed_sec": _', out.getvalue())
        record = repr((argv, code, stdout, err.getvalue()))
        records.append(record.replace(str(tmp_path), "<tmp>").replace(str(DATA), "<data>"))
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == CLI_DIGEST


# ---------------------------------------------------------------------------
# the collector pause: commands make no reference cycles


def _quiet_run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def _garbage_left_by(argv) -> int:
    """Objects the cyclic collector frees after ``run(argv)``, with it off around the call."""
    gc.disable()
    try:
        gc.collect()
        _quiet_run(argv)
        return gc.collect()
    finally:
        gc.enable()


def test_commands_leave_no_cyclic_garbage(tmp_path):
    chain, fig1, costly = (str(tmp_path / name) for name in ("chain.json", "fig1.json", "costly.json"))
    argvs = [  # the generators first: they write the other commands' inputs
        ["gen-line", "--seed", "3", "--sccs", "500", "--inputs", "50", "--outputs", "50", "-o", chain],
        ["gen-setcover", str(DATA / "fig1_cover.json"), "-o", fig1],
        ["gen-setcover", str(DATA / "costly_cover_24.json"), "-o", costly],
    ]
    for path in (str(DATA / "section5.json"), fig1, costly, chain):
        for fmt in ("text", "structured"):
            argvs += [
                ["solve-dp", path, "--format", fmt],
                ["solve-two-stage", path, "--format", fmt],
                ["solve-exact", path, "--budget", "24", "--format", fmt],
                ["solve-greedy", path, "--format", fmt],
                ["check-sfm", path, "--feedback", "1:1", "--format", fmt],
            ]
    _quiet_run(["solve-dp", str(DATA / "section5.json")])  # warm-up: caches, lazy imports
    left = {tuple(argv): _garbage_left_by(argv) for argv in argvs}
    assert left == {tuple(argv): 0 for argv in argvs}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve-dp", str(DATA / "section5.json")], 0),
        (["check-sfm", str(DATA / "section5.json"), "--feedback", ""], 1),
        (["solve-dp", str(DATA / "no-such-file.json")], 2),
        (["solve-dp"], 2),
    ],
)
@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_setting(monkeypatch, argv, code, enabled):
    seen = []
    original = cli.check_no_sfm

    def recording(*args):
        seen.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(cli, "check_no_sfm", recording)
    (gc.enable if enabled else gc.disable)()
    try:
        assert _quiet_run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == ([False] if argv[0] == "check-sfm" else [])  # paused while it runs


# ---------------------------------------------------------------------------
# golden digest at benchmark size: the fast paths on the systems they serve

BENCH_SIZE_DIGEST = "7a421c9dd140d8f2a7dd499b82fa958889e2c37a17b4f380d968ff3e5f2fac4d"


def _masked_run(argv: list[str] | None, runner=run) -> tuple[int, str, str, str]:
    """Exit code, stdout with ``elapsed_sec`` masked, stderr, and the raw stdout of ``runner(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = runner(argv)
    masked = re.sub(r'"elapsed_sec": [^,\n]*', '"elapsed_sec": _', out.getvalue())
    return code, masked, err.getvalue(), out.getvalue()


def test_bench_size_outputs_match_golden_digest(tmp_path):
    """solve-dp, solve-two-stage and check-sfm on their links, on 250- and 500-SCC chains."""
    records = []
    for sccs in (250, 500):
        for links in ("50", "20"):
            for pm in ("--pm", "--no-pm"):
                path = str(tmp_path / f"line-{sccs}-{links}{pm}.json")
                argv = ["gen-line", "--seed", str(sccs + int(links)), "--sccs", str(sccs),
                        "--inputs", links, "--outputs", links, pm]
                assert run([*argv, "-o", path]) == 0
                for command in ("solve-dp", "solve-two-stage"):
                    code, out, err, raw = _masked_run([command, path, "--format=structured"])
                    records.append((argv, command, code, out, err))
                    if code == 2:
                        continue
                    feedback = ",".join(f"{i}:{j}" for i, j in json.loads(raw)["links"])
                    check = ["check-sfm", path, f"--feedback={feedback}", "--format=structured"]
                    records.append((command, *_masked_run(check)[:3]))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == BENCH_SIZE_DIGEST


def test_closed_loop_commands_build_at_most_one_loop_row_list(capsys, monkeypatch, tmp_path, section5_file):
    path = tmp_path / "nopm.json"
    path.write_text(emit_system(*random_line_system(
        7, scc_count=4, scc_size_range=(2, 2), n_inputs=3, n_outputs=3, perfect_matching=False,
    )))
    calls = []
    original = StructuredSystem.loop_rows

    def spy(self, links=()):
        calls.append("loop_rows")
        return original(self, links)

    monkeypatch.setattr(StructuredSystem, "loop_rows", spy)
    # solve-dp tests the state matching on the system's state rows, and
    # cycle spanning on the answer's loop rows only when that test fails.
    code, _, _ = invoke(capsys, "solve-dp", section5_file)
    assert code == 0 and calls == []
    code, out, err = invoke(capsys, "solve-dp", str(path), "--format", "structured")
    assert (code, out) == (2, "") and err.startswith("error: no state perfect matching")
    assert calls == ["loop_rows"]
    calls.clear()
    code, out, _ = invoke(capsys, "solve-two-stage", str(path), "--format", "structured")
    # The cycle stage matches on one row list, with its input rows rebuilt from the costs.
    assert code == 0 and calls == ["loop_rows"]
    links = ",".join(f"{i}:{j}" for i, j in json.loads(out)["links"])
    calls.clear()
    code, _, _ = invoke(capsys, "check-sfm", str(path), "--feedback", links)
    # One row list per pattern, shared by both conditions.
    assert code == 0 and calls == ["loop_rows"]


def test_state_row_builds_per_command_match_the_one_per_system_reference(capsys, tmp_path, section5_file):
    nopm, single, line = (str(tmp_path / name) for name in ("nopm.json", "single.json", "line.json"))
    Path(nopm).write_text(emit_system(*random_line_system(
        7, scc_count=4, scc_size_range=(2, 2), n_inputs=3, n_outputs=3, perfect_matching=False,
    )))
    Path(single).write_text(emit_system(*random_single_input_system(5, n_branches=3)))
    # (argv, exit code, systems whose state rows the command builds)
    cases = [
        (["solve-dp", section5_file], 0, 1),
        (["solve-dp", nopm], 2, 1),  # the coverage optimum's cycle test reads the same rows
        (["solve-two-stage", nopm], 0, 1),
        (["solve-greedy", single], 0, 1),  # the state matching and the answer's check share them
        (["solve-exact", nopm], 0, 1),
        (["check-sfm", section5_file, "--feedback", "2:3"], 0, 1),
        (["export-dot", section5_file, "--feedback", "2:3"], 0, 0),  # edges only, no rows
        (["export-dot", section5_file, "--condensation"], 0, 1),
        (["gen-line", "--seed", "3", "--sccs", "30", "--no-pm", "-o", line], 0, 1),
    ]
    for argv, code, systems in cases:
        with counted_state_row_builds() as built:
            assert invoke(capsys, *argv)[0] == code, argv
        assert len(built) == systems, argv
    # Every draw of a generator, whichever test rejects it, builds its rows once.
    good = StructuredSystem(1, 1, 1, {(1, 1)}, {(1, 1)}, {(1, 1)})
    draws = iter([
        StructuredSystem(2, 1, 1, {(1, 1), (2, 2)}, {(1, 1)}, {(1, 1)}),  # two SCCs, no edge
        StructuredSystem(1, 1, 1, set(), {(1, 1)}, {(1, 1)}),  # no state matching
        StructuredSystem(1, 1, 1, {(1, 1)}, set(), {(1, 1)}),  # the full pattern fails coverage
        good,
    ])
    with counted_state_row_builds() as built:
        drawn = generators._redraw(lambda: (next(draws), CostMatrix.from_rows([[1]])),
                                   lambda c: not missing_path_links(c))
    assert drawn[0] is good
    assert len(built) == 4 and len({id(system) for system in built}) == 4


# ---------------------------------------------------------------------------
# one parse per command line: the command's own parser, the full one as fallback

COMMANDS = (
    "check-sfm", "solve-dp", "solve-two-stage", "solve-greedy", "solve-exact",
    "gen-setcover", "gen-line", "export-dot",
)
SECTION5 = str(DATA / "section5.json")


def _valid_argv(command: str, tmp_path: Path) -> list[str]:
    if command == "gen-setcover":
        return [command, str(DATA / "fig1_cover.json"), "-o", str(tmp_path / "fig1.json")]
    if command == "gen-line":
        return [command, "--seed", "1", "-o", str(tmp_path / "line.json")]
    if command == "solve-greedy":  # a single-input system
        path = tmp_path / "fig1-system.json"
        path.write_text(emit_system(*reduce_set_cover(fig1_cover_instance())))
        return [command, str(path)]
    if command == "check-sfm":
        return [command, SECTION5, "--feedback", "2:3"]
    return [command, SECTION5]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_valid_command_line_is_parsed_once(monkeypatch, tmp_path, command):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(parser, *args, **kwargs):
        calls.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert _quiet_run(_valid_argv(command, tmp_path)) == 0
    assert calls == [f"feedsel {command}"]


def _reference_table() -> list[list[str]]:
    table = [[], ["-h"], ["--help"], ["bogus"], ["--"], ["--", "solve-dp", SECTION5], ["-x"]]
    for command in COMMANDS:
        table += [[command, "-h"], [command]]
    table += [["solve-dp", SECTION5, "--format=bad"], ["solve-exact", SECTION5, "--budget", "x"]]
    for command in ("check-sfm", "solve-dp", "solve-exact"):
        table += [
            [command, SECTION5, "--bogus"],
            [command, SECTION5, "extra"],
            [command, SECTION5, "--bogus", "--format=bad"],  # the command's error comes first
            [command, SECTION5, "-h", "--bogus"],
            [command, "--", SECTION5],
            [command, SECTION5, "--", "extra"],
            [command, SECTION5, "--format", "structured"],
        ]
    table += [
        ["solve-dp", SECTION5, "--fo", "structured"],
        ["check-sfm", SECTION5, "--feed=1:1"],
        ["check-sfm", SECTION5, "--feedback="],
        ["check-sfm", SECTION5, "--feedback", "2:3", "--format", "structured"],
        ["check-sfm", SECTION5, "--feedback"],
        ["gen-line"],
        ["gen-line", "--sccs", "2"],
        ["gen-line", "--seed", "1", "--pm", "--no-pm"],
        ["gen-line", "--seed", "1", "--sc", "2"],
        ["export-dot", SECTION5, "--condensation"],
        ["gen-setcover", str(DATA / "fig1_cover.json")],
    ]
    return table


def test_cli_run_matches_the_full_parser_reference():
    for argv in _reference_table():
        assert _masked_run(argv)[:3] == _masked_run(argv, reference_cli_run)[:3], argv


def test_run_without_argv_reads_sys_argv(monkeypatch):
    argv = ["check-sfm", SECTION5, "--feedback", "2:3"]
    monkeypatch.setattr(sys, "argv", ["feedsel", *argv])
    assert _masked_run(None)[:3] == _masked_run(argv)[:3] == (
        0, "condition a: pass; condition b: pass; feasible\n", ""
    )


def test_an_unrecognized_argument_from_sys_argv_is_the_full_parsers_error(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["feedsel", "check-sfm", SECTION5, "--bogus"])
    code, out, err = _masked_run(None)[:3]
    assert (code, out) == (2, "")
    assert err.startswith("usage: feedsel [-h]\n")
    assert err.endswith("\nfeedsel: error: unrecognized arguments: --bogus\n")
