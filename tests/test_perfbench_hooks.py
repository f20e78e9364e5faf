"""The perfbench span hooks still name attributes that exist, and its
instance builder still finds every library name it uses.

A hook whose target a refactor renames or deletes does not fail: its span
just reads 0 ms in every traced run. A name the builder imports or calls
fails only when the benchmark runs, and tier 1 does not collect the
perfbench tests. These tests catch both in tier 1.
"""

import importlib.util
import sys
from pathlib import Path

from feedsel import cli, emit_system, generators, parse_system
from feedsel.graphs import state_bipartite
from tests.conftest import reference_state_bipartite_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Hooks that no longer resolve, left for the benchmark change that takes
# its counters from the solvers instead of patching names.
KNOWN_DEAD = {
    "StructuredSystem.require_valid",
    "feedsel.solvers.closed_loop_bipartite",
    "feedsel.solvers.closed_loop_successors",
    "feedsel.solvers.closed_loop_bipartite_adjacency",
    "feedsel.solvers.scc_ids",
    "feedsel.solvers.hopcroft_karp",
    "feedsel.sfm.check_condition_b",
}


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_no_span_hook_is_dead_beyond_the_known_ones(monkeypatch):
    spans = _load("spans", monkeypatch)
    assert set(spans.Tracer().missing) <= KNOWN_DEAD


def test_workload_builder_finds_every_library_name_it_uses(monkeypatch, tmp_path):
    # Importing the module resolves hopcroft_karp and state_bipartite;
    # building oracle_small, whose classes use every maker, calls
    # SetCoverInstance, reduce_set_cover, condense, CostMatrix.from_rows,
    # random_line_system and emit_system.
    workloads = _load("workloads", monkeypatch)
    built = workloads.build("oracle_small", 0, tmp_path)
    assert {inst.klass for inst in built.instances} == {"line_nopm", "setcover", "infeasible"}
    assert all(Path(inst.path).read_text() == text for inst, text in zip(built.instances, built.texts))
    assert built.counts["states"] > 0 and built.counts["matching_deficiency"] > 0


def test_state_bipartite_rows_equal_the_stripped_loop_rows_reference_on_oracle_small(
    monkeypatch, tmp_path
):
    # The rows the builder counts matching deficiency on, for every oracle_small instance.
    workloads = _load("workloads", monkeypatch)
    for text in workloads.build("oracle_small", 1706, tmp_path).texts:
        system, _, _ = parse_system(text)
        assert state_bipartite(system).adjacency == reference_state_bipartite_rows(system)


# Hooks that resolve but that no command calls.
KNOWN_IDLE: set[str] = set()


def test_every_live_span_hook_records_a_span(monkeypatch, tmp_path, capsys):
    spans = _load("spans", monkeypatch)
    section5 = str(PERFBENCH.parent / "data" / "section5.json")
    nopm = tmp_path / "nopm.json"
    nopm.write_text(emit_system(*generators.random_line_system(3, scc_count=4, perfect_matching=False)))
    requests = [
        ["solve-dp", section5],
        ["solve-two-stage", str(nopm)],
        ["solve-exact", str(nopm)],
        ["solve-exact", section5],
        ["check-sfm", section5, "--feedback", "1:1"],
    ]
    with spans.Tracer().installed() as tracer:
        for argv in requests:
            assert cli.run(argv) in (0, 1), argv
        generators.random_line_system(1)
    capsys.readouterr()
    live = {name for ns, attr, name in spans.HOOKS if ns.__dict__.get(attr) is not None}
    recorded = {name for name, *_ in tracer.spans}
    assert live - recorded == KNOWN_IDLE
