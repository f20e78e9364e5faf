"""The perfbench span hooks still name attributes that exist.

A hook whose target a refactor renames or deletes does not fail: its span
just reads 0 ms in every traced run. This test catches that in tier 1.
"""

import importlib.util
from pathlib import Path

# Hooks that no longer resolve, left for the benchmark change that takes
# its counters from the solvers instead of patching names.
KNOWN_DEAD = {
    "StructuredSystem.require_valid",
    "feedsel.solvers.closed_loop_bipartite",
    "feedsel.solvers.closed_loop_successors",
    "feedsel.solvers.closed_loop_bipartite_adjacency",
    "feedsel.solvers.scc_ids",
    "feedsel.solvers.hopcroft_karp",
}


def test_no_span_hook_is_dead_beyond_the_known_ones():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.Tracer().missing) <= KNOWN_DEAD
