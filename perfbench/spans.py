"""Span tracing around the calls into each feedsel module.

The tracer patches module attributes with thin timing wrappers while it is
installed and restores the originals afterwards, so untraced requests run
the unmodified code. Spans are kept in memory as
``(name, start, end, parent, request)`` tuples and written out once, when
the run ends. A span's self time is its duration minus the time its child
spans cover; the self times of one request add up to its ``cli.run`` span.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from feedsel import cli, fileio, generators, model, sfm, solvers

# (namespace, attribute, span name). Every namespace a caller looks the
# function up in is patched, because ``from x import f`` copies the name.
HOOKS = (
    (cli, "load_system", "fileio.load_system"),
    (fileio, "parse_system", "fileio.parse_system"),
    (model.StructuredSystem, "require_valid", "model.require_valid"),
    (cli, "solve_dp", "solvers.solve_dp"),
    (cli, "two_stage", "solvers.two_stage"),
    (cli, "exact_oracle", "solvers.exact_oracle"),
    (solvers, "dp_cover", "solvers.dp_cover"),
    (solvers, "min_cost_condition_b", "solvers.min_cost_condition_b"),
    (solvers, "condense", "graphs.condense"),
    (solvers, "_has_state_perfect_matching", "graphs.state_matching"),
    (solvers, "closed_loop_bipartite", "graphs.closed_loop_bipartite"),
    (solvers, "min_cost_perfect_matching", "graphs.min_cost_perfect_matching"),
    (solvers, "closed_loop_successors", "graphs.closed_loop_successors"),
    (solvers, "closed_loop_bipartite_adjacency", "graphs.closed_loop_bipartite_adjacency"),
    (solvers, "scc_ids", "graphs.scc_ids"),
    (solvers, "hopcroft_karp", "graphs.hopcroft_karp"),
    (cli, "check_no_sfm", "sfm.check_no_sfm"),
    (sfm, "_uncovered_states", "sfm.check_condition_a"),
    (sfm, "check_condition_b", "sfm.check_condition_b"),
    (generators, "random_line_system", "generators.random_line_system"),
)


class Tracer:
    """Records spans of the requests it is told about."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.requests: list[dict] = []
        self.missing = [f"{ns.__name__}.{attr}" for ns, attr, _ in HOOKS if not hasattr(ns, attr)]
        self._stack: list[int] = []
        self._request = -1

    def begin_request(self, **info) -> None:
        """Start a new request id; later spans belong to it."""
        self.requests.append(info)
        self._request = len(self.requests) - 1

    @contextmanager
    def span(self, name: str):
        index, request = len(self.spans), self._request
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, request))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, request)

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every hook that exists, and restore the originals on exit."""
        saved = []
        for namespace, attr, name in HOOKS:
            original = namespace.__dict__.get(attr)
            if original is None:
                continue
            saved.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def per_request(self) -> list[dict]:
        """Per request: total and self seconds by span name, and span counts.

        Each entry maps span name -> [total seconds, self seconds, count].
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: list[dict] = [{} for _ in self.requests]
        for index, (name, start, end, _, request) in enumerate(self.spans):
            if request < 0:
                continue
            entry = summary[request].setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start
            entry[1] += end - start - child_time[index]
            entry[2] += 1
        return summary

    def write(self, path: Path) -> None:
        """Write requests and spans as JSON lines: one object, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                  "requests": self.requests}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
