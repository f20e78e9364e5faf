"""Command-line front-end.

Subcommands: check-sfm, solve-dp, solve-two-stage, solve-greedy,
solve-exact, gen-setcover, gen-line, export-dot. Exit codes: 0 for a
feasible solve or passing check, 1 for an infeasible outcome, 2 for usage,
input or precondition errors. ``--format structured`` emits JSON reports
for machine consumption, each exactly ``json.dumps(fields, indent=2)`` of
its fields; generators require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
import time
from pathlib import Path

from .dot import condensation_to_dot, system_to_dot
from .fileio import (
    SchemaError,
    _dumps,
    emit_system,
    load_setcover,
    load_system,
)
from .generators import random_line_system
from .graphs import condense
from .model import FeedbackPattern, cost_of
from .sfm import check_no_sfm
from .solvers import (
    Solution,
    exact_oracle,
    greedy_single_input,
    reduce_set_cover,
    solve_dp,
    two_stage,
)


def _json_cost(value: float):
    return "inf" if math.isinf(value) else value


def _text_cost(value: float) -> str:
    return "inf" if math.isinf(value) else str(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, Solution):
        return {
            "method": obj.method,
            "feasible": obj.feasible,
            "links": [list(link) for link in obj.pattern.sorted_links()],
            "cost": _json_cost(obj.cost),
        }
    if isinstance(obj, FeedbackPattern):
        return [list(link) for link in obj.sorted_links()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return _json_cost(obj)
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


def parse_feedback_arg(arg: str) -> FeedbackPattern:
    """Parse a link list like "2:3,1:1" (input:output pairs); "" is empty."""
    links = set()
    for token in arg.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        try:
            i_text, j_text = token.split(":")
            links.add((int(i_text), int(j_text)))
        except ValueError:
            raise SchemaError(
                f"bad feedback link {token!r}; expected input:output, e.g. 2:3"
            ) from None
    return FeedbackPattern(frozenset(links))


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    system, costs, warnings = load_system(path)
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return system, costs


def _report_text(solution: Solution) -> str:
    links = solution.pattern.sorted_links()
    lines = [
        f"method:   {solution.method}",
        f"feasible: {'yes' if solution.feasible else 'no'}",
        f"links:    {' '.join(f'(u{i},y{j})' for i, j in links) or '-'}",
        f"cost:     {_text_cost(solution.cost)}",
    ]
    if solution.reason:
        lines.append(f"reason:   {solution.reason}")
    table = solution.certificates.get("dp_table")
    if table:
        stages = " ".join(" ".join([_text_cost(w)] * (last - first + 1))
                          for first, last, w, *_ in table["runs"])
        lines.append(f"stages:   [{stages}]")
    trace = solution.certificates.get("trace")
    if trace:
        steps = "; ".join(f"y{j} covers {new} new at {w}" for j, new, w in trace)
        lines.append(f"greedy:   {steps}")
    return "\n".join(lines) + "\n"


def _print_report(solution: Solution, elapsed: float, fmt: str) -> int:
    if fmt == "structured":
        payload = {**_jsonable(solution), "elapsed_sec": elapsed}
        if solution.reason:
            payload["reason"] = solution.reason
        if solution.certificates:
            payload["certificates"] = _jsonable(solution.certificates)
        print(_dumps(payload))
    else:
        sys.stdout.write(_report_text(solution))
    return 0 if solution.feasible else 1


def _cmd_check_sfm(args) -> int:
    system, costs = _load(args.system)
    pattern = parse_feedback_arg(args.feedback)
    start = time.perf_counter()
    verdict = check_no_sfm(system, pattern)
    elapsed = time.perf_counter() - start
    if args.format == "structured":
        payload = {
            "feasible": verdict.feasible,
            "condition_a": {
                "ok": verdict.condition_a_ok,
                "uncovered_states": list(verdict.uncovered_states),
            },
            "condition_b": {"ok": verdict.condition_b_ok},
            "links": [list(link) for link in pattern.sorted_links()],
            "cost": _json_cost(cost_of(pattern, costs)),
            "elapsed_sec": elapsed,
        }
        print(_dumps(payload))
    else:
        print(verdict.describe())
    return 0 if verdict.feasible else 1


def _solver_command(solver):
    def run_command(args) -> int:
        system, costs = _load(args.system)
        start = time.perf_counter()
        solution = solver(args, system, costs)
        elapsed = time.perf_counter() - start
        return _print_report(solution, elapsed, args.format)

    return run_command


def _cmd_gen_setcover(args) -> int:
    instance = load_setcover(args.cover)
    system, costs = reduce_set_cover(instance)
    _emit(emit_system(system, costs), args.output)
    return 0


def _cmd_gen_line(args) -> int:
    system, costs = random_line_system(
        args.seed,
        scc_count=args.sccs,
        scc_size_range=tuple(args.scc_size),
        n_inputs=args.inputs,
        n_outputs=args.outputs,
        cost_range=tuple(args.cost),
        perfect_matching=args.pm,
    )
    _emit(emit_system(system, costs), args.output)
    return 0


def _cmd_export_dot(args) -> int:
    system, costs = _load(args.system)
    pattern = parse_feedback_arg(args.feedback)
    if args.condensation:
        if pattern.links:
            raise SchemaError("--feedback cannot be drawn on the condensation; drop one of the two")
        text = condensation_to_dot(condense(system))
    else:
        text = system_to_dot(system, pattern)
    _emit(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The feedsel argument parser, built once per process and shared: do not modify it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The feedsel parser and its command parsers by name, as ``build_parser`` shares them."""
    parser = argparse.ArgumentParser(
        prog="feedsel",
        description="Minimum-cost feedback pattern selection for arbitrary pole placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p) -> None:
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="report format (structured = JSON)",
        )

    p = sub.add_parser("check-sfm", help="check feasibility of a feedback pattern")
    p.add_argument("system", help="system file (JSON)")
    p.add_argument("--feedback", default="", help='links as "i:j,i:j" (input:output); empty for none')
    add_format(p)
    p.set_defaults(handler=_cmd_check_sfm)

    p = sub.add_parser("solve-dp", help="exact chain dynamic program (line SCC DAG)")
    p.add_argument("system")
    add_format(p)
    p.set_defaults(handler=_solver_command(lambda a, s, c: solve_dp(s, c)))

    p = sub.add_parser("solve-two-stage", help="coverage + cycle-spanning union (2-optimal)")
    p.add_argument("system")
    add_format(p)
    p.set_defaults(handler=_solver_command(lambda a, s, c: two_stage(s, c)))

    p = sub.add_parser("solve-greedy", help="set-cover greedy for single-input systems")
    p.add_argument("system")
    add_format(p)
    p.set_defaults(handler=_solver_command(lambda a, s, c: greedy_single_input(s, c)))

    p = sub.add_parser("solve-exact", help="exhaustive oracle (small instances)")
    p.add_argument("system")
    p.add_argument("--budget", type=int, default=20, help="max admissible links to enumerate")
    add_format(p)
    p.set_defaults(handler=_solver_command(lambda a, s, c: exact_oracle(s, c, budget=a.budget)))

    p = sub.add_parser("gen-setcover", help="reduce a set-cover instance to a system file")
    p.add_argument("cover", help="set-cover instance file (JSON)")
    p.add_argument("-o", "--output", help="write the system file here (default stdout)")
    p.set_defaults(handler=_cmd_gen_setcover)

    p = sub.add_parser("gen-line", help="random system with a line-shaped SCC DAG")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--sccs", type=int, default=4, help="number of SCCs in the chain")
    p.add_argument("--scc-size", type=int, nargs=2, default=(1, 3), metavar=("LO", "HI"))
    p.add_argument("--inputs", type=int, default=3)
    p.add_argument("--outputs", type=int, default=3)
    p.add_argument("--cost", type=int, nargs=2, default=(1, 100), metavar=("LO", "HI"))
    pm_group = p.add_mutually_exclusive_group()
    pm_group.add_argument("--pm", dest="pm", action="store_true", default=True,
                          help="state bipartite graph has a perfect matching (default)")
    pm_group.add_argument("--no-pm", dest="pm", action="store_false")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_gen_line)

    p = sub.add_parser("export-dot", help="Graphviz export of the system digraph")
    p.add_argument("system")
    p.add_argument("--feedback", default="", help="links to draw as feedback edges")
    p.add_argument("--condensation", action="store_true", help="export the SCC DAG instead")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_export_dot)

    return parser, sub.choices


def run(argv=None) -> int:
    """Run one feedsel command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``. A line that starts with a
    command is parsed once, by that command's parser. The full parser
    parses it again only if the command's parser leaves something
    unrecognized, and it parses every line that starts with no command.
    So help, usage and error text and exit codes are the full parser's.

    The cyclic garbage collector is paused while the command runs, whose
    many containers form no reference cycles, and then set back as the
    caller had it: on if it was on, off if it was off.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser, commands = _parsers()
        argv = sys.argv[1:] if argv is None else list(argv)
        command = commands.get(argv[0]) if argv else None
        try:
            if command is not None:
                args, unrecognized = command.parse_known_args(argv[1:])
            if command is None or unrecognized:
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return args.handler(args)
        except (ValueError, OSError, RuntimeError) as exc:
            # SchemaError, DimensionError, PreconditionError and
            # BudgetExceededError are ValueErrors, so input errors exit 2, and
            # so does RecursionError, a RuntimeError.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("error: out of memory; the input is too large", file=sys.stderr)
            return 2
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
