"""One benchmark request, driven through ``feedsel.cli.run`` in-process.

A request is a ``solve-*`` call with ``--format structured`` followed by
``check-sfm --feedback <returned links>`` on the same file. Each call is
timed from the moment ``run`` starts (it reads the file) to the moment it
returns (the report is printed). The outputs are verified afterwards,
outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass

from feedsel import cli

from workloads import Instance


@dataclass(frozen=True)
class Call:
    code: int | None  # None when run() raised
    stdout: str
    seconds: float


@dataclass(frozen=True)
class Outcome:
    """A verified request; the reports themselves are dropped after the checks."""

    instance: Instance
    solve_seconds: float
    check_seconds: float
    problem: str | None  # None when every check passed
    traced: bool


def call(argv: list[str], tracer=None) -> Call:
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.span("cli.run"):
                    code = cli.run(argv)
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - start
    if code is None:
        print(f"perfbench: {' '.join(argv)} raised {err.getvalue().strip()}", file=sys.stderr)
    return Call(code, out.getvalue(), seconds)


def _report(text: str):
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _links(report) -> list[tuple[int, int]] | None:
    raw = report.get("links") if report else None
    if not isinstance(raw, list):
        return None
    links = []
    for link in raw:
        if (
            not isinstance(link, list)
            or len(link) != 2
            or not all(type(x) is int for x in link)
        ):
            return None
        links.append((link[0], link[1]))
    return links


def _cost(value) -> float | None:
    if value == "inf":
        return math.inf
    if type(value) in (int, float):
        return value
    return None


def recomputed_cost(instance: Instance, links) -> float | None:
    """Sum of the instance's link costs; None when a link is out of range."""
    total = 0
    for i, j in links:
        if not (1 <= i <= len(instance.cost_rows) and 1 <= j <= len(instance.cost_rows[0])):
            return None
        total += instance.cost_rows[i - 1][j - 1]
    return total


def verify(instance: Instance, solve: Call, check: Call) -> str | None:
    """Return why the request's outputs are wrong, or None when they are right."""
    expected_code = 0 if instance.feasible else 1
    if solve.code != expected_code:
        return f"solve exit code {solve.code}, expected {expected_code}"
    report = _report(solve.stdout)
    if report is None:
        return "solve output is not a JSON object"
    links = _links(report)
    if links is None:
        return "solve report has no valid links"
    if report.get("method") != instance.method:
        return f"method {report.get('method')!r}, expected {instance.method!r}"
    if report.get("feasible") is not instance.feasible:
        return f"feasible {report.get('feasible')!r}, expected {instance.feasible}"
    cost = recomputed_cost(instance, links)
    if cost is None:
        return f"links {links} outside the cost matrix"
    expected_cost = cost if instance.feasible else math.inf
    if _cost(report.get("cost")) != expected_cost:
        return f"reported cost {report.get('cost')!r}, recomputed {expected_cost}"
    if instance.optimum is not None and cost != instance.optimum:
        return f"cost {cost} is not the brute-force optimum {instance.optimum}"

    if check.code != expected_code:
        return f"check-sfm exit code {check.code}, expected {expected_code}"
    verdict = _report(check.stdout)
    if verdict is None:
        return "check-sfm output is not a JSON object"
    if verdict.get("feasible") is not instance.feasible:
        return f"check-sfm feasible {verdict.get('feasible')!r}, expected {instance.feasible}"
    if _links(verdict) != sorted(links) or _cost(verdict.get("cost")) != cost:
        return "check-sfm reports other links or cost than the solve"
    return None


def request(instance: Instance, tracer=None) -> Outcome:
    """Run one solve + check request and verify it."""
    if tracer is not None:
        tracer.begin_request(kind="solve", instance=instance.name, feasible=instance.feasible)
    solve = call([instance.command, instance.path, "--format", "structured"], tracer)
    links = _links(_report(solve.stdout)) or []
    feedback = ",".join(f"{i}:{j}" for i, j in links)
    if tracer is not None:
        tracer.begin_request(kind="check", instance=instance.name, feasible=instance.feasible)
    check = call(
        ["check-sfm", instance.path, "--feedback", feedback, "--format", "structured"], tracer
    )
    problem = verify(instance, solve, check)
    return Outcome(instance, solve.seconds, check.seconds, problem, tracer is not None)
