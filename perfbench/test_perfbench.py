"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import client  # noqa: E402
import workloads  # noqa: E402
from feedsel import cli  # noqa: E402
from feedsel.solvers import Solution  # noqa: E402
from feedsel.model import FeedbackPattern  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, kind):
    done = _run("--workload", "oracle_small", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in table[1:]}
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["failed_ratio"] == "ratio"


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "chain_dp", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def oracle_set(tmp_path_factory):
    return workloads.build("oracle_small", 5, tmp_path_factory.mktemp("oracle"))


def _tampered(call: client.Call, **changes) -> client.Call:
    report = json.loads(call.stdout)
    report.update(changes)
    return client.Call(call.code, json.dumps(report), call.seconds)


def test_verify_accepts_the_real_answer_and_rejects_tampered_ones(oracle_set):
    instance = next(i for i in oracle_set.instances if i.klass == "setcover")
    solve = client.call([instance.command, instance.path, "--format", "structured"])
    links = json.loads(solve.stdout)["links"]
    feedback = ",".join(f"{i}:{j}" for i, j in links)
    check = client.call(["check-sfm", instance.path, "--feedback", feedback, "--format", "structured"])
    assert client.verify(instance, solve, check) is None

    fewer = links[:-1]
    fewer_cost = client.recomputed_cost(instance, fewer)
    tampered = {
        "wrong cost": (_tampered(solve, cost=instance.optimum + 1), check),
        "dropped link": (_tampered(solve, links=fewer, cost=fewer_cost),
                         _tampered(check, links=fewer, cost=fewer_cost)),
        "link out of range": (_tampered(solve, links=[[2, 1]]), check),
        "wrong method": (_tampered(solve, method="dp"), check),
        "wrong exit code": (client.Call(1, solve.stdout, solve.seconds), check),
        "garbage output": (client.Call(0, "{not json", solve.seconds), check),
        "check disagrees": (solve, _tampered(check, feasible=False)),
    }
    for name, (bad_solve, bad_check) in tampered.items():
        assert client.verify(instance, bad_solve, bad_check) is not None, name


def test_infeasible_instances_must_exit_1(oracle_set):
    instance = next(i for i in oracle_set.instances if not i.feasible)
    solve = client.call([instance.command, instance.path, "--format", "structured"])
    check = client.call(["check-sfm", instance.path, "--feedback", "", "--format", "structured"])
    assert solve.code == 1 and client.verify(instance, solve, check) is None
    claimed = client.Call(0, solve.stdout, solve.seconds)
    assert client.verify(instance, claimed, check) is not None


def test_a_wrong_solver_counts_as_failed_requests_and_does_not_crash(oracle_set, monkeypatch):
    original = cli.exact_oracle

    def off_by_one(system, costs, budget=20):
        solution = original(system, costs, budget=budget)
        return Solution(solution.pattern, solution.cost + 1, solution.method)

    def empty(system, costs, budget=20):
        return Solution(FeedbackPattern(), 0, "exact")

    def crash(system, costs, budget=20):
        raise ZeroDivisionError("boom")

    for fake in (off_by_one, empty, crash):
        monkeypatch.setattr(cli, "exact_oracle", fake)
        outcomes, kernel_times = run.measure(oracle_set.instances, 0, None)
        assert len(kernel_times) == len(outcomes)
        # inf + 1 is still inf, so only the feasible answers are wrong by one
        expected = [o.instance.feasible or fake is not off_by_one for o in outcomes]
        assert [o.problem is not None for o in outcomes] == expected, fake.__name__


def test_build_is_seed_deterministic(tmp_path):
    first = workloads.build("oracle_small", 9, tmp_path / "a")
    again = workloads.build("oracle_small", 9, tmp_path / "b")
    other = workloads.build("oracle_small", 10, tmp_path / "c")
    assert first.texts == again.texts and first.counts == again.counts
    assert first.texts != other.texts


def test_brute_force_cover():
    sets = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3}), frozenset({1, 2, 3})]
    assert workloads.brute_force_cover(sets, (1, 1, 1, 3)) == 2
    assert workloads.brute_force_cover(sets, (1, 1, 1, 1)) == 1
    assert workloads.brute_force_cover([frozenset({1}), frozenset({1})], (5, 4)) == 4


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_times_are_scaled_to_the_reference_kernel_speed():
    import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.kernel_seconds() > 0
    assert run.scaled(0.2, calibrate.REFERENCE_S) == pytest.approx(0.2)
    assert run.scaled(0.2, 2 * calibrate.REFERENCE_S) == pytest.approx(0.1)
    assert run.medians([("a", 3.0), ("b", 1.0), ("a", 1.0), ("a", 2.0)]) == {"a": 2.0, "b": 1.0}
