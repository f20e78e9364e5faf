"""feedsel benchmark: solver workloads driven through the CLI in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain_dp --seed 1706 --seconds 36 --trace 0

One single-threaded process runs a closed loop with one client: it sends
the next request only after the previous one has returned. A request is a
``solve-*`` call and a ``check-sfm`` call on its answer (see client.py);
every request is verified, and failures are counted.

The run sets up five times (generate and write the instances, compute
the references, warm up) and after each set-up measures whole schedule
cycles, one request per instance (see workloads.py), until a fifth more
of ``--seconds`` has been measured. Set-ups spread over the run this way
meet the host in different states.

Times are scaled to a reference host speed (see calibrate.py): a fixed
pure-Python kernel is timed just before every request, and each request's
time is multiplied by ``calibrate.REFERENCE_S`` over the median kernel
time of its cycle. The speed of a shared host drifts by up to 1.6x for
minutes at a time, so whole runs of the same code read that much apart
in raw time; the scaled times do not. A request's latency is the median
scaled time its instance took in the run, and the percentiles are taken
over the run's requests. ``setup_s`` is the median of the five scaled
set-up times, each scaled by the kernel timed around it. Each request is
timed and verified on every repetition.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` every request is sent twice, once plain and once with spans
recorded around the calls into each feedsel module (spans.py), in
alternating order. The run then reports the per-layer metrics from the
traced copies, scaled the same way (median per instance, then median over
instances), and the tracing overhead from the pairs, and writes the spans
to ``.perfbench-out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit. The program is imported from ``src/``
next to this directory; without it the benchmark exits with status 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per run, each followed by an equal share of the measuring
DEFAULT_SEED = 1706
HOLDOUT_SEED = 6911  # kept for re-checking claims made on the default seed


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "feedsel" / "__init__.py").is_file():
        print(f"perfbench: no feedsel sources under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import feedsel

    if Path(feedsel.__file__).resolve().parent != src / "feedsel":
        print(f"perfbench: imported feedsel from {feedsel.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile).

    With ten samples or fewer there is no such percentile, and the maximum
    is returned as the 100th.
    """
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup(workload: str, seed: int, workdir: Path, tracer):
    """Generate and write the instances, compute references, and warm up."""
    # imported here: both import feedsel, which _import_program puts on the path
    import client
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    if tracer is None:
        built = workloads.build(workload, seed, workdir)
    else:
        tracer.begin_request(kind="setup")
        with tracer.installed():
            built = workloads.build(workload, seed, workdir)
    seen = set()
    for instance in built.instances:  # one untimed request per class
        if instance.klass not in seen:
            seen.add(instance.klass)
            client.request(instance)
    return built


def measure(instances, seconds: float, tracer) -> tuple[list, list[float]]:
    """Run whole schedule cycles until ``seconds`` have passed.

    Returns the outcomes and the kernel time of each outcome's cycle: the
    median of the kernel times taken just before each of the cycle's
    instances. A traced run also stores it on each of the cycle's traced
    requests, as ``kernel_s``.
    """
    import client

    outcomes, kernel_times = [], []
    start = time.perf_counter()
    while True:
        first_request = len(tracer.requests) if tracer is not None else 0
        cycle, done = [], []
        for instance in instances:
            cycle.append(calibrate.kernel_seconds())
            if tracer is None:
                done.append(client.request(instance))
                continue
            plain_first = (len(outcomes) + len(done)) // 2 % 2 == 0
            for traced in (not plain_first, plain_first):
                if traced:
                    with tracer.installed():
                        done.append(client.request(instance, tracer))
                else:
                    done.append(client.request(instance))
        kernel = statistics.median(cycle)
        stamp(tracer, first_request, kernel)
        outcomes += done
        kernel_times += [kernel] * len(done)
        if time.perf_counter() - start >= seconds:
            return outcomes, kernel_times


def stamp(tracer, first_request: int, kernel_seconds: float) -> None:
    """Store the kernel time on the tracer's requests from ``first_request`` on."""
    if tracer is not None:
        for info in tracer.requests[first_request:]:
            info["kernel_s"] = kernel_seconds


def scaled(seconds: float, kernel_seconds: float) -> float:
    """A time measured while the kernel took ``kernel_seconds``, at reference speed."""
    return seconds * calibrate.REFERENCE_S / kernel_seconds


def host_kernel_seconds() -> float:
    """Median of a few kernel timings, for work that is not a request."""
    return statistics.median(calibrate.kernel_seconds() for _ in range(5))


def medians(pairs) -> dict:
    """Median value per key of (key, value) pairs."""
    grouped: dict = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in grouped.items()}


# per-layer times from spans: (metric, span name, request kind, feasible filter)
SPAN_METRICS = (
    ("fileio.parse_system_ms", "fileio.parse_system", "solve", None),
    ("model.require_valid_ms", "model.require_valid", "solve", None),
    ("graphs.condense_ms", "graphs.condense", "solve", None),
    ("graphs.state_matching_ms", "graphs.state_matching", "solve", None),
    ("graphs.closed_loop_bipartite_ms", "graphs.closed_loop_bipartite", "solve", None),
    ("graphs.min_cost_perfect_matching_ms", "graphs.min_cost_perfect_matching", "solve", None),
    ("solvers.solve_dp_ms", "solvers.solve_dp", "solve", None),
    ("solvers.dp_cover_ms", "solvers.dp_cover", "solve", None),
    ("solvers.min_cost_condition_b_ms", "solvers.min_cost_condition_b", "solve", None),
    ("solvers.two_stage_ms", "solvers.two_stage", "solve", None),
    ("solvers.exact_oracle_ms.feasible", "solvers.exact_oracle", "solve", True),
    ("solvers.exact_oracle_ms.infeasible", "solvers.exact_oracle", "solve", False),
    ("sfm.check_condition_a_ms", "sfm.check_condition_a", "check", None),
    ("sfm.check_condition_b_ms", "sfm.check_condition_b", "check", None),
)
# self time per module: the module's span durations minus their child spans
SELF_METRICS = (
    ("cli.self_ms", "cli", "solve"),
    ("fileio.self_ms", "fileio", "solve"),
    ("model.self_ms", "model", "solve"),
    ("graphs.self_ms", "graphs", "solve"),
    ("solvers.self_ms", "solvers", "solve"),
    ("sfm.self_ms", "sfm", "check"),
)
ORACLE_GRAPH_CALLS = ("graphs.scc_ids", "graphs.hopcroft_karp")


def _median_ms(values) -> float:
    """Median in ms; 0.0 when the layer never ran in this workload."""
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(tracer, built, outcomes, kernel_times) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: scaled times, median per instance, then over instances."""
    requests = tracer.requests
    summaries = tracer.per_request()
    samples = []  # ((kind, instance, span name or module), seconds)
    for request, summary in zip(requests, summaries):
        if request["kind"] == "setup":
            continue
        where = (request["kind"], request["instance"])
        own_by_module: dict[str, float] = {}
        kernel = request["kernel_s"]
        for name, (total, own, _) in summary.items():
            samples.append(((*where, name), scaled(total, kernel)))
            module = name.split(".")[0]
            own_by_module[module] = own_by_module.get(module, 0.0) + scaled(own, kernel)
        samples += [((*where, module), own) for module, own in own_by_module.items()]
    per_instance = medians(samples)
    feasible = {o.instance.name: o.instance.feasible for o in outcomes}
    instances = list(feasible)

    metrics: dict[str, tuple[float, str]] = {}
    for metric, span, kind, wanted in SPAN_METRICS:
        metrics[metric] = (_median_ms(
            per_instance[(kind, name, span)] for name in instances
            if (kind, name, span) in per_instance and wanted in (None, feasible[name])
        ), "ms")
    for metric, module, kind in SELF_METRICS:
        metrics[metric] = (_median_ms(
            per_instance[(kind, name, module)] for name in instances if (kind, name, module) in per_instance
        ), "ms")

    per_setup: dict[int, list[float]] = {}
    for name, start, end, _, request in tracer.spans:
        if name == "generators.random_line_system" and requests[request]["kind"] == "setup":
            per_setup.setdefault(request, []).append(scaled(end - start, requests[request]["kernel_s"]))
    # every set-up draws the same instances in the same order
    generated = [statistics.median(times) for times in zip(*per_setup.values())]
    metrics["generators.instance_ms"] = (_median_ms(generated), "ms")

    for name, value in built.counts.items():
        metrics[f"count.{name}"] = (value, "count")
    graph_calls = {
        request["instance"]: sum(summary[name][2] for name in ORACLE_GRAPH_CALLS if name in summary)
        for request, summary in zip(requests, summaries)
        if request["kind"] == "solve" and "solvers.exact_oracle" in summary
    }
    metrics["count.oracle_graph_calls"] = (
        statistics.median(graph_calls.values()) if graph_calls else 0, "count"
    )

    traced, plain = (
        medians(
            (o.instance.name, scaled(o.solve_seconds + o.check_seconds, k))
            for o, k in zip(outcomes, kernel_times) if o.traced is want
        )
        for want in (True, False)
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.values()) / statistics.median(plain.values()), "ratio"
    )
    return metrics


def end_to_end_metrics(outcomes, kernel_times, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics, at reference host speed, and a note on how each was taken."""
    solve_median = medians(
        (o.instance.name, scaled(o.solve_seconds, k)) for o, k in zip(outcomes, kernel_times)
    )
    check_median = medians(
        (o.instance.name, scaled(o.check_seconds, k)) for o, k in zip(outcomes, kernel_times)
    )
    solve = [solve_median[o.instance.name] * 1e3 for o in outcomes]
    check = [check_median[o.instance.name] * 1e3 for o in outcomes]
    tail_ms, tail_pct = tail(solve)
    n, distinct = len(outcomes), len(solve_median)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_ms.p50": (statistics.median(solve), "ms"),
        "solve_ms.tail": (tail_ms, "ms"),
        "check_ms.p50": (statistics.median(check), "ms"),
        "requests_per_s": (n / (sum(solve) + sum(check)) * 1e3, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "solve_ms.p50": f"{n} samples, {distinct} instances",
        "solve_ms.tail": f"p{tail_pct:.1f}, {min(10, n - 1)} of {n} samples beyond",
        "check_ms.p50": f"{n} samples",
        "requests_per_s": f"{n // distinct} cycles of {distinct} requests",
        "peak_rss_mb": "this process",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    if tracer is not None and tracer.missing:
        print(f"perfbench: no hook for {', '.join(tracer.missing)}", file=sys.stderr)
    workdir = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    setup_times, outcomes, kernel_times, texts = [], [], [], None
    measured = 0.0  # each window ends on schedule, so overshoots do not add up
    try:
        for k in range(SETUPS):
            first_request = len(tracer.requests) if tracer is not None else 0
            before = host_kernel_seconds()
            start = time.perf_counter()
            built = setup(args.workload, args.seed, workdir, tracer)
            elapsed = time.perf_counter() - start
            kernel = statistics.median((before, host_kernel_seconds()))
            stamp(tracer, first_request, kernel)
            setup_times.append(scaled(elapsed, kernel))
            if texts is not None and built.texts != texts:
                raise SystemExit("perfbench: set-ups with the same seed wrote different files")
            texts = built.texts
            gc.collect()
            start = time.perf_counter()
            done, kernels = measure(built.instances, args.seconds * (k + 1) / SETUPS - measured, tracer)
            measured += time.perf_counter() - start
            outcomes += done
            kernel_times += kernels
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failures = [o for o in outcomes if o.problem is not None]
    for outcome in failures[:5]:
        print(f"perfbench: {outcome.instance.name}: {outcome.problem}", file=sys.stderr)
    if tracer is None:
        metrics, notes = end_to_end_metrics(outcomes, kernel_times, setup_times)
    else:
        metrics = layer_metrics(tracer, built, outcomes, kernel_times)
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}.jsonl"
        tracer.write(out)
        notes = {"trace.overhead_ratio": f"{len(outcomes) // 2} pairs; spans in {out.relative_to(ROOT)}"}

    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} requests, "
          f"{len(failures)} failed")
    if kernel_times:
        print(f"  host kernel median {statistics.median(kernel_times) * 1e3:.4f} ms, "
              f"reference {calibrate.REFERENCE_S * 1e3:.4f} ms")
    print(f"  {'failed_ratio':36} {len(failures) / len(outcomes):>12.6g} ratio")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36} {value:>12.6g} {unit}{note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
