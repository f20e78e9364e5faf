"""Seed-generated instance sets for the three benchmark workloads.

A workload is one solver subcommand and a list of instance classes. Each
class contributes a fixed number of distinct instances, and one schedule
cycle sends one request per instance, so a class's share of the requests
equals its share of the instances. The shares are chosen so that the
median solve latency falls in the middle of one class and the tail
(the highest percentile with ten samples beyond it) falls inside the
slowest class, away from any boundary between classes:

* ``chain_dp``: chain classes of 250, 500 (x5) and 1000 (x2) SCCs, one state
  per SCC, 50 inputs and 50 outputs. The median falls in the 500-SCC class,
  the tail in the 1000-SCC class.
* ``two_stage_nopm``: line systems without a perfect matching, 20 inputs
  and 20 outputs, at 150, 300 (x5) and 600 SCCs of two states each
  (n = 301, 601 and 1201). The median falls in the 300-SCC class, the
  tail in the 600-SCC class.
* ``oracle_small``: two small feasible line systems without a perfect
  matching (9 states, 12 links), three set-cover reductions with 12, 14
  and 16 sets, and two 12-state line systems made infeasible by dropping
  every output edge of the last SCC (11 and 12 admissible links). The
  median falls in the set-cover class, the tail in the infeasible class.

Sizes are fixed, so a seed changes the structure of the instances but
not their size. SCCs of two states also keep the two-stage solve time
within about 5% across seeds; with SCCs of 1 to 3 states it varies by
about 15%, with the order in which the dense assignment meets its rows.

The set-cover instances plant a cover of three 4-element blocks among
3-element decoys and give every set the same weight, so the optimum uses
exactly three sets. With equal weights the oracle scans every pattern of
at most three links before it stops, a count fixed by the set count
alone; with random weights the scan length, and the median with it,
swings with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import feedsel
from feedsel import generators
from feedsel.graphs import hopcroft_karp, state_bipartite


@dataclass(frozen=True)
class Instance:
    """One system file and what a correct answer on it looks like."""

    name: str
    klass: str
    path: str
    command: str
    method: str
    cost_rows: tuple[tuple[float, ...], ...]
    feasible: bool
    optimum: float | None = None  # independently known optimal cost


@dataclass(frozen=True)
class Built:
    """The instance set of one set-up, in schedule-cycle order."""

    instances: tuple[Instance, ...]
    texts: tuple[str, ...]  # the system files, to compare set-ups
    counts: dict[str, int]


# A class maker draws one instance: (rng, index within class) ->
# (system, costs, expected feasible, known optimum or None).
Maker = Callable[[random.Random, int], tuple]


def _line(**kwargs) -> Maker:
    def make(rng: random.Random, index: int):
        system, costs = generators.random_line_system(rng.getrandbits(64), **kwargs)
        return system, costs, True, None

    return make


def _set_cover(rng: random.Random, index: int):
    n_sets = 12 + 2 * index
    blocks, block_size = 3, 4
    universe = list(range(1, blocks * block_size + 1))
    rng.shuffle(universe)
    sets = [frozenset(universe[k * block_size:(k + 1) * block_size]) for k in range(blocks)]
    sets += [frozenset(rng.sample(universe, block_size - 1)) for _ in range(n_sets - blocks)]
    rng.shuffle(sets)
    weight = rng.randint(1, 50)
    instance = feedsel.SetCoverInstance(
        universe_size=len(universe), sets=tuple(sets), weights=(weight,) * n_sets
    )
    system, costs = feedsel.reduce_set_cover(instance)
    return system, costs, True, brute_force_cover(instance.sets, instance.weights)


def brute_force_cover(sets, weights) -> float:
    """Minimum total weight of a set cover, by enumerating every subset."""
    bits = [sum(1 << (e - 1) for e in s) for s in sets]
    full = 0
    for b in bits:
        full |= b
    union = [0] * (1 << len(bits))
    cost = [0] * (1 << len(bits))
    best = math.inf
    for mask in range(1, 1 << len(bits)):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        union[mask] = union[rest] | bits[low]
        cost[mask] = cost[rest] + weights[low]
        if union[mask] == full and cost[mask] < best:
            best = cost[mask]
    return best


def _infeasible_line(rng: random.Random, index: int):
    """A line system whose last SCC no output senses, so no pattern covers it."""
    n_links = 11 + index
    system, costs = generators.random_line_system(
        rng.getrandbits(64), scc_count=6, scc_size_range=(2, 2), n_inputs=3, n_outputs=4
    )
    sink = feedsel.condense(system).sccs[-1]
    system = feedsel.StructuredSystem(
        n=system.n, m=system.m, p=system.p,
        a_edges=system.a_edges, b_edges=system.b_edges,
        c_edges=frozenset((i, j) for i, j in system.c_edges if j not in sink),
    )
    rows = [list(row) for row in costs.rows]
    cells = [(i, j) for i in range(len(rows)) for j in range(len(rows[0]))]
    for i, j in rng.sample(cells, len(cells) - n_links):
        rows[i][j] = math.inf
    return system, feedsel.CostMatrix.from_rows(rows), False, None


# workload -> (subcommand, report method, [(class, instance count, maker)])
WORKLOADS: dict[str, tuple[str, str, list[tuple[str, int, Maker]]]] = {
    "chain_dp": ("solve-dp", "dp", [
        (f"chain{k}", count, _line(scc_count=k, scc_size_range=(1, 1), n_inputs=50, n_outputs=50))
        for k, count in ((250, 1), (500, 5), (1000, 2))
    ]),
    "two_stage_nopm": ("solve-two-stage", "two-stage", [
        (f"nopm{k}", count, _line(scc_count=k, scc_size_range=(2, 2), n_inputs=20, n_outputs=20,
                                  perfect_matching=False))
        for k, count in ((150, 1), (300, 5), (600, 1))
    ]),
    "oracle_small": ("solve-exact", "exact", [
        ("line_nopm", 2, _line(scc_count=4, scc_size_range=(2, 2), n_inputs=3, n_outputs=4,
                               perfect_matching=False)),
        ("setcover", 3, _set_cover),
        ("infeasible", 2, _infeasible_line),
    ]),
}


def _deficiency(system) -> int:
    size, _, _ = hopcroft_karp(state_bipartite(system).adjacency, system.n)
    return system.n - size


def build(workload: str, seed: int, workdir: Path) -> Built:
    """Generate, write and describe the instance set of one workload.

    The same (workload, seed) gives the same files. Instances are
    interleaved round-robin across classes to form one schedule cycle.
    """
    command, method, classes = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    per_class: list[list[tuple[Instance, str]]] = []
    counts = {"states": 0, "admissible_links": 0, "matching_deficiency": 0, "oracle_patterns": 0}
    for klass, count, make in classes:
        made = []
        for index in range(count):
            system, costs, feasible, optimum = make(rng, index)
            text = feedsel.emit_system(system, costs)
            path = workdir / f"{klass}-{index}.json"
            path.write_text(text)
            links = len(costs.finite_links())
            counts["states"] += system.n
            counts["admissible_links"] += links
            counts["matching_deficiency"] += _deficiency(system)
            counts["oracle_patterns"] += 2 ** links if command == "solve-exact" else 0
            made.append((
                Instance(
                    name=f"{klass}-{index}", klass=klass, path=str(path), command=command,
                    method=method, cost_rows=costs.rows, feasible=feasible, optimum=optimum,
                ),
                text,
            ))
        per_class.append(made)
    order = [
        made[k] for k in range(max(len(m) for m in per_class)) for made in per_class if k < len(made)
    ]
    return Built(
        instances=tuple(inst for inst, _ in order),
        texts=tuple(text for _, text in order),
        counts=counts,
    )
