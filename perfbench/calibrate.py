"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark shares a few cores of a busy host. The speed at which the
host runs the same Python code drifts by up to 1.6x for tens of seconds to
minutes at a time, so two runs of the same program can land in different
states from start to end, and no statistic of their raw times agrees
between them. The benchmark therefore times this kernel just before every
request and reports each time scaled to the kernel's reference speed:

    reported = measured * REFERENCE_S / kernel time measured alongside

The kernel is pure Python and does the kinds of work feedsel does: an
iterative strongly-connected-components search over lists of ints, a
float row and column reduction over a dense cost table, and set and dict
updates. It does not touch feedsel, so a change to the program moves the
reported times exactly as it moves the measured ones.
"""

from __future__ import annotations

import random
import time

_rng = random.Random(1706)
_N = 160
_GRAPH = tuple(tuple(_rng.randrange(_N) for _ in range(3)) for _ in range(_N))
_COSTS = tuple(tuple(float(_rng.randint(1, 100)) for _ in range(24)) for _ in range(24))
_SETS = tuple(frozenset(_rng.sample(range(64), 6)) for _ in range(48))

# Kernel time, in seconds, at which reported times equal measured ones:
# about the median kernel time between requests on a 2 vCPU Intel Xeon
# shared host with Python 3.11. It only sets the scale of the reported
# times.
REFERENCE_S = 0.0008


def _components(graph) -> int:
    """Number of strongly connected components (iterative Tarjan)."""
    n = len(graph)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    counter = found = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            successors = graph[v]
            for j in range(i, len(successors)):
                w = successors[j]
                if index[w] < 0:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        if w == v:
                            break
                    found += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return found


def _reduced(costs) -> float:
    """Sum of the row and column minima after reducing the rows."""
    rows = [[c - min(row) for c in row] for row in costs]
    columns = [min(row[j] for row in rows) for j in range(len(rows[0]))]
    return sum(min(row) for row in costs) + sum(columns)


def _covered(sets) -> int:
    """Elements covered by growing unions, with a memo keyed by prefix length."""
    memo: dict[int, frozenset] = {}
    union: frozenset = frozenset()
    for k, s in enumerate(sets):
        union = union | s
        memo[k] = union
    return sum(len(u) for u in memo.values())


def kernel() -> tuple[int, float, int]:
    return _components(_GRAPH), _reduced(_COSTS), _covered(_SETS)


def kernel_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` kernel calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
