"""Shared helpers and independent oracles for the test suite.

Oracles here intentionally avoid the library's internal representations:
ranks use dense list-of-list elimination, partitions follow the pairwise
definition directly, so agreement is meaningful.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from lcfoliage.graph import Graph, WeightedGraph


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_weighted(n: int, d: int, p: float, rng: random.Random) -> WeightedGraph:
    edges = [
        (u, v, rng.randrange(1, d))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.from_edges(n, d, edges)


def weight_matrix(g: Graph | WeightedGraph) -> tuple[list[list[int]], int]:
    """Dense (weights, modulus) view of either graph flavour."""
    if isinstance(g, WeightedGraph):
        return [list(row) for row in g.weights], g.d
    mat = [[(g.rows[v] >> w) & 1 for w in range(g.n)] for v in range(g.n)]
    return mat, 2


def dense_gf2_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination on dense 0/1 lists."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def components_by_definition(mat: list[list[int]]) -> list[set[int]]:
    n = len(mat)
    seen: set[int] = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in range(n):
                if mat[v][w] and w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
        seen |= comp
    return comps


def related_by_definition(g: Graph | WeightedGraph, v: int, w: int) -> bool:
    """The cross-product relation, straight from its definition."""
    mat, mod = weight_matrix(g)
    n = len(mat)
    if not any(v in c and w in c for c in components_by_definition(mat)):
        return False
    for u1 in range(n):
        if u1 in (v, w):
            continue
        for u2 in range(n):
            if u2 in (v, w):
                continue
            if (mat[v][u1] * mat[w][u2] - mat[v][u2] * mat[w][u1]) % mod:
                return False
    return True


def partition_by_definition(g: Graph | WeightedGraph) -> set[frozenset[int]]:
    """Equivalence classes of the pairwise relation, via union-find."""
    n = g.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in range(n):
        for w in range(v + 1, n):
            if related_by_definition(g, v, w):
                rv, rw = find(v), find(w)
                if rv != rw:
                    parent[rw] = rv
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(s) for s in groups.values()}


def parts_as_sets(parts: tuple[tuple[int, ...], ...]) -> set[frozenset[int]]:
    return {frozenset(p) for p in parts}


def peak_rss_mb_under_1_gib(code: str) -> float:
    """Peak RSS in MB of ``code`` run by a fresh interpreter on this checkout."""
    return cpu_s_and_peak_rss_mb_under_1_gib(code, "")[1]


def cpu_s_and_peak_rss_mb_under_1_gib(setup: str, code: str) -> tuple[float, float]:
    """CPU seconds of ``code``, run after ``setup``, and the peak RSS in MB.

    Both run in a fresh interpreter on this checkout, and their standard
    output is dropped.  The child's address space is capped at 1 GiB, so
    code that would need more fails fast with a ``MemoryError``.  Peak RSS
    is read from VmHWM, which starts afresh at exec: getrusage's ru_maxrss
    in a child keeps the peak of the process that started it.
    """
    import resource

    def one_gib_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = (
        "import contextlib, io, os, sys, time\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exec(sys.argv[1])\n"
        "    _start = time.process_time()\n"
        "    exec(sys.argv[2])\n"
        "    _cpu = time.process_time() - _start\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(_cpu, next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:')) / 1024)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, setup, code],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=one_gib_address_space,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    cpu, mb = proc.stdout.split()
    return float(cpu), float(mb)
