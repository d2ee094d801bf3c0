"""Seeded benchmark inputs, generated without importing lcfoliage.

Every generator draws from a ``random.Random`` made from the seed, so one
seed fixes every input.  The codecs here are the benchmark's own, so the
program under test receives bytes it did not produce.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np

# big_graphs sizes: the seed code finishes each of these in seconds, while
# its sparse partition is quadratic, so larger sparse inputs would dominate
DENSE_N = 2000
SPARSE_NS = (2000, 4000)
PATH_N = 2000
WEIGHTED_N = 2000
WEIGHTED_D = 5

# small_queries strata: (kind, smallest n, largest n, queries per pass)
QUERY_STRATA = (
    ("lc_orbit", 7, 9, 6),
    ("lc_automorphism_group", 6, 8, 6),
    ("schmidt_vector", 14, 14, 4),
    ("uniformity", 16, 20, 4),
    ("entropy_via_foliage", 10, 10, 6),
    ("saturation", 10, 30, 30),
    ("statevector_entropy_oracle", 6, 12, 30),
)
# passes written per seed; a run uses --seconds / QUERY_PASS_SECONDS of
# them, the CPU seconds one pass took at the commit that set this benchmark
QUERY_PASSES = 16
QUERY_PASS_SECONDS = 3.3


# ---------------------------------------------------------------------------
# graph families

def gnp(n: int, p: float, rng: random.Random) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return adj


def connected_gnp(n: int, p: float, rng: random.Random) -> list[list[int]]:
    while True:
        adj = gnp(n, p, rng)
        if is_connected(adj):
            return adj


def is_connected(adj: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def dense_matrix(n: int, seed: int) -> np.ndarray:
    """Symmetric boolean adjacency matrix of G(n, 1/2)."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    return upper | upper.T


def cycle_with_chords(n: int, chords: int, rng: random.Random) -> list[tuple[int, int]]:
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(v, v + 1) for v in range(n - 1)]


# ---------------------------------------------------------------------------
# codecs

def _size_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def graph6_of_matrix(mat: np.ndarray) -> str:
    """graph6 text: upper triangle column by column, 6 bits per byte."""
    n = mat.shape[0]
    rows, cols = np.tril_indices(n, -1)  # (j, i) with i < j, ordered by j then i
    bits = mat[cols, rows].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)])
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return (_size_header(n) + body.astype(np.uint8).tobytes()).decode("ascii")


def graph6_of_edges(n: int, edges: list[tuple[int, int]]) -> str:
    mat = np.zeros((n, n), dtype=bool)
    if edges:
        e = np.array(edges)
        mat[e[:, 0], e[:, 1]] = True
        mat[e[:, 1], e[:, 0]] = True
    return graph6_of_matrix(mat)


def matrix_of_graph6(text: str) -> np.ndarray:
    raw = np.frombuffer(text.strip().encode("ascii"), dtype=np.uint8).astype(np.int64) - 63
    if raw[0] < 63:
        n, body = int(raw[0]), raw[1:]
    else:
        n, body = int((raw[1] << 12) | (raw[2] << 6) | raw[3]), raw[4:]
    bits = ((body[:, None] >> np.arange(5, -1, -1)) & 1).reshape(-1)[: n * (n - 1) // 2]
    mat = np.zeros((n, n), dtype=bool)
    rows, cols = np.tril_indices(n, -1)
    mat[cols, rows] = bits.astype(bool)
    return mat | mat.T


def rows_of_matrix(mat: np.ndarray) -> list[int]:
    """Adjacency rows as int bitmasks (bit w of row v is the edge vw)."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def weighted_text(n: int, d: int, edges: list[tuple[int, int, int]]) -> str:
    return f"d {d} n {n}\n" + "".join(f"{u} {v} {x}\n" for u, v, x in edges)


# ---------------------------------------------------------------------------
# per-seed input sets, written once

def _write(directory: str, name: str, text: str) -> dict:
    path = os.path.join(directory, name)
    with open(path + ".tmp", "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)
    return {"file": name, "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def _cached(directory: str, build) -> dict:
    """Return the manifest in ``directory``, building the inputs if absent."""
    manifest = os.path.join(directory, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest, encoding="ascii") as fh:
            return json.load(fh)
    os.makedirs(directory, exist_ok=True)
    doc = build(directory)
    _write(directory, "manifest.json", json.dumps(doc, indent=1))
    return doc


def big_graph_inputs(directory: str, seed: int) -> dict:
    """graph6 and weighted files for the big_graphs workload."""

    def build(out: str) -> dict:
        rng = random.Random(f"big_graphs:{seed}")
        files = {}
        mat = dense_matrix(DENSE_N, rng.getrandbits(64))
        files["dense"] = _write(out, "dense.g6", graph6_of_matrix(mat))
        files["dense"].update(n=DENSE_N, edges=int(mat.sum()) // 2)
        for n in SPARSE_NS:
            edges = cycle_with_chords(n, n // 2, rng)
            name = f"sparse{n}"
            files[name] = _write(out, name + ".g6", graph6_of_edges(n, edges))
            files[name].update(n=n, edges=len(edges))
        edges = path_edges(PATH_N)
        files["path"] = _write(out, "path.g6", graph6_of_edges(PATH_N, edges))
        files["path"].update(n=PATH_N, edges=len(edges))
        wedges = [
            (u, v, rng.randrange(1, WEIGHTED_D))
            for u, v in cycle_with_chords(WEIGHTED_N, WEIGHTED_N // 2, rng)
        ]
        files["weighted"] = _write(
            out, "weighted.txt", weighted_text(WEIGHTED_N, WEIGHTED_D, wedges)
        )
        files["weighted"].update(n=WEIGHTED_N, edges=len(wedges), d=WEIGHTED_D)
        return files

    return _cached(directory, build)


def _relabel(adj: list[list[int]], rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u in range(n) for v in adj[u] if u < v
    )


def query_inputs(directory: str, seed: int) -> dict:
    """The seeded query passes for the small_queries workload.

    The isomorphism types come from one fixed pool; the seed draws a fresh
    relabelling of every graph for every pass, the cut masks and the order
    within each pass.  What a query costs depends on the type far more than
    on the labels, so every pass does the same work and the pass time stays
    steady across seeds, while no two passes or seeds hand the program the
    same labelled graphs.
    """

    def build(out: str) -> dict:
        pool_rng = random.Random("small_queries:pool")
        pool = [
            (kind, connected_gnp(lo + i % (hi - lo + 1), 0.5, pool_rng))
            for kind, lo, hi, count in QUERY_STRATA
            for i in range(count)
        ]
        rng = random.Random(f"small_queries:{seed}")
        passes = []
        for _ in range(QUERY_PASSES):
            queries = []
            for kind, adj in pool:
                n, edges = _relabel(adj, rng)
                q = {"kind": kind, "n": n, "g6": graph6_of_edges(n, edges), "edges": len(edges)}
                if kind == "statevector_entropy_oracle":
                    q["mask"] = rng.randrange(1, (1 << n) - 1)
                queries.append(q)
            rng.shuffle(queries)
            passes.append(queries)
        doc = _write(out, "queries.json", json.dumps(passes))
        doc.update(passes=len(passes), queries_per_pass=len(pool))
        return {"queries": doc}

    return _cached(directory, build)
