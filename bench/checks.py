"""Output checks written from the definitions, sharing no code with lcfoliage.

Each ``check_*`` returns ``None`` when the output is right and a one-line
reason when it is not.  Graphs arrive as symmetric boolean numpy matrices
(or a weight matrix over Z_d) built by the benchmark's own decoder.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np

import goldens
from inputs import graph6_of_matrix, matrix_of_graph6, rows_of_matrix

# ---------------------------------------------------------------------------
# entropies: rank over GF(2) and an explicit state vector


def gf2_rank(rows: list[int]) -> int:
    """Rank from an xor basis kept in decreasing order."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)


def cut_rank(rows: list[int], subset: int) -> int:
    comp = ((1 << len(rows)) - 1) & ~subset
    return gf2_rank([rows[v] & comp for v in range(len(rows)) if subset >> v & 1])


def sv_entropy(mat: np.ndarray, subset: int) -> int:
    """Entropy of the graph state across ``subset`` from its amplitudes.

    The amplitude of basis state x is (-1)^(sum of x_u x_v over edges); the
    entropy is log2 of the Schmidt rank across the cut.
    """
    n = mat.shape[0]
    x = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # x[:, v] is qubit v
    upper = np.triu(mat, 1).astype(np.int64)
    amps = 1 - 2 * ((((x @ upper) * x).sum(axis=1)) & 1)
    tensor = amps.reshape([2] * n)  # axis k holds qubit n - 1 - k
    a_axes = [n - 1 - v for v in range(n) if subset >> v & 1]
    b_axes = [n - 1 - v for v in range(n) if not subset >> v & 1]
    m = tensor.transpose(a_axes + b_axes).reshape(1 << len(a_axes), 1 << len(b_axes))
    rank = int(np.linalg.matrix_rank(m.astype(float)))
    ent = rank.bit_length() - 1
    if rank != 1 << ent:
        raise ArithmeticError(f"Schmidt rank {rank} is not a power of two")
    return ent


# ---------------------------------------------------------------------------
# foliage partition and representation from the definition
#
# Distinct v, w are related iff they share a component and their rows,
# with v and w removed, are proportional or one is zero.  That happens
# exactly for a leaf and its neighbour, for non-adjacent vertices with the
# same open neighbourhood (proportional weights), and for adjacent vertices
# with the same closed neighbourhood (proportional weights off v and w).


class _Union:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def join(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _buckets(support: np.ndarray, nonempty: np.ndarray) -> list[list[int]]:
    groups: dict[bytes, list[int]] = {}
    for v, row in enumerate(np.packbits(support, axis=1)):
        if nonempty[v]:
            groups.setdefault(row.tobytes(), []).append(v)
    return [g for g in groups.values() if len(g) > 1]


def _proportional(a: np.ndarray, b: np.ndarray, d: int) -> bool:
    if len(a) == 0:
        return True
    ratio = int(a[0]) * pow(int(b[0]), -1, d) % d
    return bool(np.all(a % d == ratio * b % d))


def expected_partition(mat: np.ndarray, weights: np.ndarray | None = None, d: int = 2) -> list[list[int]]:
    """Foliage parts, sorted by least member; linear apart from the buckets."""
    n = mat.shape[0]
    deg = mat.sum(axis=1)
    uf = _Union(n)
    for v in np.nonzero(deg == 1)[0]:
        uf.join(int(v), int(np.argmax(mat[v])))
    for bucket in _buckets(mat, deg > 0):  # same open neighbourhood
        if weights is None:
            for v in bucket[1:]:
                uf.join(bucket[0], v)
            continue
        by_ratio: dict[bytes, int] = {}
        for v in bucket:
            row = weights[v]
            lead = int(row[np.argmax(row != 0)])
            key = (row * pow(lead, -1, d) % d).tobytes()
            uf.join(by_ratio.setdefault(key, v), v)
    closed = mat | np.eye(n, dtype=bool)
    for bucket in _buckets(closed, deg > 0):  # same closed neighbourhood
        for i, v in enumerate(bucket):
            for w in bucket[i + 1 :]:
                if weights is None:
                    uf.join(v, w)
                    continue
                rest = np.nonzero(closed[v])[0]
                rest = rest[(rest != v) & (rest != w)]
                if _proportional(weights[v, rest], weights[w, rest], d):
                    uf.join(v, w)
    parts: dict[int, list[int]] = {}
    for v in range(n):
        parts.setdefault(uf.find(v), []).append(v)
    return sorted(parts.values())


def expected_types(mat: np.ndarray, parts: list[list[int]]) -> tuple[list[str], list[int]]:
    """Part types (Z, AL, K, D) and the sorted axils."""
    deg = mat.sum(axis=1)
    types, axils = [], []
    for part in parts:
        if len(part) == 1:
            types.append("Z")
            continue
        centres = [v for v in part if deg[v] != 1]
        if len(centres) < len(part):  # holds a leaf: a star, or an isolated edge
            if not centres:
                types.append("K")
            else:
                types.append("AL")
                axils.extend(centres)
        else:
            types.append("K" if mat[part[0], part[1]] else "D")
    return types, sorted(axils)


def expected_quotient(mat: np.ndarray, parts: list[list[int]]) -> np.ndarray:
    """Quotient edges (i, j), i < j, sorted, as a k-by-2 array."""
    index = np.empty(mat.shape[0], dtype=np.int64)
    for i, part in enumerate(parts):
        index[part] = i
    u, v = np.nonzero(np.triu(mat, 1))
    pu, pv = index[u], index[v]
    keep = pu != pv
    lo, hi = np.minimum(pu[keep], pv[keep]), np.maximum(pu[keep], pv[keep])
    codes = np.unique(lo * len(parts) + hi)
    return np.stack([codes // len(parts), codes % len(parts)], axis=1)


def check_representation(mat, parts, types, axils, edges: np.ndarray) -> str | None:
    want = expected_partition(mat)
    if parts != want:
        return f"partition differs from the definition ({len(parts)} parts, expected {len(want)})"
    want_types, want_axils = expected_types(mat, want)
    if types != want_types or axils != want_axils:
        return "part types or axils differ from the definition"
    if not np.array_equal(edges.reshape(-1, 2), expected_quotient(mat, want)):
        return "quotient edges differ from the cross edges between parts"
    return None


_PART = re.compile(r"\{([0-9,]+)\}(Z|AL|K|D)?(?::a([0-9]+))?")


def _parse_parts(text: str):
    parts, types, axils = [], [], []
    for members, kind, axil in _PART.findall(text):
        parts.append([int(v) for v in members.split(",")])
        types.append(kind)
        if axil:
            axils.append(int(axil))
    return parts, types, sorted(axils)


def check_foliage_text(out: str, mat: np.ndarray) -> str | None:
    """``lcfoliage foliage`` output: ``parts=[{0,1}AL:a0,...] edges=[(0,1),...]``."""
    m = re.fullmatch(r"parts=\[(.*)\] edges=\[(.*)\]\n", out, re.S)
    if m is None:
        return "foliage output is not 'parts=[...] edges=[...]'"
    parts, types, axils = _parse_parts(m.group(1))
    flat = m.group(2).replace("(", "").replace(")", "")
    edges = np.array(flat.split(",") if flat else [], dtype=np.int64)
    return check_representation(mat, parts, types, axils, edges)


def check_weighted_text(out: str, weights: np.ndarray, d: int) -> str | None:
    """``lcfoliage foliage --weighted`` output: ``parts=[{0,1},{2},...]``."""
    m = re.fullmatch(r"parts=\[(.*)\]\n", out, re.S)
    if m is None:
        return "weighted foliage output is not 'parts=[...]'"
    parts, _, _ = _parse_parts(m.group(1))
    if parts != expected_partition(weights != 0, weights, d):
        return "weighted partition differs from the definition"
    return None


def weights_of_text(text: str) -> tuple[np.ndarray, int]:
    lines = text.split("\n")
    head = lines[0].split()
    d, n = int(head[1]), int(head[3])
    trip = np.array(" ".join(lines[1:]).split(), dtype=np.int64).reshape(-1, 3)
    w = np.zeros((n, n), dtype=np.int64)
    w[trip[:, 0], trip[:, 1]] = trip[:, 2]
    w[trip[:, 1], trip[:, 0]] = trip[:, 2]
    return w, d


def check_lc(out: str, mat: np.ndarray, v: int) -> str | None:
    m = mat.copy()
    nb = np.nonzero(m[v])[0]
    m[np.ix_(nb, nb)] ^= True
    m[nb, nb] = False
    if out != graph6_of_matrix(m) + "\n":
        return f"lc {v} output differs from complementing the neighbourhood of {v}"
    return None


# ---------------------------------------------------------------------------
# census

def check_census_count(out: str, n: int) -> str | None:
    want = goldens.CONNECTED_LC_CLASSES[n]
    if out != f"{want}\n":
        return f"classes --n {n} printed {out.strip()!r}, expected {want}"
    return None


def check_symmetry_csv(out: str, n: int) -> str | None:
    """Independent row invariants first, then the frozen regression text."""
    lines = out.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != goldens.CONNECTED_LC_CLASSES[n]:
        return f"symmetry table has {len(rows)} rows, expected {goldens.CONNECTED_LC_CLASSES[n]}"
    total = 0
    for i, r in enumerate(rows, start=1):
        cid, rn, shape, aut_in, _, order, labeled, classes, _ = r
        sizes = [int(s) for s in shape.split("+")]
        if int(cid) != i or int(rn) != n or sum(sizes) != n:
            return f"symmetry row {i} has a bad id, n or partition shape"
        if int(aut_in) != math.prod(math.factorial(s) for s in sizes):
            return f"symmetry row {i}: aut_in is not the product of part-size factorials"
        if int(order) % int(aut_in) or int(classes) > int(labeled):
            return f"symmetry row {i}: aut order or orbit sizes are inconsistent"
        total += int(classes)
    if total != goldens.CONNECTED_GRAPHS[n]:
        return f"class sizes sum to {total}, expected {goldens.CONNECTED_GRAPHS[n]} connected graphs"
    if out != goldens.SYMMETRY_CSV[n]:
        return "symmetry table differs from the frozen regression golden"
    return None


def check_stats(out: str, n: int) -> str | None:
    if out != goldens.STATS_CSV[n]:
        return f"stats --n {n} --csv printed {out.strip()!r}, frozen golden is {goldens.STATS_CSV[n].strip()!r}"
    return None


# ---------------------------------------------------------------------------
# small queries

def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def orbit(rows: list[int]) -> set[tuple[int, ...]]:
    """Labelled LC orbit by breadth-first search over single moves."""
    start = tuple(rows)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for a, nb in enumerate(g):
                h = list(g)
                for v in _bits(nb):
                    h[v] ^= nb & ~(1 << v)
                t = tuple(h)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def _permuted(rows: list[int], perm: list[int]) -> tuple[int, ...]:
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = sum(1 << perm[w] for w in _bits(row))
    return tuple(out)


def _type_lower_bound(members: set[tuple[int, ...]]) -> int:
    """Distinct degree sequences: a lower bound on isomorphism types."""
    return len({tuple(sorted(r.bit_count() for r in g)) for g in members})


def _group_order(gens: list[list[int]], n: int) -> int:
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[v]] for v in range(n))
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(group)


def check_query(q: dict, result: dict, rng: random.Random) -> str | None:
    mat = matrix_of_graph6(q["g6"])
    rows = rows_of_matrix(mat)
    n = len(rows)
    kind = q["kind"]
    if kind in ("lc_orbit", "lc_automorphism_group"):
        members = orbit(rows)
        if result["labeled"] != len(members):
            return f"{kind}: labelled orbit size {result['labeled']}, BFS gives {len(members)}"
        if not _type_lower_bound(members) <= result["classes"] <= len(members):
            return f"{kind}: class size {result['classes']} outside its bounds"
        if kind == "lc_automorphism_group":
            gens = result["generators"]
            if any(_permuted(rows, p) not in members for p in gens):
                return "lc_automorphism_group: a generator leaves the LC orbit"
            if _group_order(gens, n) != result["order"]:
                return "lc_automorphism_group: generators do not generate a group of the stated order"
            aut_in = math.prod(math.factorial(len(p)) for p in expected_partition(mat))
            if result["aut_in"] != aut_in or result["order"] % aut_in:
                return "lc_automorphism_group: within-part group order is wrong"
        return None
    if kind in ("schmidt_vector", "entropy_via_foliage"):
        vals = np.frombuffer(bytes.fromhex(result["values"]), dtype=np.uint8)
        full = (1 << n) - 1
        if len(vals) != 1 << n or vals[0] != 0 or not np.array_equal(vals, vals[full - np.arange(1 << n)]):
            return f"{kind}: entropy vector has the wrong length or is not complement-symmetric"
        for mask in rng.sample(range(1, full), 3):
            if vals[mask] != sv_entropy(mat, mask):
                return f"{kind}: entropy of cut {mask} disagrees with the state vector"
        return None
    if kind == "uniformity":
        k, witness = result["k_max"], result["witness"]
        if witness is None:
            if k != n // 2:
                return "uniformity: no witness but k_max is below n/2"
        elif witness.bit_count() != k + 1 or cut_rank(rows, witness) == k + 1:
            return "uniformity: the witness is not a non-maximal (k_max+1)-subset"
        for _ in range(3):
            if k and cut_rank(rows, sum(1 << v for v in rng.sample(range(n), k))) != k:
                return "uniformity: a k_max-subset is not maximally entangled"
        return None
    if kind == "saturation":
        err = check_representation(
            mat, result["parts"], result["types"], result["axils"], np.array(result["edges"], dtype=np.int64)
        )
        if err:
            return "saturation: " + err
        chain, cur = [n], mat
        while True:
            parts = expected_partition(cur)
            if len(parts) == cur.shape[0]:
                break
            e = expected_quotient(cur, parts)
            cur = np.zeros((len(parts), len(parts)), dtype=bool)
            cur[e[:, 0], e[:, 1]] = True
            cur |= cur.T
            chain.append(len(parts))
        if result["chain"] != chain:
            return f"saturation: chain {result['chain']}, expected {chain}"
        return None
    if kind == "statevector_entropy_oracle":
        want = cut_rank(rows, q["mask"])
        if result["oracle"] != want or result["entropy"] != want:
            return f"statevector_entropy_oracle: oracle {result['oracle']} and entropy {result['entropy']}, rank {want}"
        return None
    return f"unknown query kind {kind!r}"
