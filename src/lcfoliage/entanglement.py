"""Bipartite entanglement entropies of graph states.

For a qubit graph state the entropy across a bipartition (A, A') equals the
GF(2) rank of the adjacency submatrix with rows in A and columns in A'.
It also equals |A| - log2 |S_A|, where S_A is the group of stabilizers
supported inside A; ``schmidt_vector`` counts those for every A at once.
When the graph is in normal form (no axils) the same number comes from a
much smaller matrix indexed by foliage parts: the quotient adjacency plus a
diagonal 1 on clique parts.

A dense statevector oracle (exact amplitudes, numpy SVD) is kept alongside
as an independent route for small systems, including prime-d qudits.  It is
the package's only use of numpy, which the ``oracle`` extra installs.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from operator import or_, sub, xor

from .foliage import FoliageRepresentation, PartType, foliage_partition, foliage_representation
from .gf2 import rank_of_rows
from .graph import Graph, WeightedGraph, _guard, connected_components, iter_bits, mask_of

__all__ = [
    "EntropyVector",
    "UniformityReport",
    "entropy",
    "schmidt_vector",
    "e_matrix",
    "entropy_via_foliage",
    "marginal_maximally_mixed",
    "uniformity",
    "statevector_entropy_oracle",
]

_SCHMIDT_GUARD = 24
# Vertices whose subset-sum step runs inside one int of 2^14 lanes.  Whole
# ints are added for the rest, so no temporary is larger than one chunk:
# G(24, 1/2) peaks at 175 MB RSS this way and at 316 MB with a single int.
_ZETA_CHUNK = 14
_UNIFORMITY_GUARD = 20
_STATEVECTOR_GUARD = 1 << 20


def entropy(g: Graph, subset: int) -> int:
    """Entanglement entropy across ``(subset, complement)`` in bits.

    ``subset`` is a vertex bitmask.
    """
    full = (1 << g.n) - 1
    if subset & ~full:
        raise ValueError("subset has bits outside the vertex range")
    comp = full & ~subset
    rows = g.rows
    return rank_of_rows([rows[v] & comp for v in iter_bits(subset)])


@dataclass(frozen=True)
class EntropyVector:
    """Entropy for every vertex subset, packed one byte per bitmask."""

    n: int
    values: bytes

    def __getitem__(self, subset: int) -> int:
        if subset & ~((1 << self.n) - 1):
            raise ValueError("subset has bits outside the vertex range")
        return self.values[subset]

    def to_csv(self) -> str:
        lines = ["mask,size,entropy"]
        for mask in range(1 << self.n):
            lines.append(f"{mask},{mask.bit_count()},{self.values[mask]}")
        return "\n".join(lines) + "\n"


def schmidt_vector(g: Graph, force: bool = False) -> EntropyVector:
    """Entropies for all 2^n bipartitions.

    The stabilizer with X on x and Z on the XOR of the rows in x has support
    x | Gamma(x), and S_A = |A| - log2 N[A], where N[A] counts the stabilizers
    supported inside A.  So the supports of all 2^n stabilizers are counted
    into a histogram of fixed-width lanes (n + 1 bits each, which N[V] = 2^n
    needs), and a subset-sum transform over the vertices turns each lane into
    N[A]: O(n 2^n) work in array and big-int operations, with no rank per cut.
    The lanes go into ints of 2^14 lanes each; inside one, a vertex is one
    mask, shift and add, and a vertex above those adds whole ints.
    A random G(20, 1/2) takes about 0.5 CPU s and 27 MB peak RSS, and
    G(24, 1/2) about 9 s and 175 MB (2 shared vCPUs, Python 3.11).
    """
    n = g.n
    _guard("schmidt_vector", n, _SCHMIDT_GUARD, force)
    size = 1 << n
    code, lane_bits = ("H", 16) if n < 16 else ("I", 32)
    gamma = array(code, [0])  # gamma[x] is the XOR of the rows in x
    for row in g.rows:
        gamma.extend(array(code, map(xor, gamma, repeat(row))))
    counts = array(code, bytes(size * lane_bits // 8))
    for support in map(or_, range(size), gamma):
        counts[support] += 1
    del gamma
    if sys.byteorder == "big":
        counts.byteswap()
    inner = min(n, _ZETA_CHUNK)
    steps = []
    low = (1 << (lane_bits << inner >> 1)) - 1  # the lanes whose index lacks vertex inner - 1
    for v in reversed(range(inner)):
        shift = lane_bits << v
        steps.append((low, shift))
        low ^= low << (shift >> 1)  # from "lacks v" to "lacks v - 1"
    # chunk i holds the lanes of i * 2^inner + a, lane a at bits a * lane_bits
    # and up, so vertex inner + v is bit v of i
    per = 1 << inner
    chunks = [int.from_bytes(counts[i : i + per], "little") for i in range(0, size, per)]
    del counts
    for i, total in enumerate(chunks):
        for low, shift in steps:
            total += (total & low) << shift
        chunks[i] = total
    for v in range(n - inner):
        bit = 1 << v
        for i in range(len(chunks)):
            if i & bit:
                chunks[i] += chunks[i ^ bit]
    lanes = array(code)
    for total in chunks:
        lanes.frombytes(total.to_bytes(per * lane_bits // 8, "little"))
    del chunks
    if sys.byteorder == "big":
        lanes.byteswap()
    sizes = b"\x01"  # sizes[A] = |A| + 1, doubled one vertex at a time
    plus_one = bytes(range(1, 256)) + b"\x00"
    for _ in range(n):
        sizes += sizes.translate(plus_one)
    # N[A] is a power of two, so |A| - log2 N[A] = (|A| + 1) - N[A].bit_length()
    return EntropyVector(n, bytes(map(sub, sizes, map(int.bit_length, lanes))))


def e_matrix(rep: FoliageRepresentation) -> tuple[int, ...]:
    """Rows of the quotient adjacency plus a diagonal 1 on K parts, over part indices."""
    if rep.axils:
        raise ValueError("E-matrix needs an axil-free representation (normal form)")
    return tuple(
        row | (1 << i if t is PartType.K else 0)
        for i, (row, t) in enumerate(zip(rep.quotient.rows, rep.types))
    )


@lru_cache(maxsize=1)
def _part_matrix(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """E-matrix rows and part masks of ``g``, kept for the last graph asked about."""
    rep = foliage_representation(g)
    return e_matrix(rep), rep.partition.masks  # e_matrix raises if g is not in normal form


def entropy_via_foliage(g: Graph, subset: int) -> int:
    """Entropy from the part-indexed matrix; requires ``g`` in normal form.

    The matrix of the last graph is kept, so a run of cuts of one graph
    builds its foliage representation once.  Each cut still ranks rows as
    wide as the adjacency rows when most parts are single vertices, so this
    pays off only with large parts: on the 4096 cuts of a normal-form
    G(12, 1/2) it takes about twice as long as ``entropy``.
    """
    full = (1 << g.n) - 1
    if subset & ~full:
        raise ValueError("subset has bits outside the vertex range")
    em, masks = _part_matrix(g)
    comp = full & ~subset
    col_parts = mask_of(i for i, m in enumerate(masks) if m & comp)
    return rank_of_rows(em[i] & col_parts for i, m in enumerate(masks) if m & subset)


def marginal_maximally_mixed(g: Graph, v: int, w: int) -> bool:
    """Whether the two-qubit marginal of ``v, w`` is maximally mixed.

    Defined for connected graphs; holds exactly when the two vertices lie
    in different foliage parts.
    """
    if v == w:
        raise ValueError("vertices must be distinct")
    if len(connected_components(g)) != 1:
        raise ValueError("marginal criterion assumes a connected graph")
    part = foliage_partition(g)
    return part.part_of(v) != part.part_of(w)


@dataclass(frozen=True)
class UniformityReport:
    n: int
    k_max: int
    witness: int | None  # smallest failing subset, as a bitmask


def uniformity(g: Graph, force: bool = False) -> UniformityReport:
    """Largest k such that every k-subset is maximally entangled.

    Checks subset sizes in increasing order and stops at the first failure;
    entropy can only be maximal for larger sets if it is for smaller ones.
    """
    _guard("uniformity", g.n, _UNIFORMITY_GUARD, force)
    for k in range(1, g.n // 2 + 1):
        for combo in combinations(range(g.n), k):
            mask = mask_of(combo)
            if entropy(g, mask) != k:
                return UniformityReport(g.n, k - 1, mask)
    return UniformityReport(g.n, g.n // 2, None)


def statevector_entropy_oracle(g: Graph | WeightedGraph, subset: int, force: bool = False) -> int:
    """Entropy via explicit amplitudes and a singular value decomposition.

    Builds the full d^n statevector, so only small systems are allowed.
    The answer must come out as log_d of an exact power of d; anything else
    means a bug somewhere and raises.  Needs numpy (the ``oracle`` extra);
    without it the call raises ``ImportError``.
    """
    if isinstance(g, WeightedGraph):
        d = g.d
        weights = g.weights
    else:
        d = 2
        weights = [
            [(g.rows[v] >> w) & 1 for w in range(g.n)] for v in range(g.n)
        ]
    n = g.n
    _guard("statevector oracle", d**n, _STATEVECTOR_GUARD, force, unit="d^n")
    full = (1 << n) - 1
    if subset & ~full:
        raise ValueError("subset has bits outside the vertex range")
    try:
        import numpy as np
    except ImportError:
        raise ImportError(
            "statevector_entropy_oracle needs numpy; install it with the oracle extra: "
            "pip install 'lcfoliage[oracle]'"
        ) from None

    size = d**n
    idx = np.arange(size)
    digits = [(idx // d ** (n - 1 - v)) % d for v in range(n)]
    phase = np.zeros(size, dtype=np.int64)
    for v in range(n):
        for w in range(v + 1, n):
            x = weights[v][w]
            if x:
                phase += x * digits[v] * digits[w]
    amps = np.exp(2j * np.pi * (phase % d) / d) / math.sqrt(size)
    a_axes = list(iter_bits(subset))
    b_axes = [v for v in range(n) if not (subset >> v) & 1]
    tensor = amps.reshape([d] * n)
    mat = tensor.transpose(a_axes + b_axes).reshape(d ** len(a_axes), d ** len(b_axes))
    sing = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.count_nonzero(sing > 1e-9 * sing[0]))
    ent = round(math.log(rank, d))
    if d**ent != rank:
        raise ArithmeticError(
            f"oracle rank {rank} is not a power of d={d}; entropy would not be integral"
        )
    return ent
