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
from itertools import repeat
from operator import or_, sub, xor

from . import _NAMES
from .foliage import FoliageRepresentation, PartType, foliage_representation, vertices_related
from .gf2 import rank_of_rows
from .graph import Graph, WeightedGraph, _guard, connected_components, iter_bits, mask_of

__all__ = _NAMES["entanglement"]

# bytes of lanes schmidt_vector may allocate, 4 * 2^24: n <= 24
_SCHMIDT_LANE_BYTES = 1 << 26
# Vertices whose subset-sum step runs inside one int of 2^14 lanes.  Whole
# ints are added for the rest, so no temporary is larger than one chunk:
# G(24, 1/2) peaks at 175 MB RSS this way and at 316 MB with a single int.
_ZETA_CHUNK = 14
# vertex sets uniformity may read: every graph with n <= 20 fits
_UNIFORMITY_SETS = 1 << 20
_STATEVECTOR_AMPLITUDES = 1 << 20


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


def schmidt_vector(g: Graph) -> EntropyVector:
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
    G(24, 1/2) about 9 s and 175 MB (2 shared vCPUs, Python 3.11).  Raises
    ``SizeGuardError`` before any array is built when the lanes would pass
    ``_SCHMIDT_LANE_BYTES``, that is for ``n`` above 24.
    """
    n = g.n
    size = 1 << n
    code, lane_bits = ("H", 16) if n < 16 else ("I", 32)
    _guard("schmidt_vector", size * lane_bits // 8, _SCHMIDT_LANE_BYTES, unit="lane bytes")
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
        for i, (row, t) in enumerate(zip(rep.quotient.rows, rep.types, strict=True))
    )


# the last graph asked about and its part matrix, as one pair
_PART_MATRIX: list[tuple] = [(None, None)]


def _part_matrix(g: Graph) -> tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]]:
    """``(em, single, larger)``: the E-matrix of ``g`` over the least vertex of each part.

    ``em[lead]`` is the E-matrix row of the part whose least vertex is
    ``lead``, with bit ``lead'`` for each part in it.  ``single`` masks the
    parts of one vertex, which are their own leads, and ``larger`` holds
    ``(part mask, lead bit)`` for each other part.  Kept for the last graph
    asked about, by identity: hashing the graph on every cut added about a
    tenth to the time of a cut of a trivial partition.
    """
    last, matrix = _PART_MATRIX[0]
    if last is not g:
        rep = foliage_representation(g)
        rows = e_matrix(rep)  # raises if g is not in normal form
        parts = rep.partition.parts
        leads = [part[0] for part in parts]
        em = [0] * g.n
        for lead, row in zip(leads, rows):
            em[lead] = mask_of(leads[j] for j in iter_bits(row))
        single = mask_of(part[0] for part in parts if len(part) == 1)
        larger = tuple((mask_of(part), 1 << part[0]) for part in parts if len(part) > 1)
        matrix = tuple(em), single, larger
        _PART_MATRIX[0] = g, matrix
    return matrix


def entropy_via_foliage(g: Graph, subset: int) -> int:
    """Entropy from the part-indexed matrix; requires ``g`` in normal form.

    The rows are the parts that meet ``subset`` and the columns the parts
    that meet its complement.  The matrix of the last graph is kept, so a
    run of cuts of one graph builds its foliage representation once.  A cut
    reads each part of more than one vertex and ranks one row per part: on
    a partition of single vertices these are exactly the rows ``entropy``
    ranks, at about its cost, and large parts rank fewer rows.
    """
    full = (1 << g.n) - 1
    if subset & ~full:
        raise ValueError("subset has bits outside the vertex range")
    em, single, larger = _part_matrix(g)
    comp = full & ~subset
    rows, cols = subset & single, comp & single
    for m, lead in larger:
        if m & subset:
            rows |= lead
        if m & comp:
            cols |= lead
    return rank_of_rows([em[lead] & cols for lead in iter_bits(rows)])


def marginal_maximally_mixed(g: Graph, v: int, w: int) -> bool:
    """Whether the two-qubit marginal of ``v, w`` is maximally mixed.

    Defined for connected graphs; holds exactly when the two vertices lie
    in different foliage parts.
    """
    if v == w:
        raise ValueError("vertices must be distinct")
    if len(connected_components(g)) != 1:
        raise ValueError("marginal criterion assumes a connected graph")
    return not vertices_related(g, v, w)


@dataclass(frozen=True)
class UniformityReport:
    n: int
    k_max: int
    witness: int | None  # smallest failing subset, as a bitmask


def uniformity(g: Graph) -> UniformityReport:
    """Largest k such that every k-subset is maximally entangled.

    A subset has entropy below its size exactly when it holds the support
    x | Gamma(x) of a stabilizer other than the identity, X on x and Z on
    the XOR Gamma(x) of the rows in x (Scott, PRA 69, 052330, 2004).  So
    k_max is min(n // 2, d - 1) for the least support weight d, and the
    witness, the first failing subset by size and then in ``combinations``
    order, is the lex-least support of weight d.  The x are read by size,
    each one XOR from its prefix, until the size passes the least weight
    found: one XOR per x of at most d vertices, and no rank.  Raises
    ``SizeGuardError`` once the x read would pass ``_UNIFORMITY_SETS``,
    checked before each run of at most n of them; every graph with n <= 20
    fits, since it reads at most 616,665.
    """
    half = g.n // 2
    weight, best = half, 0  # while best is 0, any support of weight <= n // 2 wins
    size, reads = 1, 0
    while size <= weight:
        weight, best, reads = _least_support(g.rows, size, weight, best, reads)
        size += 1
    if best:
        return UniformityReport(g.n, weight - 1, best)
    return UniformityReport(g.n, half, None)


def _least_support(
    rows: tuple[int, ...], size: int, weight: int, best: int, reads: int
) -> tuple[int, int, int]:
    """``(weight, best, reads)`` after the x of ``size`` vertices: the least of ``best`` and their supports.

    While ``best`` is 0, any support of at most ``weight`` vertices is less.
    Supports are ordered by weight, then as sorted vertex tuples: for masks
    of equal weight, ``s`` comes first exactly when the lowest bit in which
    ``s`` and ``best`` differ is in ``s``.  The x are read in lex order, by a
    depth-first walk over their first ``size - 1`` vertices.  ``reads``
    counts the x read so far, each inner loop's before it runs.
    """
    n = len(rows)
    # (vertices left before the last, x so far, the XOR of its rows, least next vertex)
    stack = [(size - 1, 0, 0, 0)]
    while stack:
        left, x, gamma, low = stack.pop()
        if left:
            for v in range(n - 1 - left, low - 1, -1):  # popped in increasing order
                stack.append((left - 1, x | 1 << v, gamma ^ rows[v], v + 1))
            continue
        reads += n - low
        _guard("uniformity", reads, _UNIFORMITY_SETS, unit="vertex sets read")
        for v in range(low, n):
            xv = x | 1 << v
            support = xv | gamma ^ rows[v]
            if size == weight:  # only x itself, before best, can still win
                if best and not (diff := xv ^ best) & -diff & xv:
                    return weight, best, reads
                if support == xv:
                    return weight, xv, reads
            elif (w := support.bit_count()) < weight or (
                w == weight and (diff := support ^ best) & -diff & support
            ):
                weight, best = w, support
                if w == size:  # support is x, and every later x comes after it
                    return weight, best, reads
    return weight, best, reads


def statevector_entropy_oracle(g: Graph | WeightedGraph, subset: int) -> int:
    """Entropy via explicit amplitudes and a singular value decomposition.

    Builds the full d^n statevector, so only small systems are allowed:
    ``SizeGuardError`` is raised before any table is built when d^n passes
    ``_STATEVECTOR_AMPLITUDES``.  The answer must come out as log_d of an
    exact power of d; anything else means a bug somewhere and raises.  Needs
    numpy (the ``oracle`` extra); without it the call raises ``ImportError``.
    """
    n = g.n
    d = g.d if isinstance(g, WeightedGraph) else 2
    _guard("statevector oracle", d**n, _STATEVECTOR_AMPLITUDES, unit="d^n")
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

    if isinstance(g, WeightedGraph):
        weights = g.weights
    else:
        weights = [[(g.rows[v] >> w) & 1 for w in range(n)] for v in range(n)]
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
