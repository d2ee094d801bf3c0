"""Foliage partition, representation, normal form, and saturation.

The foliage partition groups vertices whose joint entanglement with the rest
of a graph state is insensitive to local complementation: two vertices ``v``
and ``w`` belong together iff they sit in the same connected component and
their adjacency rows, restricted away from ``v`` and ``w``, are linearly
dependent.  Over GF(2) that means equal or one of them zero; over Z_d it
means proportional.

Parts come in four shapes: singletons (Z), a star centre with its leaves
(AL, the centre is the axil), a clique of pairwise twins (K), and an
independent set of twins (D).  A two-vertex component is both a star and a
clique; it is labelled K with no axil so that the normal form leaves it
alone.

Away from leaves, related vertices are twins: non-adjacent ones share their
open neighbourhood, adjacent ones their closed neighbourhood, and over Z_d
only such support twins have their weights checked for proportionality.  So
the partition and the quotient graph each take O(n + m) big-int operations
on bitmask rows of up to n bits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, compress, groupby

from . import _NAMES
from .graph import Graph, WeightedGraph, _is_sparse, _support_rows, iter_bits, local_complement, mask_of

__all__ = _NAMES["foliage"]


class PartType(str, Enum):
    Z = "Z"    # singleton
    AL = "AL"  # axil with leaves
    K = "K"    # clique of twins
    D = "D"    # independent set of twins

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class FoliagePartition:
    """Vertex partition; parts are sorted tuples ordered by least member."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of, self.parts))

    @cached_property
    def _index(self) -> dict[int, int]:
        return {v: i for i, part in enumerate(self.parts) for v in part}

    def part_of(self, v: int) -> int:
        """Index of the part containing vertex ``v``."""
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"vertex {v} out of range") from None

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @property
    def is_trivial(self) -> bool:
        return all(len(p) == 1 for p in self.parts)


@dataclass(frozen=True)
class FoliageRepresentation:
    """Partition plus quotient graph, part types, and axil vertices."""

    partition: FoliagePartition
    quotient: Graph
    types: tuple[PartType, ...]
    axils: tuple[int, ...]


@dataclass(frozen=True)
class SaturationReport:
    """Orders of the iterated foliage-graph chain, strictly decreasing."""

    chain: tuple[int, ...]

    @property
    def time(self) -> int:
        return len(self.chain) - 1

    @property
    def size(self) -> int:
        return self.chain[-1]


def _weighted_rows_dependent(g: WeightedGraph, v: int, w: int) -> bool:
    # support twins: away from each other they share one nonempty support
    sv = g.supports[v] & ~(1 << w)
    wv, ww, d = g._nbrs[v], g._nbrs[w], g.d
    u = sv.bit_length() - 1
    ratio = wv[u] * pow(ww[u], -1, d) % d
    return all(wv[u] == ratio * ww[u] % d for u in iter_bits(sv))


def vertices_related(g: Graph | WeightedGraph, v: int, w: int) -> bool:
    """Whether ``v`` and ``w`` fall in the same foliage part.

    Distinct vertices only; a vertex is always related to itself but asking
    is almost certainly a bug, so that case raises.
    """
    if v == w:
        raise ValueError("vertices must be distinct")
    part = foliage_partition(g)
    return part.part_of(v) == part.part_of(w)


def foliage_partition(g: Graph | WeightedGraph) -> FoliagePartition:
    """Compute the foliage partition in one sweep over the vertices."""
    return _sweep(g)[0]


def _sweep(g: Graph | WeightedGraph) -> tuple[FoliagePartition, tuple, tuple[int, ...]]:
    """The partition with each part's type and anchor, in one sweep.

    The least unassigned vertex is the next pivot.  A leaf joins its
    neighbour and that neighbour's other leaves (AL, anchored at the
    neighbour, or K if both are leaves); a vertex with leaves takes them
    (AL); any other pivot takes its twin class, found by bucketing
    neighbourhood masks (Z if it has no twin, else K if adjacent, D if not).
    That is O(n + m) big-int operations and, where many vertices share a
    bucket, O(n log n) whole-row comparisons, on rows of up to n bits: a
    sparse graph's rows alone take about n²/15 bytes.
    """
    n = g.n
    sup = _support_rows(g)
    deg = [0] * n  # 0, 1, or 2 for two and more
    leaves: dict[int, list[int]] = {}  # vertex -> its degree-1 neighbours
    twins: dict[int, list[int]] = {}  # vertex -> its class, if it has a twin
    # Masks make poor dict keys: hashing reads all of a mask, and Python
    # hashes an int modulo 2**61 - 1, so sparse rows whose bits agree mod 61
    # collide (a path of 20000 vertices takes over a second).  Twins share
    # the top vertex and the head, the 64 bits below it, of their open or
    # closed neighbourhood, which take O(1) to read off a mask.  Only
    # vertices that share such a key have whole masks compared, by sorting.
    first: dict[int, int] = {}  # (top, head, closed?) packed -> first vertex
    shared: dict[int, list[int]] = {}  # such a key met again -> its vertices
    for v, s in enumerate(sup):
        if not s:
            continue
        top = s.bit_length()
        head = s >> max(top - 64, 0)
        # a leaf; two bits in the head spare most rows the whole-mask test
        if not head & (head - 1) and s == 1 << (top - 1):
            deg[v] = 1
            leaves.setdefault(top - 1, []).append(v)
            continue
        deg[v] = 2
        closed_top = max(top, v + 1)
        cut = max(closed_top - 64, 0)
        closed_head = s >> cut | (1 << (v - cut) if v >= cut else 0)
        for key in (top << 65 | head << 1, closed_top << 65 | closed_head << 1 | 1):
            u = first.setdefault(key, v)
            if u != v:
                shared.setdefault(key, [u]).append(v)
    for key, bucket in shared.items():
        mask = {v: sup[v] | 1 << v for v in bucket}.__getitem__ if key & 1 else sup.__getitem__
        bucket.sort(key=mask)  # stable: each run of equal masks stays in vertex order
        for _, run in groupby(bucket, mask):
            cls = list(run)
            if len(cls) > 1:
                for w in cls:
                    twins[w] = cls

    qubit = isinstance(g, Graph)
    assigned = [False] * n
    parts, types, anchors = [], [], []
    for v in range(n):
        if assigned[v]:
            continue
        anchor, kind = v, PartType.Z
        if deg[v] == 1:
            anchor = sup[v].bit_length() - 1
            part = sorted([anchor, *leaves[anchor]])
            # an isolated edge has no axil
            kind = PartType.K if deg[anchor] == 1 else PartType.AL
        elif v in leaves:
            part, kind = [v, *leaves[v]], PartType.AL
        else:
            part = twins.get(v, (v,))
            if not qubit:
                # over Z_d, support twins must also have proportional weights
                part = [
                    w
                    for w in part
                    if w == v or (not assigned[w] and _weighted_rows_dependent(g, v, w))
                ]
            if len(part) > 1:
                kind = PartType.K if sup[v] >> part[1] & 1 else PartType.D
        for w in part:
            assigned[w] = True
        parts.append(tuple(part))
        types.append(kind)
        anchors.append(anchor)
    return FoliagePartition(n, tuple(parts)), tuple(types), tuple(anchors)


def foliage_set(g: Graph | WeightedGraph) -> int:
    """Bitmask of vertices whose part is not a singleton."""
    part = foliage_partition(g)
    out = 0
    for m in part.masks:
        if m & (m - 1):
            out |= m
    return out


def foliage_graph(g: Graph | WeightedGraph) -> Graph:
    """Quotient graph: one vertex per part, adjacent iff any cross edge."""
    part, _, anchors = _sweep(g)
    return _quotient(_support_rows(g), part, anchors)


def _quotient(sup: tuple[int, ...], part: FoliagePartition, anchors: tuple[int, ...]) -> Graph:
    """Parts adjacent iff some edge joins them.

    Every edge that leaves a part leaves from its anchor (twins share their
    outside neighbours), so row ``i`` is the anchor row of part ``i`` mapped
    through the vertex-to-part map: O(n + m) big-int operations, but each
    ``1 << j`` builds j bits, so a sparse graph costs O(n²) bit work.  A
    trivial partition keeps the rows.
    """
    if part.is_trivial:
        return Graph._wrap(part.n, sup)
    owner = part._index
    rows = []
    for i, anchor in enumerate(anchors):
        row = 0
        for u in iter_bits(sup[anchor]):
            row |= 1 << owner[u]
        rows.append(row & ~(1 << i))
    return Graph._wrap(len(rows), tuple(rows))


def foliage_representation(g: Graph) -> FoliageRepresentation:
    """Partition with part types, axils, and the quotient graph."""
    if not isinstance(g, Graph):
        raise TypeError("part typing is defined for qubit graphs")
    part, types, anchors = _sweep(g)
    axils = sorted(a for t, a in zip(types, anchors) if t is PartType.AL)
    return FoliageRepresentation(part, _quotient(g.rows, part, anchors), types, tuple(axils))


def reconstruct_graph(rep: FoliageRepresentation) -> Graph:
    """Rebuild the unique graph with this representation.

    Intra-part edges follow the part type; vertices of adjacent parts are
    joined all-to-all except that an AL part participates only through its
    axil.
    """
    part = rep.partition
    n = part.n
    axil_set = set(rep.axils)
    edges = []
    anchors = []  # vertices of each part visible to neighbouring parts
    for i, members in enumerate(part.parts):
        t = rep.types[i]
        inpart = [v for v in members if v in axil_set]
        if t is PartType.AL:
            if len(inpart) != 1:
                raise ValueError(f"AL part {i} needs exactly one axil, got {inpart}")
            axil = inpart[0]
            anchors.append((axil,))
            for v in members:
                if v != axil:
                    edges.append((axil, v))
        else:
            if inpart:
                raise ValueError(f"part {i} of type {t} must not contain an axil")
            anchors.append(members)
            if t is PartType.K:
                edges.extend(combinations(members, 2))
            elif t is PartType.Z and len(members) != 1:
                raise ValueError(f"Z part {i} must be a singleton")
    for i, j in rep.quotient.edges():
        for u in anchors[i]:
            for v in anchors[j]:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


_TWIN_FLIP = {PartType.K: PartType.D, PartType.D: PartType.K}


def lifted_local_complement(rep: FoliageRepresentation, a: int) -> FoliageRepresentation:
    """Representation of ``local_complement(g, a)`` from the representation alone.

    The partition is unchanged.  Complementing at a leaf does nothing.  At
    an axil the part flips AL to K; at a clique vertex K flips to AL (the
    isolated-edge part stays K, where complementation is a no-op); twin
    parts adjacent in the quotient swap K and D; and the quotient undergoes
    local complementation at the touched part.
    """
    part = rep.partition
    i = part.part_of(a)  # raises ValueError for a vertex out of range
    t, row, axils = rep.types[i], rep.quotient.rows[i], rep.axils
    if t is PartType.AL and a not in axils:
        return rep  # leaf: single-neighbour complementation is trivial
    if t is PartType.K and len(part.parts[i]) == 2 and row == 0:
        return rep  # isolated edge: same triviality
    types = list(rep.types)
    if t is PartType.AL:
        types[i], axils = PartType.K, tuple(v for v in axils if v != a)
    elif t is PartType.K:
        types[i], axils = PartType.AL, tuple(sorted(axils + (a,)))
    for j in iter_bits(row):
        types[j] = _TWIN_FLIP.get(types[j], types[j])
    return FoliageRepresentation(part, local_complement(rep.quotient, i), tuple(types), axils)


def normal_form(g: Graph) -> Graph:
    """Complement away every axil, in increasing vertex order.

    The result has no AL parts, so its representation carries an empty axil
    set and the entanglement shortcut applies.
    """
    if not isinstance(g, Graph):
        raise TypeError("part typing is defined for qubit graphs")
    _, types, anchors = _sweep(g)
    for a in sorted(a for t, a in zip(types, anchors) if t is PartType.AL):
        g = local_complement(g, a)
    return g


def saturation(g: Graph) -> SaturationReport:
    """Iterate graph -> foliage graph until the order stops falling."""
    chain = [g.n]
    while True:
        g = foliage_graph(g)
        if g.n == chain[-1]:
            return SaturationReport(tuple(chain))
        chain.append(g.n)


def _part_str(members: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in members) + "}"


def partition_text(part: FoliagePartition) -> str:
    return "parts=[" + ",".join(_part_str(p) for p in part.parts) + "]"


# maps the digits of a binary numeral to the selector bytes 0 and 1
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _quotient_edges(quotient: Graph, left: str, right: str) -> str:
    """Edges ``i < j`` in order as ``left + "i,j" + right``, comma separated.

    Each row above its diagonal is written in binary up to its last
    neighbour, lowest bit first, and selects the labels of its far ends
    with ``compress``, so no Python code runs per edge.  That costs a row
    its span, which chords make long, so a sparse quotient (``_is_sparse``)
    lists each row's far ends one by one instead.
    """
    labels = [f"{j}{right}" for j in range(quotient.n)]
    sparse = _is_sparse(quotient.n, sum(row.bit_count() for row in quotient.rows) // 2)
    chunks = []
    for i, row in enumerate(quotient.rows):
        upper = row >> (i + 1)
        if upper:
            if sparse:
                ends = [labels[i + 1 + j] for j in iter_bits(upper)]
            else:
                selector = format(upper, "b")[::-1].encode().translate(_SELECTORS)
                ends = compress(labels[i + 1 : i + 1 + upper.bit_length()], selector)
            chunks.append(f"{left}{i}," + f",{left}{i},".join(ends))
    return ",".join(chunks)


def _typed_parts(rep: FoliageRepresentation) -> Iterator[tuple[tuple[int, ...], PartType, int | None]]:
    """Each part's members, type and axil, the axil ``None`` off AL parts."""
    axils = set(rep.axils)
    for members, t in zip(rep.partition.parts, rep.types):
        axil = None
        if t is PartType.AL:
            (axil,) = [v for v in members if v in axils]
        yield members, t, axil


def representation_text(rep: FoliageRepresentation) -> str:
    """One-line form, e.g. ``parts=[{0,1}AL:a1,{2,3}AL:a2] edges=[(0,1)]``."""
    chunks = []
    for members, t, axil in _typed_parts(rep):
        s = _part_str(members) + t.value
        if axil is not None:
            s += f":a{axil}"
        chunks.append(s)
    return "parts=[" + ",".join(chunks) + "] edges=[" + _quotient_edges(rep.quotient, "(", ")") + "]"


def representation_json(rep: FoliageRepresentation) -> str:
    """Structured form with stable key order."""
    import json  # only this writer needs it, so other commands skip loading it

    parts = []
    for members, t, axil in _typed_parts(rep):
        entry: dict[str, object] = {"vertices": list(members), "type": t.value}
        if axil is not None:
            entry["axil"] = axil
        parts.append(entry)
    head = json.dumps({"n": rep.partition.n, "parts": parts}, separators=(",", ":"))
    return head[:-1] + ',"edges":[' + _quotient_edges(rep.quotient, "[", "]") + "]}"
