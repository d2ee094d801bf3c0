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
open neighbourhood, adjacent ones their closed neighbourhood (over Z_d the
weights must also be proportional).  So the partition and the quotient graph
each take O(n + m) big-int operations on the bitmask rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .graph import Graph, WeightedGraph, _support_rows, iter_bits, local_complement, mask_of

__all__ = [
    "PartType",
    "FoliagePartition",
    "FoliageRepresentation",
    "SaturationReport",
    "vertices_related",
    "foliage_partition",
    "foliage_set",
    "foliage_graph",
    "foliage_representation",
    "reconstruct_graph",
    "lifted_local_complement",
    "normal_form",
    "saturation",
    "partition_text",
    "representation_text",
    "representation_json",
]


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

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class FoliageRepresentation:
    """Partition plus quotient graph, part types, and axil vertices."""

    partition: FoliagePartition
    quotient: Graph
    types: tuple[PartType, ...]
    axils: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.partition.n


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


def _weighted_rows_dependent(g: WeightedGraph, v: int, w: int, excl: int) -> bool:
    sv = g.supports[v] & ~excl
    sw = g.supports[w] & ~excl
    if sv == 0 or sw == 0:
        return True
    if sv != sw:
        return False
    wv = g.weights[v]
    ww = g.weights[w]
    d = g.d
    ratio = -1
    for u in iter_bits(sv):
        if ratio < 0:
            ratio = (wv[u] * pow(ww[u], -1, d)) % d
        elif wv[u] != (ratio * ww[u]) % d:
            return False
    return True


def vertices_related(g: Graph | WeightedGraph, v: int, w: int) -> bool:
    """Whether ``v`` and ``w`` fall in the same foliage part.

    Distinct vertices only; a vertex is always related to itself but asking
    is almost certainly a bug, so that case raises.
    """
    if v == w:
        raise ValueError("vertices must be distinct")
    if not (0 <= v < g.n and 0 <= w < g.n):
        raise ValueError("vertex out of range")
    part = foliage_partition(g)
    return part.part_of(v) == part.part_of(w)


def foliage_partition(g: Graph | WeightedGraph) -> FoliagePartition:
    """Compute the foliage partition in one sweep over the vertices.

    The least unassigned vertex is the next pivot.  An isolated pivot is a
    singleton; a leaf joins its neighbour and that neighbour's other leaves;
    a vertex with leaves takes them.  Otherwise the pivot's part is its twin
    class: vertices of degree at least 2 are related iff their open
    neighbourhoods agree (non-adjacent twins) or their closed ones do
    (adjacent twins), plus proportional weights over Z_d.  Twin classes come
    from bucketing the neighbourhood masks, so the whole sweep costs
    O(n + m) big-int operations.
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
    # vertices that share such a key have whole masks compared.
    first: dict[int, int] = {}  # (top, head, closed?) packed -> first vertex, -1 once shared
    by_mask: dict[int, int] = {}  # open or closed mask -> first vertex

    def compare(v: int, closed: int) -> None:
        u = by_mask.setdefault(sup[v] | 1 << v if closed else sup[v], v)
        if u != v:
            cls = twins.setdefault(u, [u])
            cls.append(v)
            twins[v] = cls

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
                if u >= 0:
                    compare(u, key & 1)
                    first[key] = -1
                compare(v, key & 1)

    qubit = isinstance(g, Graph)
    assigned = [False] * n
    parts = []
    for v in range(n):
        if assigned[v]:
            continue
        if deg[v] == 0:
            part = (v,)
        elif deg[v] == 1:
            w = sup[v].bit_length() - 1
            part = sorted([w, *leaves[w]])
        elif v in leaves:
            part = [v, *leaves[v]]
        else:
            part = twins.get(v, (v,))
            if not qubit:
                # over Z_d, support twins must also have proportional weights
                part = [
                    w
                    for w in part
                    if w == v
                    or (not assigned[w] and _weighted_rows_dependent(g, v, w, (1 << v) | (1 << w)))
                ]
        for w in part:
            assigned[w] = True
        parts.append(tuple(part))
    return FoliagePartition(n, tuple(parts))


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
    return _quotient(_support_rows(g), foliage_partition(g))


def _quotient(sup: tuple[int, ...], part: FoliagePartition) -> Graph:
    """Parts adjacent iff some edge joins them.

    Every edge that leaves a part leaves from its anchor: the axil of a star
    part, or any member of a twin class, since twins share their outside
    neighbours.  So row ``i`` is the anchor row of part ``i`` mapped through
    the vertex-to-part map, O(n + m) big-int operations in all.  A trivial
    partition keeps the rows.
    """
    if part.is_trivial:
        return Graph._wrap(part.n, sup)
    owner = part._index
    rows = []
    for i, members in enumerate(part.parts):
        anchor = max(members, key=lambda v: sup[v].bit_count())  # a star's axil
        row = 0
        for u in iter_bits(sup[anchor]):
            row |= 1 << owner[u]
        rows.append(row & ~(1 << i))
    return Graph._wrap(len(rows), tuple(rows))


def foliage_representation(g: Graph) -> FoliageRepresentation:
    """Partition with part types, axils, and the quotient graph."""
    if not isinstance(g, Graph):
        raise TypeError("part typing is defined for qubit graphs")
    part = foliage_partition(g)
    types = []
    axils = []
    for members in part.parts:
        if len(members) == 1:
            types.append(PartType.Z)
            continue
        leaf_members = [v for v in members if g.degree(v) == 1]
        if leaf_members:
            if len(leaf_members) == len(members):
                # both vertices are leaves: an isolated edge, labelled K
                types.append(PartType.K)
                continue
            (axil,) = [v for v in members if g.degree(v) > 1]
            types.append(PartType.AL)
            axils.append(axil)
        else:
            u, w = members[0], members[1]
            types.append(PartType.K if g.has_edge(u, w) else PartType.D)
    return FoliageRepresentation(
        part, _quotient(g.rows, part), tuple(types), tuple(sorted(axils))
    )


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
                for a in range(len(members)):
                    for b in range(a + 1, len(members)):
                        edges.append((members[a], members[b]))
            elif t is PartType.Z and len(members) != 1:
                raise ValueError(f"Z part {i} must be a singleton")
    for i, j in rep.quotient.edges():
        for u in anchors[i]:
            for v in anchors[j]:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def lifted_local_complement(rep: FoliageRepresentation, a: int) -> FoliageRepresentation:
    """Representation of ``local_complement(g, a)`` from the representation alone.

    The partition is unchanged.  Complementing at a leaf does nothing.  At
    an axil the part flips AL to K; at a clique vertex K flips to AL (the
    isolated-edge part stays K, where complementation is a no-op); twin
    parts adjacent in the quotient swap K and D; and the quotient undergoes
    local complementation at the touched part.
    """
    part = rep.partition
    if not (0 <= a < part.n):
        raise ValueError(f"vertex {a} out of range")
    i = part.part_of(a)
    t = rep.types[i]
    axil_set = set(rep.axils)
    if t is PartType.AL and a not in axil_set:
        return rep  # leaf: single-neighbour complementation is trivial
    if t is PartType.K and len(part.parts[i]) == 2 and rep.quotient.rows[i] == 0:
        return rep  # isolated edge: same triviality
    types = list(rep.types)
    if t is PartType.AL:
        types[i] = PartType.K
        axil_set.discard(a)
    elif t is PartType.K:
        types[i] = PartType.AL
        axil_set.add(a)
    for j in iter_bits(rep.quotient.rows[i]):
        if types[j] is PartType.K:
            types[j] = PartType.D
        elif types[j] is PartType.D:
            types[j] = PartType.K
    return FoliageRepresentation(
        part,
        local_complement(rep.quotient, i),
        tuple(types),
        tuple(sorted(axil_set)),
    )


def normal_form(g: Graph) -> Graph:
    """Complement away every axil, in increasing vertex order.

    The result has no AL parts, so its representation carries an empty axil
    set and the entanglement shortcut applies.
    """
    rep = foliage_representation(g)
    out = g
    for a in rep.axils:
        out = local_complement(out, a)
    return out


def saturation(g: Graph) -> SaturationReport:
    """Iterate graph -> foliage graph until the partition becomes trivial."""
    chain = [g.n]
    cur = g
    while True:
        part = foliage_partition(cur)
        if len(part.parts) == cur.n:
            return SaturationReport(tuple(chain))
        cur = _quotient(cur.rows, part)
        chain.append(cur.n)


def _part_str(members: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in members) + "}"


def partition_text(part: FoliagePartition) -> str:
    return "parts=[" + ",".join(_part_str(p) for p in part.parts) + "]"


def representation_text(rep: FoliageRepresentation) -> str:
    """One-line form, e.g. ``parts=[{0,1}AL:a1,{2,3}AL:a2] edges=[(0,1)]``."""
    axil_set = set(rep.axils)
    chunks = []
    for i, members in enumerate(rep.partition.parts):
        s = _part_str(members) + rep.types[i].value
        if rep.types[i] is PartType.AL:
            (axil,) = [v for v in members if v in axil_set]
            s += f":a{axil}"
        chunks.append(s)
    edges = ",".join(f"({i},{j})" for i, j in rep.quotient.edges())
    return "parts=[" + ",".join(chunks) + "] edges=[" + edges + "]"


def representation_json(rep: FoliageRepresentation) -> str:
    """Structured form with stable key order."""
    axil_set = set(rep.axils)
    parts = []
    for i, members in enumerate(rep.partition.parts):
        entry: dict[str, object] = {
            "vertices": list(members),
            "type": rep.types[i].value,
        }
        if rep.types[i] is PartType.AL:
            (axil,) = [v for v in members if v in axil_set]
            entry["axil"] = axil
        parts.append(entry)
    doc = {
        "n": rep.partition.n,
        "parts": parts,
        "edges": [list(e) for e in rep.quotient.edges()],
    }
    return json.dumps(doc, separators=(",", ":"))
