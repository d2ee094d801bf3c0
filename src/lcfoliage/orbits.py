"""LC orbits, equivalence classes, automorphism groups, and counting bounds.

The labelled orbit of a graph is its closure under local complementation at
every vertex.  Collapsing the orbit by graph isomorphism gives the LC class.

A class census closes a set of seed isomorphism types under single
complementation moves, breadth first over canonical keys, and joins every
type to its move images in a union-find; the classes are its components.
The census of order ``n`` is seeded from the classes of order ``n - 1``
(the Danielsen-Parker scheme): complementing at a vertex other than ``v``
commutes with deleting ``v``, so every class contains a representative of
an ``n - 1`` class with one new vertex ``v`` joined to a set of its
vertices.  Over all graphs any ``v`` will do and the set may be empty.
Over connected graphs ``v`` is a non-cut vertex, whose deletion leaves a
connected graph, and the set is nonempty.  The closure visits every type
of order ``n`` (every connected one for the connected census), so it is
also the one enumeration of isomorphism types.

Each type is kept as its canonical rows, with the orbits of the
automorphisms its canonical search found and a mark on every vertex whose
move is known to lead to a type already joined to it.  A type moves only
at the least vertex of each orbit without a mark: an automorphism carries
one move onto an isomorphic image, and the move at ``a`` that reaches a
type from type ``i`` is undone by the move at the canonical label of ``a``,
which leads back to ``i``.  So each edge of the graph of types is crossed
about once instead of from both ends and once per vertex.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, permutations
from math import factorial
from operator import getitem

from . import canonical
from .canonical import canonical_key
from .entanglement import entropy
from .foliage import FoliagePartition, foliage_partition, saturation
from .graph import (
    Graph,
    SizeGuardError,
    _lc_rows,
    _orbit,
    _relabel_rows,
    iter_bits,
    mask_of,
)

__all__ = [
    "OrbitReport",
    "AutReport",
    "LCClass",
    "ClassCensus",
    "SaturationStatsRow",
    "lc_orbit",
    "nonisomorphic_graphs",
    "lc_classes",
    "lc_automorphism_group",
    "aut_bounds",
    "aut_in_group",
    "saturation_stats",
    "symmetry_table",
    "partition_number",
    "class_lower_bound",
    "integer_partitions",
    "graph_for_partition",
]

_ORBIT_GUARD = 16
# labelled members an orbit BFS may hold; force does not lift this budget
_ORBIT_MEMBERS = 1 << 20
_CLASS_GUARD = 8


@dataclass(frozen=True)
class OrbitReport:
    representative: Graph
    labeled_size: int
    class_size: int
    members: tuple[tuple[int, ...], ...]  # adjacency rows, sorted

    def member_graphs(self) -> list[Graph]:
        return [Graph._wrap(self.representative.n, rows) for rows in self.members]


def _orbit_members(g: Graph) -> set[tuple[int, ...]]:
    """Rows of every labelled graph reachable from ``g`` by local complementations.

    Breadth first; raises ``SizeGuardError`` once the orbit passes
    ``_ORBIT_MEMBERS`` labelled members.
    """
    start = g.rows
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for rows in frontier:
            for a in range(g.n):
                nb = rows[a]
                if nb & (nb - 1) == 0:
                    continue  # degree 0 or 1: complementation is the identity
                image = _lc_rows(rows, a)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
                    if len(seen) > _ORBIT_MEMBERS:
                        raise SizeGuardError(
                            f"lc_orbit passed {_ORBIT_MEMBERS} labelled members"
                        )
        frontier = nxt
    return seen


def lc_orbit(g: Graph, force: bool = False) -> OrbitReport:
    """Breadth-first closure of ``g`` under single local complementations.

    ``class_size`` counts isomorphism types inside the orbit, which is the
    size of the whole LC class of ``g``.  Raises ``SizeGuardError`` for
    ``n`` above the guard unless forced, and in any case once the orbit
    passes ``_ORBIT_MEMBERS`` labelled members.
    """
    if g.n > _ORBIT_GUARD and not force:
        raise SizeGuardError(
            f"lc_orbit is limited to n <= {_ORBIT_GUARD} (force to override)"
        )
    members = tuple(sorted(_orbit_members(g)))
    types = {canonical_key(Graph._wrap(g.n, rows)) for rows in members}
    return OrbitReport(g, len(members), len(types), members)


# ---------------------------------------------------------------------------
# class census

# what a canonical search leaves of a graph: its rows, its canonical
# labelling and the automorphisms found on the way
_Searched = tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, ...]]]


def _extend_chunk(
    low: int, args: tuple[int, list[tuple[int, ...]]]
) -> dict[bytes, _Searched]:
    """Canonical key -> the first searched extension of that type.

    Each parent gets a new vertex ``n - 1`` joined to every neighbourhood
    mask from ``low`` up.
    """
    n, parents = args
    search = canonical._search
    found: dict[bytes, _Searched] = {}
    for rows in parents:
        for mask in range(low, 1 << (n - 1)):
            ext = tuple(
                rows[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)
            ) + (mask,)
            key, perm, auts = search(n, ext)
            if key not in found:
                found[key] = (ext, perm, auts)
    return found


def _pool_size(workers: int) -> int:
    """Worker processes to start for a request of ``workers``: 1 up to the CPU count."""
    return max(1, min(workers, os.cpu_count() or 1))


class _Pool:
    """One process pool of ``_pool_size(workers)`` processes, started on first need.

    A top-level census or enumeration and all of its recursive levels share
    one ``_Pool``; leaving its ``with`` block shuts the processes down.
    """

    def __init__(self, workers: int):
        self.size = _pool_size(workers)
        self._stack = ExitStack()
        self._executor = None

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def map(self, fn, n: int, items: list) -> list:
        """``fn((n, chunk))`` for consecutive chunks of ``items``, results in chunk order.

        The chunks go to the processes when there are at least as many items
        as processes, else ``items`` is one chunk run here.
        """
        if self.size == 1 or len(items) < self.size:
            return [fn((n, items))]
        if self._executor is None:
            # imported here: it pulls in multiprocessing, which serial
            # callers never need
            from concurrent.futures import ProcessPoolExecutor

            self._executor = self._stack.enter_context(
                ProcessPoolExecutor(max_workers=self.size)
            )
        chunk = (len(items) + self.size - 1) // self.size
        jobs = [(n, items[i : i + chunk]) for i in range(0, len(items), chunk)]
        return list(self._executor.map(fn, jobs))


def _merged(parts: list[dict]) -> dict:
    """The chunk dicts in order, earlier chunks winning on a shared key."""
    found, *rest = parts
    for part in rest:
        for key, value in part.items():
            found.setdefault(key, value)
    return found


@dataclass(frozen=True)
class LCClass:
    representative: Graph  # canonical, least key in the class
    size: int              # isomorphism types in the class


@dataclass(frozen=True)
class ClassCensus:
    n: int
    connected_only: bool
    classes: tuple[LCClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


# a census with the keys and canonical rows of the types its closure visited
_Closure = tuple[ClassCensus, list[bytes], list[tuple[int, ...]]]

_CENSUS_CACHE: dict[tuple[int, bool], _Closure] = {}


def _orbit_masks(
    n: int, perm: tuple[int, ...], auts: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Orbits of the group that ``auts`` generate, as masks of canonical labels.

    ``auts`` are automorphisms of a graph whose canonical labelling is ``perm``.
    """
    masks = []
    left = (1 << n) - 1
    while left:
        orbit = _orbit((left & -left).bit_length() - 1, auts, getitem)
        left ^= mask_of(orbit)
        masks.append(mask_of(perm[v] for v in orbit))
    return tuple(masks)


def _moves_chunk(
    args: tuple[int, list[tuple[bytes, tuple[int, ...], tuple[int, ...], int]]]
) -> tuple[list[list[tuple[bytes, int]]], dict[bytes, _Searched]]:
    """Move each type once per automorphism orbit that may still reach a new edge.

    A type comes as ``(key, canonical rows, orbit masks, marks)``; a marked
    vertex's move is known to lead to a type already joined to it, and so
    does every move in its orbit.  Each other orbit of a vertex of degree at
    least two is moved at its least vertex and the image searched.  Returns,
    per type, ``(key, back)`` for every move, where the move at ``back`` on
    the canonical rows of ``key`` leads back to the type, and the searched
    image of every key first reached here that is not in the chunk.  The
    marks found for types of the chunk count at once, for later types and
    for later orbits of the same type.
    """
    n, types = args
    search = canonical._search
    where = {key: t for t, (key, _, _, _) in enumerate(types)}
    marks = [mark for _, _, _, mark in types]
    moves = []
    reached: dict[bytes, _Searched] = {}
    for t, (_, rows, orbits, _) in enumerate(types):
        out = []
        for orbit in orbits:
            if orbit & marks[t]:
                continue
            a = (orbit & -orbit).bit_length() - 1
            nb = rows[a]
            if nb & (nb - 1) == 0:
                continue  # degree 0 or 1: complementation is the identity
            image = _lc_rows(rows, a)
            key, perm, auts = search(n, image)
            back = perm[a]
            s = where.get(key)
            if s is not None:
                marks[s] |= 1 << back
            elif key not in reached:
                reached[key] = (image, perm, auts)
            out.append((key, back))
        moves.append(out)
    return moves, reached


def lc_classes(
    n: int,
    connected_only: bool = True,
    force: bool = False,
    workers: int = 1,
) -> ClassCensus:
    """Partition the isomorphism types of order ``n`` into LC classes.

    The seeds are every one-vertex extension of the representatives of the
    census of order ``n - 1``: the new vertex is joined to every nonempty
    neighbourhood for the connected census, and to every neighbourhood,
    the empty one included, for the census over all graphs.  A
    level-synchronous BFS closes the seeds under single complementation
    moves, joining each type to its images; every class then holds all of
    its types.  A type is moved once per orbit of its automorphisms, and not
    at a vertex whose move leads back to a type it is already joined to.
    A class is represented by its canonical graph of least key and sized by
    its type count; classes are ordered by that key.  Censuses are cached
    per process; seeds and BFS levels are spread over ``workers``
    processes, one pool for the whole call, and each process's chunk of a
    level shares its marks only within that chunk.  Raises ``ValueError``
    for ``n`` below 1.
    """
    if n > _CLASS_GUARD and not force:
        raise SizeGuardError(
            f"lc_classes is limited to n <= {_CLASS_GUARD} (force to override)"
        )
    with _Pool(workers) as pool:
        return _census(n, connected_only, pool)[0]


def nonisomorphic_graphs(n: int, connected: bool = False, workers: int = 1) -> list[Graph]:
    """All isomorphism types of order ``n``, canonical, sorted by key.

    These are the types that the class census of order ``n`` visits (see
    ``lc_classes``), read from the same per-process cache, so no size guard
    applies.
    """
    with _Pool(workers) as pool:
        _, keys, rows_of = _census(n, connected, pool)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [Graph._wrap(n, rows_of[i]) for i in order]


def _census(n: int, connected_only: bool, pool: _Pool) -> _Closure:
    if n < 1:
        raise ValueError("need at least one vertex")
    cached = _CENSUS_CACHE.get((n, connected_only))
    if cached is not None:
        return cached
    if n == 1:
        reps, low = [()], 0  # the one extension of the empty graph
    else:
        smaller = _census(n - 1, connected_only, pool)[0]
        reps = [cls.representative.rows for cls in smaller.classes]
        low = 1 if connected_only else 0
    seeds = _merged(pool.map(partial(_extend_chunk, low), n, reps))
    keys: list[bytes] = []
    rows_of: list[tuple[int, ...]] = []  # canonical rows
    orbits_of: list[tuple[int, ...] | None] = []  # dropped once moved
    marks: list[int] = []
    index: dict[bytes, int] = {}
    parent: list[int] = []

    def add(key: bytes, image: tuple[int, ...], perm: tuple[int, ...], auts) -> int:
        j = index[key] = len(keys)
        keys.append(key)
        rows_of.append(_relabel_rows(image, perm))
        orbits_of.append(_orbit_masks(n, perm, auts))
        marks.append(0)
        parent.append(j)
        return j

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    frontier = [add(key, *searched) for key, searched in seeds.items()]
    while frontier:
        batch = [(keys[i], rows_of[i], orbits_of[i], marks[i]) for i in frontier]
        results = pool.map(_moves_chunk, n, batch)
        reached = _merged([found for _, found in results])
        nxt = []
        for i, out in zip(frontier, chain.from_iterable(moves for moves, _ in results)):
            orbits_of[i] = None
            for key, back in out:
                j = index.get(key)
                if j is None:
                    j = add(key, *reached[key])
                    nxt.append(j)
                marks[j] |= 1 << back
                union(i, j)
        frontier = nxt

    groups: dict[int, list[int]] = {}
    for i in range(len(keys)):
        groups.setdefault(find(i), []).append(i)
    leads = sorted(
        (min(keys[i] for i in members), len(members)) for members in groups.values()
    )
    classes = tuple(
        LCClass(Graph._wrap(n, rows_of[index[key]]), size) for key, size in leads
    )
    closure = _CENSUS_CACHE[(n, connected_only)] = (
        ClassCensus(n, connected_only, classes), keys, rows_of
    )
    return closure


# ---------------------------------------------------------------------------
# LC automorphisms

@dataclass(frozen=True)
class AutReport:
    order: int
    generators: tuple[tuple[int, ...], ...]
    aut_in_order: int
    aut_out_upper_order: int
    labeled_size: int
    class_size: int
    interplay: Fraction  # order * class_size / labeled_size


def _greedy_generators(elements: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    ident = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    group: set[tuple[int, ...]] = {ident}
    for p in elements:
        if p not in group:
            gens.append(p)
            group = _orbit(ident, gens, lambda q, r: tuple(map(q.__getitem__, r)))
    return gens


def _lc_automorphisms(g: Graph, members: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every permutation ``sigma`` with ``_relabel_rows(g.rows, sigma)`` in ``members``.

    Cut rank (the entropy of a vertex set) is invariant under local
    complementation, so an LC automorphism maps every pair and every triple
    of vertices onto a set of the same cut rank.  A depth-first search
    assigns ``sigma[0], sigma[1], ...`` in increasing order, which yields
    the permutations in lexicographic order, and drops a prefix as soon as
    an assigned pair or triple has an image of another cut rank.  A check
    on which every pair (or every triple) agrees cannot prune and is
    skipped; with neither check left every permutation is a candidate.
    Only complete candidates are relabelled and looked up.
    """
    n = g.n
    rank = {
        m: entropy(g, m)
        for size in (2, 3)
        for m in map(mask_of, combinations(range(n), size))
    }
    check_pairs = len({rank[m] for m in rank if m.bit_count() == 2}) > 1
    check_triples = len({rank[m] for m in rank if m.bit_count() == 3}) > 1
    rows = g.rows
    relabel = _relabel_rows
    if not (check_pairs or check_triples):
        return [p for p in permutations(range(n)) if relabel(rows, p) in members]
    # per position k, the cut ranks of {j, k} for j < k and of {i, j, k}
    # for i < j < k, pairs (i, j) ordered by j and then i
    pair_want = [
        [rank[1 << j | 1 << k] for j in range(k)] if check_pairs else []
        for k in range(n)
    ]
    triple_want = [
        [rank[1 << i | 1 << j | 1 << k] for j in range(k) for i in range(j)]
        if check_triples
        else []
        for k in range(n)
    ]
    sigma = [0] * n
    bits = [0] * n  # 1 << sigma[j]
    pair_bits = [0] * (n * (n - 1) // 2)  # images of the pairs, in triple_want order
    found: list[tuple[int, ...]] = []

    def extend(k: int, free: int) -> None:
        if k == n:
            if relabel(rows, sigma) in members:
                found.append(tuple(sigma))
            return
        pairs, triples = pair_want[k], triple_want[k]
        start = k * (k - 1) // 2
        for x in iter_bits(free):
            bx = 1 << x
            for b, want in zip(bits, pairs):
                if rank[b | bx] != want:
                    break
            else:
                for m, want in zip(pair_bits, triples):
                    if rank[m | bx] != want:
                        break
                else:
                    sigma[k] = x
                    bits[k] = bx
                    if check_triples:
                        for j in range(k):
                            pair_bits[start + j] = bits[j] | bx
                    extend(k + 1, free ^ bx)

    extend(0, (1 << n) - 1)
    return found


def _orbit_count(members: set[tuple[int, ...]], gens: list[tuple[int, ...]]) -> int:
    """Orbits of the group generated by ``gens`` on ``members`` (relabelled rows)."""
    left = set(members)
    count = 0
    while left:
        left -= _orbit(left.pop(), gens, lambda sigma, rows: _relabel_rows(rows, sigma))
        count += 1
    return count


def lc_automorphism_group(g: Graph, force: bool = False) -> AutReport:
    """Permutations whose relabelling of ``g`` stays inside its LC orbit.

    The labelled orbit is enumerated once.  Candidate permutations come
    from a backtracking search that keeps the cut rank of every vertex pair
    and triple, and each survivor is checked against the orbit.  Two orbit
    members are isomorphic exactly when an LC automorphism maps one onto
    the other, so ``class_size`` is the number of orbits of the group on the
    members.  Kept to small orders: the orbit and the search both grow
    quickly with ``n``.
    """
    if g.n > _CLASS_GUARD and not force:
        raise SizeGuardError(
            f"lc_automorphism_group is limited to n <= {_CLASS_GUARD} (force to override)"
        )
    return _aut_report(g, None)


def _aut_report(g: Graph, class_size: int | None) -> AutReport:
    """``lc_automorphism_group(g)`` with the class size given, or counted if ``None``."""
    members = _orbit_members(g)
    auts = _lc_automorphisms(g, members)
    gens = _greedy_generators(auts, g.n)
    if class_size is None:
        class_size = _orbit_count(members, gens)
    part = foliage_partition(g)
    lower, upper = aut_bounds(part)
    return AutReport(
        order=len(auts),
        generators=tuple(gens),
        aut_in_order=lower,
        aut_out_upper_order=upper // lower,
        labeled_size=len(members),
        class_size=class_size,
        interplay=Fraction(len(auts) * class_size, len(members)),
    )


def aut_bounds(part: FoliagePartition) -> tuple[int, int]:
    """Lower and upper bounds on the LC-automorphism order from part sizes.

    Permuting within parts is always allowed; on top of that, at most the
    permutations of equally-sized parts.
    """
    sizes = part.sizes()
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    lower = 1
    upper_extra = 1
    for s, t in counts.items():
        lower *= factorial(s) ** t
        upper_extra *= factorial(t)
    return lower, lower * upper_extra


def aut_in_group(part: FoliagePartition) -> list[tuple[int, ...]]:
    """Adjacent-transposition generators of the within-part permutations."""
    n = part.n
    gens = []
    for members in part.parts:
        for a, b in zip(members, members[1:]):
            p = list(range(n))
            p[a], p[b] = b, a
            gens.append(tuple(p))
    return gens


# ---------------------------------------------------------------------------
# census-level tables

@dataclass(frozen=True)
class SaturationStatsRow:
    n: int
    class_count: int
    avg_time: Fraction
    avg_size: Fraction
    reducible: Fraction
    fully_reducible: Fraction

    def two_decimals(self) -> tuple[str, str, str, str]:
        return (
            _fmt2(self.avg_time),
            _fmt2(self.avg_size),
            _fmt2(self.reducible),
            _fmt2(self.fully_reducible),
        )


def _fmt2(x: Fraction) -> str:
    cents = round(x * 100)
    return f"{cents // 100}.{cents % 100:02d}"


def saturation_stats(n: int, force: bool = False, workers: int = 1) -> SaturationStatsRow:
    """Average saturation behaviour over the connected LC classes of order ``n``."""
    census = lc_classes(n, connected_only=True, force=force, workers=workers)
    times = []
    sizes = []
    reducible = 0
    fully = 0
    for cls in census.classes:
        rep = cls.representative
        sat = saturation(rep)
        times.append(sat.time)
        sizes.append(sat.size)
        if sat.time > 0:  # the first partition is not trivial
            reducible += 1
        if sat.size == 1:
            fully += 1
    count = census.count
    return SaturationStatsRow(
        n=n,
        class_count=count,
        avg_time=Fraction(sum(times), count),
        avg_size=Fraction(sum(sizes), count),
        reducible=Fraction(reducible, count),
        fully_reducible=Fraction(fully, count),
    )


def symmetry_table(
    n: int, connected_only: bool = True, force: bool = False, workers: int = 1
) -> list[tuple]:
    """Per-class symmetry rows: partition shape, aut orders, orbit sizes.

    Columns: class_id, n, partition, aut_in, aut_out_upper, aut_order, L, C, I.
    The class size C is the census's own.
    """
    census = lc_classes(n, connected_only=connected_only, force=force, workers=workers)
    rows = []
    for cid, cls in enumerate(census.classes, start=1):
        rep = cls.representative
        report = _aut_report(rep, cls.size)
        shape = "+".join(
            str(s) for s in sorted(foliage_partition(rep).sizes())
        )
        rows.append(
            (
                cid,
                n,
                shape,
                report.aut_in_order,
                report.aut_out_upper_order,
                report.order,
                report.labeled_size,
                report.class_size,
                _fmt2(report.interplay),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# integer partitions and the counting bound

_PARTITION_NUMBERS = [1]


def partition_number(n: int) -> int:
    """Number of integer partitions of ``n``, by the pentagonal recurrence."""
    if n < 0:
        raise ValueError("partition numbers are defined for n >= 0")
    while len(_PARTITION_NUMBERS) <= n:
        m = len(_PARTITION_NUMBERS)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _PARTITION_NUMBERS[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _PARTITION_NUMBERS[m - g2]
            k += 1
        _PARTITION_NUMBERS.append(total)
    return _PARTITION_NUMBERS[n]


def class_lower_bound(n: int) -> int:
    """Lower bound on the number of connected LC classes of order ``n``.

    Almost every integer partition of ``n`` is realised as the part-size
    profile of some connected graph, and different profiles can never be LC
    equivalent.  The unrealisable profiles are exactly ``[1, n-1]``,
    ``[1, 1, n-2]``, and ``[1, 1, 1, n-3]``, of which ``min(3, n - 1)``
    exist for a given ``n``.
    """
    if n < 2:
        raise ValueError("bound is defined for n >= 2")
    return partition_number(n) - min(3, n - 1)


def integer_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of ``n`` as non-decreasing tuples, lexicographic."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, minimum: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(minimum, remaining + 1):
            rec(remaining - first, first, prefix + (first,))

    rec(n, 1, ())
    return out


def graph_for_partition(sizes: tuple[int, ...] | list[int]) -> Graph:
    """A connected graph whose foliage parts have exactly these sizes.

    Builds one star per part and joins the star centres in a cycle (a single
    edge for two parts).  The handful of profiles where every part except
    one is a singleton and there are 2 to 4 parts admit no graph at all;
    those raise.
    """
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    if list(sizes) != sorted(sizes):
        raise ValueError("part sizes must be non-decreasing")
    k = len(sizes)
    if 2 <= k <= 4 and all(s == 1 for s in sizes[:-1]):
        raise ValueError(
            f"no connected graph has foliage part sizes {list(sizes)}"
        )
    n = sum(sizes)
    edges = []
    centres = []
    offset = 0
    for s in sizes:
        centres.append(offset)
        for leaf in range(offset + 1, offset + s):
            edges.append((offset, leaf))
        offset += s
    if k == 2:
        edges.append((centres[0], centres[1]))
    elif k >= 3:
        for i in range(k):
            edges.append((centres[i], centres[(i + 1) % k]))
    return Graph.from_edges(n, edges)
