"""LC orbits, equivalence classes, automorphism groups, and counting bounds.

The labelled orbit of a graph is its closure under local complementation at
every vertex.  Collapsing the orbit by graph isomorphism gives the LC class.
The orbit BFS and the LC-automorphism pass over its tree hold each member
packed into one int, in the format ``_Packed`` defines and complements.

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

Each type is kept as its canonical key, which packs its canonical rows
(``canonical._unpack`` reads them back), with the orbits of the
automorphisms its canonical search found and a mark on every vertex whose
move is known to lead to a type already joined to it.  A type moves only
at the least vertex of each orbit without a mark: an automorphism carries
one move onto an isomorphic image, and the move at ``a`` that reaches a
type from type ``i`` is undone by the move at the canonical label of ``a``,
which leads back to ``i``.  So each edge of the graph of types is crossed
about once instead of from both ends and once per vertex.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial

from . import canonical
from .foliage import FoliagePartition, foliage_partition, saturation
from .graph import Graph, SizeGuardError, _find, _guard, _lc_rows, _relabel_rows, iter_bits

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
    "saturation_stats",
    "symmetry_table",
    "partition_number",
    "class_lower_bound",
    "graph_for_partition",
]

_ORBIT_GUARD = 16
# labelled members an orbit BFS may hold; force does not lift this budget
_ORBIT_MEMBERS = 1 << 20
_CLASS_GUARD = 8
# LC automorphisms a report may list, 9!: no graph with n <= 9 has more;
# force does not lift this budget
_AUT_ELEMENTS = 362880


@dataclass(frozen=True)
class OrbitReport:
    representative: Graph
    labeled_size: int
    class_size: int
    members: tuple[tuple[int, ...], ...]  # adjacency rows, sorted

    def member_graphs(self) -> list[Graph]:
        return [Graph._wrap(self.representative.n, rows) for rows in self.members]


class _Shared(dict):
    """Maps each row value met to one int object holding it."""

    __slots__ = ()

    def __missing__(self, row: int) -> int:
        self[row] = row
        return row


class _Packed(dict):
    """Labelled graphs on ``n`` vertices as ints of n^2 bits; as a dict, the bits each move flips.

    Row ``v`` is the ``n`` bits from ``shifts[v] = n(n - 1 - v)`` up, so row
    0 is the highest and int order is the order of the row tuples.  The
    local complementation of ``m`` at ``a`` is ``m ^ packed[m >> shifts[a]
    & full]``, one big-int expression the orbit loops write inline.  The
    entry for a neighbourhood ``nb`` is ``spread * nb ^ diag``: ``spread``
    puts bit ``v`` of ``nb`` at bit ``shifts[v]``, the lowest of row ``v``,
    so the product is the outer product N(a) x N(a) with no carries, and
    ``diag`` clears the diagonal bits that it sets.  Entries are made on
    demand, one per neighbourhood met; no table has 2^n entries.

    This beats ``_lc_rows`` on an orbit of many small graphs, but a single
    move on a large graph pays far more to pack and unpack than ``_lc_rows``
    costs, so ``local_complement`` and the census moves keep the tuples.
    ``unpack`` hands out one int object per row value, so that many
    unpacked members share their rows.
    """

    __slots__ = ("n", "full", "shifts", "_rows")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.full = (1 << n) - 1
        self.shifts = tuple(n * (n - 1 - v) for v in range(n))
        self._rows = _Shared()

    def __missing__(self, nb: int) -> int:
        spread = diag = 0
        for v in iter_bits(nb):
            low = self.shifts[v]
            spread |= 1 << low
            diag |= 1 << (low + v)
        out = self[nb] = spread * nb ^ diag
        return out

    def pack(self, rows: Sequence[int]) -> int:
        m = 0
        for row in rows:
            m = m << self.n | row
        return m

    def unpack(self, m: int) -> tuple[int, ...]:
        full, shared = self.full, self._rows
        return tuple([shared[m >> s & full] for s in self.shifts])


# an orbit's BFS tree: (packed, index, members, parent, move)
_Tree = tuple[_Packed, dict, list, array, array]


def _orbit_members(g: Graph) -> _Tree:
    """The BFS tree of the labelled graphs reachable from ``g`` by local complementations.

    ``(packed, index, members, parent, move)``: each member is one int,
    packed by ``packed``, so its local complementation is one big-int
    expression.  ``members[0]`` packs ``g.rows`` and each later member ``h``
    is the complementation of ``members[parent[h]]`` at ``move[h]``, with
    ``parent[h] < h``; ``index`` numbers the members.  Raises
    ``SizeGuardError`` once the orbit passes ``_ORBIT_MEMBERS`` members.
    """
    packed = _Packed(g.n)
    full = packed.full
    root = packed.pack(g.rows)
    index = {root: 0}
    members = [root]
    parent, move = array("I", [0]), array("I", [0])
    for i, m in enumerate(members):  # the list grows while it is read
        back = move[i] if i else -1  # complementing twice at a vertex is the identity
        for a, shift in enumerate(packed.shifts):
            nb = m >> shift & full
            if nb & (nb - 1) == 0 or a == back:
                continue  # degree 0 or 1, or back to the parent
            image = m ^ packed[nb]
            if image not in index:
                index[image] = len(members)
                members.append(image)
                parent.append(i)
                move.append(a)
                if len(members) > _ORBIT_MEMBERS:
                    raise SizeGuardError(
                        f"lc_orbit passed {_ORBIT_MEMBERS} labelled members"
                    )
    return packed, index, members, parent, move


def lc_orbit(g: Graph, force: bool = False) -> OrbitReport:
    """Breadth-first closure of ``g`` under single local complementations.

    ``class_size`` counts isomorphism types inside the orbit, the size of
    the LC class of ``g``, as orbits of its LC automorphisms on the orbit's
    BFS tree: one union-find pass over the tree (``_lc_group``) joins each
    member with its images as the generators are found and counts the
    classes.  The tree holds each member packed into one int; the members
    are sorted as ints, which is the order of their rows, and unpacked once
    at the end.  Raises ``SizeGuardError`` for ``n`` above the guard unless
    forced, and in any case once the orbit passes ``_ORBIT_MEMBERS`` members.
    """
    _guard("lc_orbit", g.n, _ORBIT_GUARD, force)
    packed, index, members, _, _ = tree = _orbit_members(g)
    class_size = _lc_group(g, tree)[1]
    index.clear()  # the unpacked rows below need the room
    members.sort()
    return OrbitReport(g, len(members), class_size, tuple(map(packed.unpack, members)))


# ---------------------------------------------------------------------------
# class census

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


# a census with the canonical keys of the types its closure visited
_Closure = tuple[ClassCensus, list[bytes]]

_CENSUS_CACHE: dict[tuple[int, bool], _Closure] = {}


def _orbit_masks(
    n: int, perm: tuple[int, ...], auts: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Orbits of the group that ``auts`` generate, as masks of canonical labels.

    ``auts`` are automorphisms of a graph whose canonical labelling is ``perm``.
    """
    up = list(range(n))
    for a in auts:
        for x, y in enumerate(a):
            up[_find(up, x)] = _find(up, y)
    masks: dict[int, int] = {}  # by root, in order of each orbit's least vertex
    for v in range(n):
        root = _find(up, v)
        masks[root] = masks.get(root, 0) | 1 << perm[v]
    return tuple(masks.values())


def _moves(
    n: int, rows: tuple[int, ...], orbits: tuple[int, ...], marks: array, t: int
) -> Iterator[tuple]:
    """Move a type once per automorphism orbit that may still reach a new edge.

    The type has canonical rows ``rows``, orbit masks ``orbits`` and marks
    ``marks[t]``: a marked vertex's move is known to lead to a type already
    joined to it, and so does every move in its orbit.  Each other orbit of
    a vertex of degree at least two is moved at its least vertex, and
    ``(key, back, perm, auts)`` is yielded from the search of the image,
    where the move at ``back`` on the canonical rows of ``key`` leads back
    to the type.  ``marks[t]`` is read again before each orbit, so a
    mark the caller sets between yields holds for the later orbits.
    """
    search = canonical._search
    for orbit in orbits:
        if orbit & marks[t]:
            continue
        a = (orbit & -orbit).bit_length() - 1
        nb = rows[a]
        if nb & (nb - 1) == 0:
            continue  # degree 0 or 1: complementation is the identity
        key, perm, auts = search(n, _lc_rows(rows, a))
        yield key, perm[a], perm, auts


def lc_classes(n: int, connected_only: bool = True, force: bool = False) -> ClassCensus:
    """Partition the isomorphism types of order ``n`` into LC classes.

    The seeds are every one-vertex extension of the representatives of the
    census of order ``n - 1``: the new vertex is joined to every nonempty
    neighbourhood for the connected census, and to every neighbourhood,
    the empty one included, for the census over all graphs.  One FIFO
    pass over the types closes the seeds under single complementation
    moves, joining each type to its images; every class then holds all of
    its types.  A type is moved once per orbit of its automorphisms, and not
    at a vertex whose move leads back to a type it is already joined to.
    A class is represented by its canonical graph of least key and sized by
    its type count; classes are ordered by that key.  Censuses are cached
    per process.  Raises ``ValueError`` for ``n`` below 1.
    """
    _guard("lc_classes", n, _CLASS_GUARD, force)
    return _census(n, connected_only)[0]


def nonisomorphic_graphs(n: int, connected: bool = False) -> list[Graph]:
    """All isomorphism types of order ``n``, canonical, sorted by key.

    These are the types that the class census of order ``n`` visits (see
    ``lc_classes``), read from the same per-process cache.  A cached census
    of any order is read; computing one above the census guard raises
    ``SizeGuardError``: the type count grows like 2^(n(n-1)/2) / n!.
    """
    if n > _CLASS_GUARD and (n, connected) not in _CENSUS_CACHE:
        raise SizeGuardError(
            f"nonisomorphic_graphs is limited to n <= {_CLASS_GUARD} until "
            f"lc_classes({n}, connected_only={connected}, force=True) has run"
        )
    _, keys = _census(n, connected)
    return [Graph._wrap(n, canonical._unpack(key)) for key in sorted(keys)]


def _census(n: int, connected_only: bool) -> _Closure:
    if n < 1:
        raise ValueError("need at least one vertex")
    cached = _CENSUS_CACHE.get((n, connected_only))
    if cached is not None:
        return cached
    if n == 1:
        reps, low = [()], 0  # the one extension of the empty graph
    else:
        smaller = _census(n - 1, connected_only)[0]
        reps = [cls.representative.rows for cls in smaller.classes]
        low = 1 if connected_only else 0
    search, unpack = canonical._search, canonical._unpack
    keys: list[bytes] = []
    orbits_of: list[tuple[int, ...] | None] = []  # dropped once moved
    marks = array("I")
    index: dict[bytes, int] = {}
    parent = array("I")

    def add(key: bytes, perm: tuple[int, ...], auts) -> int:
        j = index[key] = len(keys)
        keys.append(key)
        orbits_of.append(_orbit_masks(n, perm, auts))
        marks.append(0)
        parent.append(j)
        return j

    for rows in reps:  # the new vertex n - 1 joins every mask from low up
        for mask in range(low, 1 << (n - 1)):
            ext = tuple(
                rows[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)
            ) + (mask,)
            key, perm, auts = search(n, ext)
            if key not in index:
                add(key, perm, auts)
    for i, key in enumerate(keys):  # the list grows while it is read
        for image, back, *searched in _moves(n, unpack(key), orbits_of[i], marks, i):
            j = index.get(image)
            if j is None:
                j = add(image, *searched)
            marks[j] |= 1 << back
            parent[_find(parent, i)] = _find(parent, j)
        orbits_of[i] = None

    groups: dict[int, list[int]] = {}
    for i in range(len(keys)):
        groups.setdefault(_find(parent, i), []).append(i)
    leads = sorted(
        (min(keys[i] for i in members), len(members)) for members in groups.values()
    )
    classes = tuple(LCClass(Graph._wrap(n, unpack(key)), size) for key, size in leads)
    closure = _CENSUS_CACHE[(n, connected_only)] = (
        ClassCensus(n, connected_only, classes), keys
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


def _greedy_generators(
    elements: list[tuple[int, ...]], n: int
) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """``(gens, group)``: every element outside the group of the earlier ``gens``, and the group of all.

    The group grows one right coset at a time (Dimino's algorithm).  It is
    closed when a new generator comes, so the larger group is the union of
    the cosets reached from the identity coset by multiplying on the right
    with generators.  Each element costs one composition, and each coset
    one more per generator to find its neighbours.
    """
    ident = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    group = [ident]  # cosets of the previous group in turn, identity first
    known = {ident}
    for p in elements:
        if p in known:
            continue
        # p lies outside the group, so it at least doubles it (Lagrange)
        _guard("lc_automorphism_group", 2 * len(known), _AUT_ELEMENTS, unit="group order")
        gens.append(p)
        sub = group[:]
        start = 0
        while start < len(group):
            rep = group[start]
            for s in gens:
                r = tuple(map(rep.__getitem__, s))
                if r not in known:
                    coset = [tuple(map(h.__getitem__, r)) for h in sub]
                    group += coset
                    known.update(coset)
            start += len(sub)
    return gens, known


def _lc_group(g: Graph, tree: _Tree) -> tuple[list[tuple[int, ...]], int]:
    """``(gens, class_size)``: the LC automorphisms of ``g`` and their orbits on the orbit's members.

    ``tree`` is the orbit's, from ``_orbit_members``.  ``gens`` generate the
    permutations ``sigma`` with ``_relabel_rows(g.rows, sigma)`` in the
    orbit, a group that maps two members onto each other exactly when they
    are isomorphic: the automorphisms of ``g`` that its canonical search
    finds and one isomorphism onto each member of ``g``'s type
    (``g``'s canonical labelling, then the inverse of the member's) that the
    generators so far do not reach.

    Relabelling commutes with local complementation: sigma.LC_a(h) =
    LC_sigma(a)(sigma.h).  So ``join`` relabels and packs only the root,
    once per generator; each later member ``h`` maps to the complementation
    of its parent's image at ``sigma[move[h]]``, one packed complementation
    and one lookup of the image's number.  Members join their images in a
    union-find over member numbers, so the root's class is the orbit of
    ``g`` under the generators so far, and ``class_size`` is the number of
    classes.  The members are read in BFS order, and one with ``g``'s edge
    count outside the root's class is unpacked; only those with ``g``'s
    sorted degrees are searched.
    """
    packed, index, members, parent, move = tree
    full = packed.full
    up = list(range(len(members)))

    def join(sigma: tuple[int, ...]) -> None:
        shift_of = [packed.shifts[b] for b in sigma]  # where the row of sigma[a] sits
        image = [index[packed.pack(_relabel_rows(g.rows, sigma))]]
        for p, a in islice(zip(parent, move), 1, None):
            m = members[image[p]]
            image.append(index[m ^ packed[m >> shift_of[a] & full]])
        for h, j in enumerate(image):
            up[_find(up, h)] = _find(up, j)

    key, perm, gens = canonical._search(g.n, g.rows)
    for sigma in gens:
        join(sigma)
    degrees = sorted(map(int.bit_count, g.rows))
    bits = sum(degrees)  # each edge sets two bits of a packed member
    for h, m in enumerate(members):
        if m.bit_count() != bits or _find(up, h) == _find(up, 0):
            continue
        rows = packed.unpack(m)
        if sorted(map(int.bit_count, rows)) != degrees:
            continue
        member_key, member_perm, _ = canonical._search(g.n, rows)
        if member_key == key:
            inv = sorted(range(g.n), key=member_perm.__getitem__)  # label -> vertex
            gens.append(tuple(inv[lab] for lab in perm))
            join(gens[-1])
    return gens, sum(h == root for h, root in enumerate(up))


def lc_automorphism_group(g: Graph, force: bool = False) -> AutReport:
    """Permutations whose relabelling of ``g`` stays inside its LC orbit.

    The labelled orbit is enumerated once, and one union-find pass over its
    BFS tree (``_lc_group``) finds the group's generators and counts its
    orbits on the members, the class size, as in ``lc_orbit``.  The report
    holds only the group's order and generators, but the group itself, up
    to ``n!`` permutations, is listed to pick those generators.  So this is
    kept to small orders, as the orbit grows quickly with ``n``.

    Raises ``SizeGuardError`` above these limits:

    - lifted by ``force``: ``n <= 8`` (``_CLASS_GUARD``);
    - not lifted: group order ``<= 9!`` (``_AUT_ELEMENTS``), checked on the
      within-part permutations before the orbit and on every new generator
      while the group is listed; ``_ORBIT_MEMBERS`` orbit members; and the
      canonical search's ``n <= 800``.
    """
    _guard("lc_automorphism_group", g.n, _CLASS_GUARD, force)
    lower, upper = aut_bounds(foliage_partition(g))
    _guard("lc_automorphism_group", lower, _AUT_ELEMENTS, unit="group order")  # Aut_in is a subgroup
    tree = _orbit_members(g)
    labeled_size = len(tree[2])
    lc_gens, class_size = _lc_group(g, tree)
    auts = sorted(_greedy_generators(lc_gens, g.n)[1])
    gens = _greedy_generators(auts, g.n)[0]
    return AutReport(
        order=len(auts),
        generators=tuple(gens),
        aut_in_order=lower,
        aut_out_upper_order=upper // lower,
        labeled_size=labeled_size,
        class_size=class_size,
        interplay=Fraction(len(auts) * class_size, labeled_size),
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


def saturation_stats(n: int, force: bool = False) -> SaturationStatsRow:
    """Average saturation behaviour over the connected LC classes of order ``n``."""
    census = lc_classes(n, connected_only=True, force=force)
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


def symmetry_table(n: int, connected_only: bool = True, force: bool = False) -> list[tuple]:
    """Per-class symmetry rows: partition shape, aut orders, orbit sizes.

    Columns: class_id, n, partition, aut_in, aut_out_upper, aut_order, L, C, I,
    each read from ``lc_automorphism_group`` of the class representative;
    the class size C is counted on its orbit, not copied from the census.
    """
    census = lc_classes(n, connected_only=connected_only, force=force)
    rows = []
    for cid, cls in enumerate(census.classes, start=1):
        rep = cls.representative
        report = lc_automorphism_group(rep, force=force)
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
# largest n that partition_number accepts, forced or not: the recurrence
# costs about n**2 bit operations, and a cold p(240000) took 51 and 69 CPU s
# in two runs, with a 62 MB peak, on a shared 2-vCPU host
_MAX_PARTITION_N = 240000


def partition_number(n: int) -> int:
    """Number of integer partitions of ``n``, by the pentagonal recurrence.

    Raises ``SizeGuardError`` above ``_MAX_PARTITION_N``.
    """
    if n < 0:
        raise ValueError("partition numbers are defined for n >= 0")
    if n > _MAX_PARTITION_N:
        raise SizeGuardError(f"partition numbers are limited to n <= {_MAX_PARTITION_N}")
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
