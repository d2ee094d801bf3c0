"""LC orbits, equivalence classes, automorphism groups, and counting bounds.

The labelled orbit of a graph is its closure under local complementation at
every vertex.  Collapsing the orbit by graph isomorphism gives the LC class.
The orbit BFS and the LC-automorphism pass over its tree hold each member
packed into one int, in the format ``_Packed`` defines and complements.

``_lc_group`` is the one route from a labelled orbit to its types.  It
finds generators of the permutations that keep a graph inside its orbit
and joins every member with its images; the orbits of that group on the
members are the types of the class.  ``lc_orbit``,
``lc_automorphism_group`` and the class census share it.

The census of order ``n`` is seeded from the classes of order ``n - 1``
(the Danielsen-Parker scheme): complementing at a vertex other than ``v``
commutes with deleting ``v``, so every class contains a representative of
an ``n - 1`` class with one new vertex ``v`` joined to a set of its
vertices.  Over all graphs any ``v`` will do and the set may be empty.
Over connected graphs ``v`` is a non-cut vertex, whose deletion leaves a
connected graph, and the set is nonempty.  An automorphism of the
representative carries one set onto another with an isomorphic seed, so
one set per orbit of those automorphisms is joined.  Each seed is
canonically searched.  A seed whose key is new starts a class: its
labelled orbit is enumerated, ``_lc_group`` splits it into types, and one
member of each type is searched unless ``_lc_group`` searched one on the
way.  Every key of the class is then known, so no later seed of it goes
further than its own search.  The census is also the one enumeration of
isomorphism types of order ``n`` (connected ones for the connected census).
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import factorial

from . import _NAMES, canonical
from .foliage import FoliagePartition, foliage_partition, saturation
from .graph import Graph, SizeGuardError, _find, _guard, _relabel_rows, iter_bits

__all__ = _NAMES["orbits"]

# labelled members an orbit BFS may hold, and packed bits: members of n^2
# bits each, so the member budget falls below 2^20 from n = 17 on
_ORBIT_MEMBERS = 1 << 20
_ORBIT_BITS = 1 << 28
# isomorphism types of each order from 0 up: connected graphs (OEIS A001349)
# and all graphs (A000088)
_TYPES = {
    True: (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571),
    False: (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168),
}
# types of orders 1 to n that a census may key: orders 1 to 9 hold 273,193
# connected types and 288,266 in all, and a whole table passes it, so every
# n >= 10 does too
_CENSUS_TYPES = 1 << 20
# LC automorphisms a report may list, 9!: no graph with n <= 9 has more
_AUT_ELEMENTS = 362880


@dataclass(frozen=True)
class OrbitReport:
    representative: Graph
    labeled_size: int
    class_size: int
    _packed: tuple[int, ...] = field(repr=False)  # the members in the format of _Packed, sorted

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:  # adjacency rows, sorted
        return tuple(map(_Packed(self.representative.n).unpack, self._packed))

    def member_graphs(self) -> list[Graph]:
        return [Graph._wrap(self.representative.n, rows) for rows in self.members]


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

    This beats complementing row tuples on an orbit of many small graphs,
    but a single move on a large graph pays far more to pack and unpack than
    that costs, so ``graph.local_complement`` keeps the tuples.
    ``unpack`` hands out one int object per row value, so that the members
    one ``_Packed`` unpacks share their rows.
    """

    __slots__ = ("n", "full", "shifts", "_rows")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.full = (1 << n) - 1
        self.shifts = tuple(n * (n - 1 - v) for v in range(n))
        self._rows: dict[int, int] = {}

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
        full = self.full
        rows = [m >> s & full for s in self.shifts]
        return tuple(map(self._rows.setdefault, rows, rows))


# an orbit's BFS tree: (packed, index, members, parent, move)
_Tree = tuple[_Packed, dict, list, array, array]


def _orbit_members(g: Graph) -> _Tree:
    """The BFS tree of the labelled graphs reachable from ``g`` by local complementations.

    ``(packed, index, members, parent, move)``: each member is one int,
    packed by ``packed``, so its local complementation is one big-int
    expression.  ``members[0]`` packs ``g.rows`` and each later member ``h``
    is the complementation of ``members[parent[h]]`` at ``move[h]``, with
    ``parent[h] < h``; ``index`` numbers the members.  Complementing twice
    at a vertex is the identity, so each edge of the orbit is examined from
    one end only: when member ``i`` reaches a member ``j`` at ``a``, then
    ``j > i``, and bit ``a`` of ``j``'s mask of known moves spares ``j`` the
    move back.  The masks take two bytes per member up to 16 vertices, a
    machine word up to 64, and one int each above.

    The budget is ``_ORBIT_MEMBERS`` members, and fewer from n = 17 on, so
    that the members hold at most ``_ORBIT_BITS`` packed bits; it caps the
    complementation table's entries too.  Raises ``SizeGuardError`` once the
    orbit passes it, or the table does as a member's moves are tried.
    """
    budget = min(_ORBIT_MEMBERS, _ORBIT_BITS // (g.n * g.n or 1))
    packed = _Packed(g.n)
    full = packed.full
    root = packed.pack(g.rows)
    index = {root: 0}
    members = [root]
    parent, move = array("I", [0]), array("I", [0])
    # n bits per member; two bytes rather than eight cut about 2 MiB off the
    # n = 12 gate's peak, and a word cannot hold n > 64
    known = array("H" if g.n <= 16 else "Q", [0]) if g.n <= 64 else [0]
    moves = [(1 << a, a, shift) for a, shift in enumerate(packed.shifts)]
    for i, m in enumerate(members):  # the list grows while it is read
        if len(packed) > budget:
            raise SizeGuardError(f"lc_orbit passed {budget} complementation-table entries")
        done = known[i]
        for bit, a, shift in moves:
            if done & bit:
                continue  # leads back to a member that reached this one at a
            nb = m >> shift & full
            if nb & (nb - 1) == 0:
                continue  # degree 0 or 1: the move changes nothing
            image = m ^ packed[nb]
            j = index.get(image)
            if j is not None:
                known[j] |= bit
                continue
            index[image] = len(members)
            members.append(image)
            parent.append(i)
            move.append(a)
            known.append(bit)
            if len(members) > budget:
                raise SizeGuardError(f"lc_orbit passed {budget} labelled members")
    return packed, index, members, parent, move


def lc_orbit(g: Graph) -> OrbitReport:
    """Breadth-first closure of ``g`` under single local complementations.

    ``class_size`` counts isomorphism types inside the orbit, the size of
    the LC class of ``g``, as orbits of its LC automorphisms on the orbit's
    BFS tree: one union-find pass over the tree (``_lc_group``) joins each
    member with its images as the generators are found, and its groups are
    the types.  The report keeps the tree's packed members, sorted as ints,
    which is the order of their rows.  The canonical search runs first, so
    its ``n <= 800`` refuses a large graph before a member is packed; the
    BFS then raises ``SizeGuardError`` past its budget (``_orbit_members``).
    """
    found = canonical._search(g.n, g.rows)
    _, _, members, _, _ = tree = _orbit_members(g)
    class_size = len(_lc_group(g, tree, found)[1])
    members.sort()
    return OrbitReport(g, len(members), class_size, tuple(members))


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


# a census, the canonical keys of its types, and per class the size and
# LC-automorphism generators of the labelled orbit it was split from
_Closure = tuple[ClassCensus, set[bytes], tuple[tuple[int, list[tuple[int, ...]]], ...]]

_CENSUS_CACHE: dict[tuple[int, bool], _Closure] = {}


def _seed_masks(k: int, auts: list[tuple[int, ...]], low: int) -> list[int]:
    """The least mask from ``low`` up of each orbit of ``auts`` on the vertex sets of ``k`` vertices.

    ``auts`` are automorphisms of a ``k``-vertex graph, so joining a new
    vertex to a set or to its image under them gives isomorphic graphs.
    """
    up = list(range(1 << k))
    for a in auts:
        image = [0]  # of each mask, from the mask without its lowest bit
        for m in range(1, 1 << k):
            bit = m & -m
            image.append(image[m ^ bit] | 1 << a[bit.bit_length() - 1])
            up[_find(up, m)] = _find(up, image[m])
    least: dict[int, int] = {}
    for m in range(low, 1 << k):
        least.setdefault(_find(up, m), m)
    return list(least.values())


def lc_classes(n: int, connected_only: bool = True) -> ClassCensus:
    """Partition the isomorphism types of order ``n`` into LC classes.

    The seeds are the one-vertex extensions of the representatives of the
    census of order ``n - 1``, one per orbit of each representative's
    automorphisms on the sets the new vertex joins: nonempty sets for the
    connected census, and every set, the empty one included, for the
    census over all graphs.  A seed of a class not yet met has its labelled
    orbit enumerated and split into types by its LC automorphisms (see
    ``_lc_group``).  The cost is one canonical search per kept seed and
    about one per type, and one orbit BFS and one union-find pass over its
    members per class: 14,251 searches for the 12,113 connected types of
    orders 1 to 8.  A class is represented by its canonical graph of least
    key and sized by its type count; classes are ordered by that key.
    Censuses are cached per process, each census of order ``n`` with those
    of every lower order, and with the keys of its types and, per class,
    the size and LC-automorphism generators of the labelled orbit it was
    split from, which ``symmetry_table`` reads.  Raises ``ValueError`` for
    ``n`` below 1, and ``SizeGuardError`` before any search when the types
    of orders 1 to ``n`` pass ``_CENSUS_TYPES``, which admits ``n <= 9``.
    """
    return _census(n, connected_only)[0]


def nonisomorphic_graphs(n: int, connected: bool = False) -> list[Graph]:
    """All isomorphism types of order ``n``, canonical, sorted by key.

    These are the types that the class census of order ``n`` keys (see
    ``lc_classes``), read from the same per-process cache, so a cold call
    costs that census, about one canonical search per type, under the same
    budget on the type count.
    """
    keys = _census(n, connected)[1]
    return [Graph._wrap(n, canonical._unpack(key)) for key in sorted(keys)]


def _census(n: int, connected_only: bool) -> _Closure:
    if n < 1:
        raise ValueError("need at least one vertex")
    cached = _CENSUS_CACHE.get((n, connected_only))
    if cached is not None:
        return cached
    types = sum(_TYPES[connected_only][1 : n + 1])
    _guard("class census", types, _CENSUS_TYPES, unit="isomorphism types")
    if n == 1:
        reps, low = [()], 0  # the one extension of the empty graph
    else:
        smaller = _census(n - 1, connected_only)[0]
        reps = [cls.representative.rows for cls in smaller.classes]
        low = 1 if connected_only else 0
    search = canonical._search
    known: set[bytes] = set()
    leads = []
    for rows in reps:  # the new vertex n - 1 joins one set per orbit from low up
        for mask in _seed_masks(n - 1, search(n - 1, rows)[2], low):
            ext = tuple(rows[v] | (mask >> v & 1) << (n - 1) for v in range(n - 1)) + (mask,)
            found = search(n, ext)
            if found[0] in known:
                continue  # its class holds a type already met, so all of them
            g = Graph._wrap(n, ext)
            packed, _, members, _, _ = tree = _orbit_members(g)
            gens, roots, keyed = _lc_group(g, tree, found)
            class_keys = [
                keyed[h] if h in keyed else search(n, packed.unpack(members[h]))[0]
                for h in roots
            ]
            known.update(class_keys)
            leads.append((min(class_keys), len(class_keys), len(members), gens))
    leads.sort()  # the keys differ, so the generators are never compared
    classes = tuple(LCClass(Graph._wrap(n, canonical._unpack(lead[0])), lead[1]) for lead in leads)
    closure = _CENSUS_CACHE[(n, connected_only)] = (
        ClassCensus(n, connected_only, classes), known, tuple(lead[2:] for lead in leads)
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
    one more per generator to find its neighbours.  Raises
    ``SizeGuardError`` before a coset would take the group past
    ``_AUT_ELEMENTS``.
    """
    ident = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    group = [ident]  # cosets of the previous group in turn, identity first
    known = {ident}
    for p in elements:
        if p in known:
            continue
        gens.append(p)
        sub = group[:]
        start = 0
        while start < len(group):
            rep = group[start]
            for s in gens:
                r = tuple(map(rep.__getitem__, s))
                if r not in known:
                    size = len(group) + len(sub)
                    _guard("lc_automorphism_group", size, _AUT_ELEMENTS, unit="group order")
                    coset = [tuple(map(h.__getitem__, r)) for h in sub]
                    group += coset
                    known.update(coset)
            start += len(sub)
    return gens, known


def _lc_group(
    g: Graph, tree: _Tree, found: tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]
) -> tuple[list[tuple[int, ...]], array, dict[int, bytes]]:
    """``(gens, roots, keyed)``: the LC automorphisms of ``g`` and their orbits on the orbit's members.

    ``tree`` is the orbit's, from ``_orbit_members``, and ``found`` is
    ``canonical._search(g.n, g.rows)``.  ``gens`` generate the
    permutations ``sigma`` with ``_relabel_rows(g.rows, sigma)`` in the
    orbit, a group that maps two members onto each other exactly when they
    are isomorphic: the automorphisms of ``g`` that its canonical search
    found and one isomorphism onto each member of ``g``'s type
    (``g``'s canonical labelling, then the inverse of the member's) that the
    generators so far do not reach.  So each group, an orbit of ``gens`` on
    the members, is one isomorphism type of the LC class.  ``roots`` holds
    one member number per group, and ``keyed`` maps those of the groups
    whose type a search on the way gave to its canonical key.

    Relabelling commutes with local complementation: sigma.LC_a(h) =
    LC_sigma(a)(sigma.h).  So ``join`` relabels and packs only the root,
    once per generator; each later member ``h`` maps to the complementation
    of its parent's image at ``sigma[move[h]]``, one packed complementation
    and one lookup of the image's number.  Members join their images in a
    union-find over member numbers.  The members are read in BFS order, and
    one with ``g``'s edge count in a group whose type no search has given
    yet is unpacked; only those with ``g``'s sorted degrees are searched.
    """
    packed, index, members, parent, move = tree
    full = packed.full
    up = array("I", range(len(members)))

    def join(sigma: tuple[int, ...]) -> None:
        shift_of = [packed.shifts[b] for b in sigma]  # where the row of sigma[a] sits
        image = [index[packed.pack(_relabel_rows(g.rows, sigma))]]
        for p, a in islice(zip(parent, move), 1, None):
            m = members[image[p]]
            image.append(index[m ^ packed[m >> shift_of[a] & full]])
        for h, j in enumerate(image):
            if up[h] != up[j]:  # a shared parent is a shared root
                up[_find(up, h)] = _find(up, j)

    key, perm, gens = found
    for sigma in gens:
        join(sigma)
    keyed = {_find(up, 0): key}  # the key of each searched group, by its root
    degrees = sorted(map(int.bit_count, g.rows))
    bits = sum(degrees)  # each edge sets two bits of a packed member
    for h, m in enumerate(members):
        if m.bit_count() != bits or _find(up, h) in keyed:
            continue
        rows = packed.unpack(m)
        if sorted(map(int.bit_count, rows)) != degrees:
            continue
        member_key, member_perm, _ = canonical._search(g.n, rows)
        if member_key == key:
            inv = sorted(range(g.n), key=member_perm.__getitem__)  # label -> vertex
            gens.append(tuple(inv[lab] for lab in perm))
            join(gens[-1])
            keyed = {_find(up, root): k for root, k in keyed.items()}
        else:
            keyed[_find(up, h)] = member_key
    return gens, array("I", (h for h, root in enumerate(up) if h == root)), keyed


def lc_automorphism_group(g: Graph) -> AutReport:
    """Permutations whose relabelling of ``g`` stays inside its LC orbit.

    The labelled orbit is enumerated once, and one union-find pass over its
    BFS tree (``_lc_group``) finds the group's generators and counts its
    orbits on the members, the class size, as in ``lc_orbit``.  The report
    holds only the group's order and generators, but the group itself, up
    to ``n!`` permutations, is listed to pick those generators.

    Raises ``SizeGuardError`` past these budgets, each checked before the
    work it bounds:

    - group order ``<= 9!`` (``_AUT_ELEMENTS``), checked on the within-part
      permutations before the orbit and before each coset while the group
      is listed;
    - the canonical search's ``n <= 800``, run before the orbit;
    - the orbit BFS's budget on members (``_orbit_members``).
    """
    lower, upper = aut_bounds(foliage_partition(g))
    _guard("lc_automorphism_group", lower, _AUT_ELEMENTS, unit="group order")  # Aut_in is a subgroup
    found = canonical._search(g.n, g.rows)
    tree = _orbit_members(g)
    labeled_size = len(tree[2])
    lc_gens, roots, _ = _lc_group(g, tree, found)
    class_size = len(roots)
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
    lower = extra = 1
    for s, t in Counter(part.sizes()).items():
        lower *= factorial(s) ** t
        extra *= factorial(t)
    return lower, lower * extra


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


def saturation_stats(n: int) -> SaturationStatsRow:
    """Average saturation behaviour over the connected LC classes of order ``n``.

    The census is ``lc_classes(n)``'s, under its budget on the type count.
    """
    census = lc_classes(n)
    sats = [saturation(cls.representative) for cls in census.classes]
    count = census.count
    return SaturationStatsRow(
        n=n,
        class_count=count,
        avg_time=Fraction(sum(sat.time for sat in sats), count),
        avg_size=Fraction(sum(sat.size for sat in sats), count),
        reducible=Fraction(sum(sat.time > 0 for sat in sats), count),  # first partition not trivial
        fully_reducible=Fraction(sum(sat.size == 1 for sat in sats), count),
    )


def symmetry_table(n: int, connected_only: bool = True) -> list[tuple]:
    """Per-class symmetry rows: partition shape, aut orders, orbit sizes.

    Columns: class_id, n, partition, aut_in, aut_out_upper, aut_order, L, C,
    I = aut_order * C / L, each an invariant of the LC class, read from the
    census (see ``lc_classes``) with no orbit enumerated and no search.  L
    and the LC-automorphism generators are those of the labelled orbit the
    census split the class from, a relabelling of the representative's
    orbit, so L and the group order are the representative's; aut_order
    lists that group once, under ``lc_automorphism_group``'s budget.  C is
    the class's type count, and the partition, aut_in and aut_out_upper
    come from ``aut_bounds`` of the representative's foliage partition.
    The census is ``lc_classes``', under its budget on the type count.
    """
    census, _, groups = _census(n, connected_only)
    rows = []
    for cid, (cls, (labeled_size, gens)) in enumerate(zip(census.classes, groups), start=1):
        part = foliage_partition(cls.representative)
        lower, upper = aut_bounds(part)
        order = len(_greedy_generators(gens, n)[1])
        shape = "+".join(str(s) for s in sorted(part.sizes()))
        interplay = _fmt2(Fraction(order * cls.size, labeled_size))
        rows.append((cid, n, shape, lower, upper // lower, order, labeled_size, cls.size, interplay))
    return rows


# ---------------------------------------------------------------------------
# integer partitions and the counting bound

_PARTITION_NUMBERS = [1]
# largest n that partition_number accepts: the recurrence costs about n**2
# bit operations, and a cold p(240000) took 51 and 69 CPU s in two runs,
# with a 62 MB peak, on a shared 2-vCPU host
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
    if k >= 2:  # two centres list their edge twice, and from_edges sets it once
        for i in range(k):
            edges.append((centres[i], centres[(i + 1) % k]))
    return Graph.from_edges(n, edges)
