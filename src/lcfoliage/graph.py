"""Graph data model and local-complementation operators.

Qubit graphs store one int bitmask per vertex (bit ``w`` of ``rows[v]`` is
the edge ``vw``).  Qudit graphs over Z_d, d prime, add a map per vertex from
neighbour to nonzero weight.  Both are immutable; operators return new ones.

The row primitives that other modules share are here too, one
implementation each: ``_relabel_rows``, ``iter_bits``, ``mask_of``, the
union-find ``_find`` and the budget check ``_guard``.  ``local_complement``
complements a row tuple; the orbit loops complement packed members instead
(``orbits._Packed``).

Everything here works on Python ints and strings; no module of the package
but the state-vector oracle imports numpy.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Iterator, MutableSequence, Sequence

from . import _NAMES

__all__ = _NAMES["graph"]


class SizeGuardError(Exception):
    """An operation exceeds a size limit or a work budget."""


def _guard(what: str, size: int, limit: int, unit: str) -> None:
    """Raise ``SizeGuardError`` when ``size``, in ``unit``, passes the budget ``limit``."""
    if size > limit:
        raise SizeGuardError(f"{what} is limited to {unit} <= {limit}")


def _is_int(x: object) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def _check_order(n: int) -> None:
    if not _is_int(n):
        raise ValueError(f"vertex count {n!r} is not an integer")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")


def _check_edge(n: int, u: int, v: int) -> tuple[int, int]:
    if not (_is_int(u) and _is_int(v)):
        raise ValueError(f"edge {(u, v)!r} has an endpoint that is not an integer")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return int(u), int(v)  # a numpy int would overflow in 1 << v


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _is_sparse(n: int, m: int) -> bool:
    """Whether ``m`` edges on ``n`` vertices go to the per-edge paths.

    Callers pass edges, half the rows' summed ``bit_count()``.  The dense
    paths of the validator and the graph6 codec write n * n characters in
    C-speed passes; the sparse ones make a few Python operations per edge,
    each on ints of up to n bits.  The two cost the same near m = n * n / 300
    at n = 2000 and at n = 6000.
    """
    return 300 * m < n * n


def _first_one_way_arc(n: int, rows: Sequence[int]) -> tuple[int, int] | None:
    """First ``(v, w)`` in row-major order with arc ``v -> w`` but not ``w -> v``.

    ``rows`` are nonnegative ints below ``2**n``.  Sparse rows are walked
    edge by edge.  Dense ones are written as one row-major string, row ``v``
    from bit 0 up, so column ``v`` is the strided slice ``m[v::n]``: a row
    that differs from its column holds an arc with no reverse, at the lowest
    bit of ``row & ~column``, unless the column alone has the extra arcs.
    """
    if _is_sparse(n, sum(row.bit_count() for row in rows) // 2):
        for v, row in enumerate(rows):
            for w in iter_bits(row):
                if not (rows[w] >> v) & 1:
                    return v, w
        return None
    m = "".join(format(row, f"0{n}b")[::-1] for row in rows)
    for v, row in enumerate(rows):
        col = m[v::n]
        if m[v * n : v * n + n] != col:
            bad = row & ~int(col[::-1], 2)
            if bad:
                return v, (bad & -bad).bit_length() - 1
    return None


class Graph:
    """An undirected simple graph on vertices ``0..n-1``."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        _check_order(n)
        if len(rows) != n:
            raise ValueError("need one adjacency row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if not _is_int(row):
                raise ValueError(f"row {v} is not an integer")
            if row < 0 or row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        rows = tuple(map(int, rows))
        asym = _first_one_way_arc(n, rows)
        if asym is not None:
            raise ValueError(f"adjacency not symmetric at ({asym[0]}, {asym[1]})")
        self.n = n
        self.rows = rows

    @classmethod
    def _wrap(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Internal constructor for rows already known to be valid."""
        g = object.__new__(cls)
        g.n = n
        g.rows = rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            u, v = _check_edge(n, u, v)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._wrap(n, tuple(rows))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1)
            for w in iter_bits(row):
                out.append((v, v + 1 + w))
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


# Miller-Rabin with these bases decides primality exactly below 2**64: the
# least number that passes all of them is about 3.2 * 10**23
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(d: int) -> bool:
    """Whether ``d`` is prime, by Miller-Rabin; raises ``ValueError`` from 2**64 up."""
    if d >= 1 << 64:
        raise ValueError(f"modulus {d} is not below 2**64")
    if d < 2:
        return False
    for p in _PRIME_BASES:
        if d % p == 0:
            return d == p
    # d - 1 = odd * 2**twos
    twos = ((d - 1) & (1 - d)).bit_length() - 1
    odd = (d - 1) >> twos
    for a in _PRIME_BASES:
        x = pow(a, odd, d)
        if x == 1 or x == d - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % d
            if x == d - 1:
                break
        else:
            return False
    return True


def _check_n_and_d(n: int, d: int) -> None:
    _check_order(n)
    if not _is_int(d):
        raise ValueError(f"modulus {d!r} is not an integer")
    if not _is_prime(d):
        raise ValueError(f"modulus {d} is not prime")


class WeightedGraph:
    """A d-weighted graph over Z_d, d prime.

    ``supports[v]`` is the bitmask of neighbours of ``v``, and a private map
    per vertex holds each neighbour's weight in ``1..d-1``.  ``from_edges``
    builds one in O(n + m); the dense constructor checks all n * n cells.
    """

    __slots__ = ("n", "d", "supports", "_nbrs")

    def __init__(self, n: int, d: int, weights: Sequence[Sequence[int]]):
        _check_n_and_d(n, d)
        if len(weights) != n:
            raise ValueError("need one weight row per vertex")
        rows = []
        for v, row in enumerate(weights):
            try:
                rows.append(tuple(row))
            except TypeError:
                raise ValueError(f"weight row {v} is not a sequence") from None
        # the first offending cell in row-major order is the one named
        for v, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"weight row {v} has wrong length")
            for w, x in enumerate(row):
                if not _is_int(x):
                    raise ValueError(f"weight at ({v}, {w}) is not an integer")
                if not (0 <= x < d):
                    raise ValueError(f"weight at ({v}, {w}) outside 0..{d - 1}")
                if v == w and x != 0:
                    raise ValueError(f"self-loop at vertex {v}")
                if len(rows[w]) <= v:  # a later row, too short to hold (w, v)
                    raise ValueError(f"weight row {w} has wrong length")
                if x != rows[w][v]:
                    raise ValueError(f"weights not symmetric at ({v}, {w})")
        self.n = n
        self.d = d
        self._nbrs = tuple({w: int(x) for w, x in enumerate(row) if x} for row in rows)
        self.supports = tuple(map(mask_of, self._nbrs))

    @classmethod
    def _wrap(cls, n: int, d: int, nbrs: list, sup: Iterable[int] | None = None) -> WeightedGraph:
        """Internal constructor for neighbour maps already known to be valid.

        ``nbrs[v]`` maps each neighbour of ``v`` to its weight in ``1..d-1``,
        symmetrically; the graph takes the maps over and never changes them.
        ``sup`` gives the support masks when the caller has them.
        """
        g = object.__new__(cls)
        g.n = n
        g.d = d
        g._nbrs = tuple(nbrs)
        g.supports = tuple(map(mask_of, nbrs) if sup is None else sup)
        return g

    @classmethod
    def from_edges(
        cls, n: int, d: int, edges: Iterable[tuple[int, int, int]]
    ) -> "WeightedGraph":
        """Weights are reduced mod d; the last one given for a pair wins, and 0 leaves it out."""
        _check_n_and_d(n, d)
        nbrs: list[dict[int, int]] = [{} for _ in range(n)]
        for u, v, x in edges:
            u, v = _check_edge(n, u, v)
            nbrs[u][v] = nbrs[v][u] = x
        bad = [(v, w) for v, row in enumerate(nbrs) for w, x in row.items() if not _is_int(x)]
        if bad:
            raise ValueError(f"weight at {min(bad)} is not an integer")
        return cls._wrap(n, d, [{w: r for w, x in row.items() if (r := int(x) % d)} for row in nbrs])

    @property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Dense weight matrix, 0 for no edge; O(n^2) on each access, for oracles and tests."""
        return tuple(tuple(row.get(w, 0) for w in range(self.n)) for row in self._nbrs)

    def edges(self) -> list[tuple[int, int, int]]:
        return [
            (v, w, row[w]) for v, row in enumerate(self._nbrs) for w in sorted(row) if w > v
        ]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.d == other.d
            and self._nbrs == other._nbrs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.d, tuple(self.edges())))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, d={self.d}, edges={self.edges()!r})"


def _relabel_rows(rows: tuple[int, ...], perm: Sequence[int]) -> tuple[int, ...]:
    """Rows of the same graph with vertex ``v`` renamed ``perm[v]``."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        image = 0
        for w in iter_bits(row):
            image |= 1 << perm[w]
        out[perm[v]] = image
    return tuple(out)


def _find(up: MutableSequence[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``up``, halving the path.

    The one orbit routine: joining each ``x`` with ``a[x]`` for permutations
    ``a`` leaves their group's orbits as the classes.
    """
    while up[x] != x:
        up[x] = up[up[x]]
        x = up[x]
    return x


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighbourhood of ``a``."""
    if not (0 <= a < g.n):
        raise ValueError(f"vertex {a} out of range")
    nb = g.rows[a]
    rows = list(g.rows)
    for v in iter_bits(nb):
        # toggle the edges from v to the other neighbours of a
        rows[v] ^= nb ^ 1 << v
    return Graph._wrap(g.n, tuple(rows))


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced on the vertices of ``mask``, renumbered in increasing order."""
    if mask < 0 or mask >> g.n:
        raise ValueError("vertex mask has bits outside the vertex range")
    label = {v: i for i, v in enumerate(iter_bits(mask))}
    return Graph._wrap(
        len(label), tuple(mask_of(label[w] for w in iter_bits(g.rows[v] & mask)) for v in label)
    )


def qudit_star(g: WeightedGraph, w: int, a: int) -> WeightedGraph:
    """Apply the qudit local-complementation step ``*_a`` at vertex ``w``.

    Off-diagonal weights pick up ``a * weight(w, j) * weight(w, k)`` mod d.
    Only the rows of the neighbours of ``w`` are copied and changed, with
    deg(w)^2 weight updates.
    """
    if not (0 <= w < g.n):
        raise ValueError(f"vertex {w} out of range")
    d = g.d
    a = a % d
    if a == 0:
        return g
    wrow = g._nbrs[w]
    nbrs = list(g._nbrs)
    sup = list(g.supports)
    for j, wj in wrow.items():
        row = nbrs[j] = dict(nbrs[j])
        for k, wk in wrow.items():
            if k != j:
                # a * wj * wk is nonzero mod d: edge jk comes or goes iff old or x is 0
                old = row.pop(k, 0)
                x = (old + a * wj * wk) % d
                if x:
                    row[k] = x
                if not (old and x):
                    sup[j] ^= 1 << k
    return WeightedGraph._wrap(g.n, d, nbrs, sup)


def qudit_scale(g: WeightedGraph, v: int, b: int) -> WeightedGraph:
    """Apply the qudit rescaling step ``o_b`` at vertex ``v`` (b nonzero); no edge comes or goes."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    d = g.d
    b = b % d
    if b == 0:
        raise ValueError("scale factor must be nonzero mod d")
    if b == 1:
        return g
    nbrs = list(g._nbrs)
    nbrs[v] = {u: x * b % d for u, x in nbrs[v].items()}
    for u, x in nbrs[v].items():
        nbrs[u] = {**nbrs[u], v: x}
    return WeightedGraph._wrap(g.n, d, nbrs, g.supports)


def _support_rows(g: Graph | WeightedGraph) -> tuple[int, ...]:
    return g.rows if isinstance(g, Graph) else g.supports


def connected_components(g: Graph | WeightedGraph) -> list[int]:
    """Vertex bitmasks of the connected components, ordered by least member."""
    sup = _support_rows(g)
    seen = 0
    comps = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= sup[u]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps
