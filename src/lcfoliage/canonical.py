"""Canonical labelling of qubit graphs.

Ordered-partition refinement (vertices split by neighbour counts against the
current cells) followed by individualization of the leftmost non-singleton
cell.  The root starts from the degree classes, which is what refining the
one cell of all vertices splits first, and each refinement compares counts
only against the cells made since the partition was last equitable
(McKay and Piperno, *Practical graph isomorphism II*, 2014); the cell that
splits is still split on its full signature, so the cells come out in the
same order as when every signature is compared in full.
Every leaf of the search tree yields a labelling, kept as its list
of vertices in label order; the canonical form is the lexicographically
least packed adjacency among them.  A leaf that ties with the least one so
far gives an automorphism, read off the two lists label by label.  That
automorphism fixes the two paths up to where they part and carries the rest
of this path onto the least leaf's, so the subtree below the parting node
is the image of one already explored: the search jumps straight back to
that node (the same paper's first-path backjump).  Twins, vertices with
equal open or equal closed neighbourhoods, swap under an automorphism, so
the search starts with one transposition per pair of consecutive twins.
A sibling branch is skipped when the known
automorphisms that fix the path so far carry its vertex onto an explored
sibling, in a union-find (``graph._find``) fed each automorphism once.
Pruning by automorphisms never drops the first least leaf in search
order, so the twin swaps change which automorphisms are listed, not
``(key, perm)``.  Every known automorphism is kept, at most one per level
on K_n, S_n and the empty graph besides the twin swaps, and together they
generate the automorphism group, which the LC automorphisms build on.
The search recurses through module-level functions, so it leaves no
reference cycle and its memory goes as soon as it returns.  It recurses
once per individualised vertex, up to n - 1 deep, so it refuses n above
``_MAX_ORDER`` with ``SizeGuardError``.  Nothing is
cached: a labelled graph is rarely searched twice, and the class census
keeps the key of every type it meets itself.
"""

from __future__ import annotations

from . import _NAMES
from .graph import Graph, SizeGuardError, _find, _relabel_rows, iter_bits, mask_of

__all__ = _NAMES["canonical"]

# the search takes about n + 10 frames, and Python's default recursion limit
# is 1000 frames; this bound leaves the caller about 190 of them.  At the
# bound the empty graph and K_n each take 1.2-1.8 CPU s (0.3-0.5 s at n = 400)
# on a shared 2-vCPU host: a node's union-find is fed only moved points, and
# a leaf's key grows one row segment at a time
_MAX_ORDER = 800


def canonical_form(g: Graph) -> tuple[bytes, tuple[int, ...]]:
    """Return ``(key, perm)`` where ``perm[v]`` is the canonical label of ``v``.

    Two graphs are isomorphic iff their keys are equal.  The key packs the
    vertex count and the relabelled upper-triangle adjacency bits.
    """
    return _search(g.n, g.rows)[:2]


def canonical_key(g: Graph) -> bytes:
    return canonical_form(g)[0]


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabelled copy of ``g``."""
    return Graph._wrap(g.n, _relabel_rows(g.rows, canonical_form(g)[1]))


def _pack(n: int, bits: int) -> bytes:
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return n.to_bytes(4, "big") + bits.to_bytes(nbytes, "big")


def _unpack(key: bytes) -> tuple[int, ...]:
    """The canonical rows that ``key`` packs: the inverse of ``_pack``.

    ``_descend`` writes the pairs ``(i, j)``, ``i < j``, row by row, the
    first pair in the highest bit.  So row ``i`` is the next ``n - 1 - i``
    bits from the top, and a bit ``p`` places up from the segment's lowest
    is the pair with ``j = n - 1 - p``.
    """
    n = int.from_bytes(key[:4], "big")
    bits = int.from_bytes(key[4:], "big")
    rows = [0] * n
    shift = n * (n - 1) // 2
    for i in range(n - 1):
        shift -= n - 1 - i
        seg = bits >> shift
        bits ^= seg << shift
        for p in iter_bits(seg):
            j = n - 1 - p
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def _search(
    n: int, rows: tuple[int, ...]
) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """``(key, perm, auts)``: the canonical form and the automorphisms of ``rows`` found on the way.

    ``auts[k][v]`` is the image of vertex ``v``.  The ``auts`` are the twin
    swaps, then the automorphisms the search finds, and they generate the
    whole automorphism group: a skipped branch, or the rest of a subtree
    left by a backjump, is the image of an explored one under automorphisms
    already known, and every explored leaf that ties with the least one
    gives an automorphism onto it.  Neither pruning nor the backjump leaves
    out the first least leaf, so ``(key, perm)`` is the same as without them.
    """
    if n == 0:
        return _pack(0, 0), (), []
    if n > _MAX_ORDER:
        raise SizeGuardError(f"canonical search is limited to n <= {_MAX_ORDER} by its recursion depth")
    # one pass over the rows: the degree classes are what refining the one
    # cell of all vertices splits first, and a vertex swaps with the last
    # twin before it.  No vertex v has both an open twin u and a closed twin
    # w: w would be in N(v) = N(u), so u in N[w] = N[v], so u in N(v) = N(u)
    by_degree: dict[int, int] = {}
    last: dict[int, int] = {}
    auts: list[tuple[tuple[int, ...], int]] = []  # with the mask of its moved points
    for v, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
        closed = row | 1 << v
        u = last.get(row, last.get(closed))
        if u is not None:
            swap = list(range(n))
            swap[u], swap[v] = v, u
            auts.append((tuple(swap), 1 << u | 1 << v))
        last[row] = last[closed] = v
    cells = [by_degree[d] for d in sorted(by_degree)]
    # every vertex has its degree's count against all vertices, so the
    # largest degree class is not fresh
    fresh = set(sorted(cells, key=int.bit_count)[:-1])
    (bits, inv, _), _ = _descend(rows, cells, fresh, (), None, auts)
    perm = [0] * n
    for lab, v in enumerate(inv):
        perm[v] = lab
    return _pack(n, bits), tuple(perm), [a for a, _ in auts]


def _refine(rows: tuple[int, ...], cells: list[int], fresh: set[int]) -> list[int]:
    """Split cells by neighbour counts against the current cells until stable.

    Each round splits the first cell whose vertices differ in their counts
    against the current cells, into pieces ordered by those counts, and the
    rounds end when no cell splits.  ``fresh`` holds the cells made since
    the cells were last equitable (the caller's ``[1 << v]``, or the degree
    classes but the largest at the root): counts against every other cell
    follow from counts against these, so only these are compared.  A split
    fresh cell leaves all its pieces fresh, any other all but its largest.
    ``cells`` and ``fresh`` are updated in place.
    """
    while True:
        for idx, cell in enumerate(cells):
            if not cell & (cell - 1):
                continue  # singleton
            # the cell's rows, read inline: iter_bits made the search a tenth slower
            nbs = []
            rest = cell
            while rest:
                low = rest & -rest
                nbs.append(rows[low.bit_length() - 1])
                rest ^= low
            for c in fresh:
                if c & (c - 1):
                    if len(set(map(int.bit_count, map(c.__and__, nbs)))) > 1:
                        break
                elif rows[c.bit_length() - 1] & cell not in (0, cell):
                    break  # a single vertex's neighbours in the cell
            else:
                continue
            groups: dict[tuple[int, ...], int] = {}
            rest = cell
            for nb in nbs:
                low = rest & -rest
                sig = tuple(map(int.bit_count, map(nb.__and__, cells)))
                groups[sig] = groups.get(sig, 0) | low
                rest ^= low
            pieces = [groups[k] for k in sorted(groups)]
            cells[idx : idx + 1] = pieces
            if cell in fresh:
                fresh.remove(cell)
                fresh.update(pieces)
            else:
                # counts against the largest piece follow from counts against
                # the split cell and the other pieces
                fresh.update(sorted(pieces, key=int.bit_count)[:-1])
            break
        else:
            return cells


def _descend(
    rows: tuple[int, ...],
    cells: list[int],
    fresh: set[int],
    path: tuple[int, ...],
    best: tuple[int, list[int], tuple[int, ...]] | None,
    auts: list[tuple[tuple[int, ...], int]],
) -> tuple[tuple[int, list[int], tuple[int, ...]], int]:
    """``(best, depth)``: the least leaf ``(bits, label -> vertex, path)`` of ``best`` and the subtree below ``cells``.

    ``cells`` are refined first, against ``fresh`` (see ``_refine``).  A
    leaf that ties with ``best`` gives an automorphism, appended to
    ``auts`` with the mask of the points it moves, and ``depth`` is then
    where its path parts from ``best``'s: every node deeper than that
    returns at once.  Otherwise ``depth`` is ``len(path)``.
    """
    cells = _refine(rows, cells, fresh)
    for target, cell in enumerate(cells):
        if cell & (cell - 1):
            break
    else:
        inv = [c.bit_length() - 1 for c in cells]  # canonical label -> vertex
        n = len(inv)
        bits = 0
        later = inv[:]  # the vertices of the labels after the row's
        for v in inv[:-1]:
            del later[0]
            row = rows[v]
            seg = 0
            for w in later:
                seg = seg << 1 | row >> w & 1
            bits = bits << len(later) | seg  # one row segment at a time
        if best is None or bits < best[0]:
            return (bits, inv, path), len(path)
        if bits == best[0]:
            # both leaves relabel to the same graph, so sending each vertex
            # to the vertex of the same label in ``best`` is an automorphism
            gamma = [0] * n
            moved = 0
            for v, w in zip(inv, best[1]):
                gamma[v] = w
                if v != w:
                    moved |= 1 << v
            found = (tuple(gamma), moved)
            if found not in auts:
                auts.append(found)
            # gamma maps this path onto best's, so the subtree below their
            # parting node maps onto one already explored
            return best, next(d for d, (a, b) in enumerate(zip(path, best[2])) if a != b)
        return best, len(path)
    # a path stabilizer maps the refined target cell onto itself, so unions
    # of its moved points inside the cell give the cell's orbits; a sibling
    # that shares a root with an explored one is skipped
    up = list(range(len(rows)))
    on_path = mask_of(path)
    explored: list[int] = []
    fed = 0  # auts read so far
    for v in iter_bits(cell):
        if explored:
            for a, moved in auts[fed:]:
                if not moved & on_path:
                    for x in iter_bits(cell & moved):
                        up[_find(up, x)] = _find(up, a[x])
            fed = len(auts)
            if any(_find(up, w) == _find(up, v) for w in explored):
                continue
        best, depth = _descend(
            rows,
            cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :],
            {1 << v},
            path + (v,),
            best,
            auts,
        )
        if depth < len(path):
            return best, depth
        explored.append(v)
    return best, len(path)
