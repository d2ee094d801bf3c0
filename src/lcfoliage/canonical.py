"""Canonical labelling of qubit graphs.

Ordered-partition refinement (vertices split by neighbour counts against the
current cells) followed by individualization of the leftmost non-singleton
cell.  Every leaf of the search tree yields a labelling, kept as its list
of vertices in label order; the canonical form is the lexicographically
least packed adjacency among them.  A leaf that ties with the least one so
far gives an automorphism, read off the two lists label by label.  That
automorphism fixes the two paths up to where they part and carries the rest
of this path onto the least leaf's, so the subtree below the parting node
is the image of one already explored: the search jumps straight back to
that node (McKay and Piperno's first-path backjump, *Practical graph
isomorphism II*, 2014).  A sibling branch is skipped when the found
automorphisms that fix the path so far carry its vertex onto an explored
sibling; the orbit comes from ``graph._orbit``.  Every found automorphism is
kept, at most one per level on K_n, S_n and the empty graph, and together
they generate the automorphism group, which the LC automorphisms build on.
The search recurses through module-level functions, so it leaves no
reference cycle and its memory goes as soon as it returns.  It recurses
once per individualised vertex, up to n - 1 deep, so it refuses n above
``_MAX_ORDER`` with ``SizeGuardError``, forced or not.  Nothing is
cached: a labelled graph is rarely searched twice, and the class census
keeps the key of every type it meets itself.
"""

from __future__ import annotations

from .graph import Graph, SizeGuardError, _orbit, _relabel_rows, iter_bits

__all__ = ["canonical_form", "canonical_key", "canonical_graph"]

# the search takes about n + 10 frames, and Python's default recursion limit
# is 1000 frames; this bound leaves the caller about 190 of them
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
        while seg:
            low = seg & -seg
            j = n - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            seg ^= low
    return tuple(rows)


def _search(
    n: int, rows: tuple[int, ...]
) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """``(key, perm, auts)``: the canonical form and the automorphisms of ``rows`` found on the way.

    ``auts[k][v]`` is the image of vertex ``v``.  The ``auts`` generate the
    whole automorphism group: a skipped branch, or the rest of a subtree
    left by a backjump, is the image of an explored one under automorphisms
    already found, and every explored leaf that ties with the least one
    gives an automorphism onto it.  The backjump leaves the least leaf, so
    ``(key, perm)`` is the same as without it.
    """
    if n == 0:
        return _pack(0, 0), (), []
    if n > _MAX_ORDER:
        raise SizeGuardError(f"canonical search is limited to n <= {_MAX_ORDER} by its recursion depth")
    auts: list[tuple[int, ...]] = []
    (bits, inv, _), _ = _descend(rows, [(1 << n) - 1], (), None, auts)
    perm = [0] * n
    for lab, v in enumerate(inv):
        perm[v] = lab
    return _pack(n, bits), tuple(perm), auts


def _refine(rows: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split cells by neighbour counts against the current cells until stable."""
    changed = True
    while changed:
        changed = False
        for idx, cell in enumerate(cells):
            if not cell & (cell - 1):
                continue  # singleton
            groups: dict[tuple[int, ...], int] = {}
            for v in iter_bits(cell):
                sig = tuple((rows[v] & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            if len(groups) > 1:
                cells[idx : idx + 1] = [groups[k] for k in sorted(groups)]
                changed = True
                break
    return cells


def _descend(
    rows: tuple[int, ...],
    cells: list[int],
    path: tuple[int, ...],
    best: tuple[int, list[int], tuple[int, ...]] | None,
    auts: list[tuple[int, ...]],
) -> tuple[tuple[int, list[int], tuple[int, ...]], int]:
    """``(best, depth)``: the least leaf ``(bits, label -> vertex, path)`` of ``best`` and the subtree below ``cells``.

    A leaf that ties with ``best`` gives an automorphism, appended to
    ``auts``, and ``depth`` is then where its path parts from ``best``'s:
    every node deeper than that returns at once.  Otherwise ``depth`` is
    ``len(path)``.
    """
    cells = _refine(rows, cells)
    target = next((idx for idx, cell in enumerate(cells) if cell & (cell - 1)), -1)
    if target < 0:
        inv = [c.bit_length() - 1 for c in cells]  # canonical label -> vertex
        n = len(inv)
        bits = 0
        for i in range(n):
            ri = rows[inv[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | ((ri >> inv[j]) & 1)
        if best is None or bits < best[0]:
            return (bits, inv, path), len(path)
        if bits == best[0]:
            # both leaves relabel to the same graph, so sending each vertex
            # to the vertex of the same label in ``best`` is an automorphism
            gamma = [0] * n
            for v, w in zip(inv, best[1]):
                gamma[v] = w
            gamma = tuple(gamma)
            if gamma not in auts:
                auts.append(gamma)
            # gamma maps this path onto best's, so the subtree below their
            # parting node maps onto one already explored
            return best, next(d for d, (a, b) in enumerate(zip(path, best[2])) if a != b)
        return best, len(path)
    cell = cells[target]
    processed: set[int] = set()
    for v in iter_bits(cell):
        if processed:
            # skip v if the path stabilizer carries it onto an explored sibling
            stab = [a for a in auts if all(a[p] == p for p in path)]
            if not processed.isdisjoint(_orbit(v, stab)):
                processed.add(v)
                continue
        best, depth = _descend(
            rows,
            cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :],
            path + (v,),
            best,
            auts,
        )
        if depth < len(path):
            return best, depth
        processed.add(v)
    return best, len(path)
