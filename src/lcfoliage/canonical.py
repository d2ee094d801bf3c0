"""Canonical labelling of qubit graphs.

Ordered-partition refinement (vertices split by neighbour counts against the
current cells) followed by individualization of the leftmost non-singleton
cell.  Every leaf of the search tree yields a labelling, kept as its list
of vertices in label order; the canonical form is the lexicographically
least packed adjacency among them.  A leaf that ties with the least one so
far gives an automorphism, read off the two lists label by label.  A sibling
branch is skipped when the found automorphisms that fix the path so far
carry its vertex onto an explored sibling (McKay and Piperno, *Practical graph
isomorphism II*, 2014); the orbit comes from ``graph._orbit``.  The search
recurses through module-level functions, so it leaves no reference cycle
and its memory goes as soon as it returns.  Nothing is cached: a labelled
graph is rarely searched twice, and the class census keeps the key of every
type it meets itself.
"""

from __future__ import annotations

from operator import getitem

from .graph import Graph, _orbit, _relabel_rows, iter_bits

__all__ = ["canonical_form", "canonical_key", "canonical_graph"]

# keep at most this many discovered automorphisms per search; pruning with a
# partial list is still sound, it just prunes less
_MAX_AUTS = 64


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


def _search(
    n: int, rows: tuple[int, ...]
) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """``(key, perm, auts)``: the canonical form and the automorphisms of ``rows`` found on the way.

    ``auts`` holds at most ``_MAX_AUTS`` automorphisms (``auts[k][v]`` is the
    image of vertex ``v``); they generate a subgroup of the automorphism
    group, often all of it.
    """
    if n == 0:
        return _pack(0, 0), (), []
    auts: list[tuple[int, ...]] = []
    bits, inv = _descend(rows, [(1 << n) - 1], (), None, auts)
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
    best: tuple[int, list[int]] | None,
    auts: list[tuple[int, ...]],
) -> tuple[int, list[int]]:
    """The least leaf ``(bits, label -> vertex)`` of ``best`` and the subtree below ``cells``.

    A leaf that ties with ``best`` gives an automorphism, appended to ``auts``.
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
            return bits, inv
        if bits == best[0]:
            # both leaves relabel to the same graph, so sending each vertex
            # to the vertex of the same label in ``best`` is an automorphism
            gamma = [0] * n
            for v, w in zip(inv, best[1]):
                gamma[v] = w
            gamma = tuple(gamma)
            if gamma not in auts and len(auts) < _MAX_AUTS:
                auts.append(gamma)
        return best
    cell = cells[target]
    processed: set[int] = set()
    for v in iter_bits(cell):
        if processed:
            # skip v if the path stabilizer carries it onto an explored sibling
            stab = [a for a in auts if all(a[p] == p for p in path)]
            if not processed.isdisjoint(_orbit(v, stab, getitem)):
                processed.add(v)
                continue
        best = _descend(
            rows,
            cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :],
            path + (v,),
            best,
            auts,
        )
        processed.add(v)
    return best
