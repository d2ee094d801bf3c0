"""Canonical labelling of qubit graphs.

Ordered-partition refinement (vertices split by neighbour counts against the
current cells) followed by individualization of the leftmost non-singleton
cell.  Every leaf of the search tree yields a labelling; the canonical form
is the lexicographically least packed adjacency among them.  Automorphisms
discovered along the way prune sibling branches that provably repeat an
explored subtree.  Nothing is cached: a labelled graph is rarely searched
twice, and the class census keeps the key of every type it meets itself.
"""

from __future__ import annotations

from .graph import Graph, _relabel_rows, iter_bits

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

    best_bits: list[int | None] = [None]
    best_perm: list[tuple[int, ...]] = [()]
    auts: list[tuple[int, ...]] = []
    aut_set: set[tuple[int, ...]] = set()

    def refine(cells: list[int]) -> list[int]:
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

    def leaf(cells: list[int]) -> None:
        inv = [c.bit_length() - 1 for c in cells]  # canonical label -> vertex
        bits = 0
        for i in range(n):
            ri = rows[inv[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | ((ri >> inv[j]) & 1)
        if best_bits[0] is None or bits < best_bits[0]:
            perm = [0] * n
            for lab, v in enumerate(inv):
                perm[v] = lab
            best_bits[0] = bits
            best_perm[0] = tuple(perm)
        elif bits == best_bits[0]:
            perm = [0] * n
            for lab, v in enumerate(inv):
                perm[v] = lab
            ref = best_perm[0]
            # ref and perm relabel to the same graph, so ref^-1 . perm is an
            # automorphism of the input
            inv_ref = [0] * n
            for v, lab in enumerate(ref):
                inv_ref[lab] = v
            gamma = tuple(inv_ref[perm[v]] for v in range(n))
            if gamma not in aut_set and len(auts) < _MAX_AUTS:
                aut_set.add(gamma)
                auts.append(gamma)

    def descend(cells: list[int], path: tuple[int, ...]) -> None:
        cells = refine(cells)
        target = -1
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                target = idx
                break
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        stab = [a for a in auts if all(a[p] == p for p in path)]
        processed = 0
        for v in iter_bits(cell):
            if processed and stab:
                # orbit of v under the group generated by the path stabilizer
                orb = 1 << v
                queue = [v]
                while queue and not orb & processed:
                    x = queue.pop()
                    for a in stab:
                        y = a[x]
                        if not (orb >> y) & 1:
                            orb |= 1 << y
                            queue.append(y)
                if orb & processed:
                    processed |= 1 << v
                    continue
            descend(
                cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :],
                path + (v,),
            )
            processed |= 1 << v
            stab = [a for a in auts if all(a[p] == p for p in path)]

    descend([(1 << n) - 1], ())
    assert best_bits[0] is not None
    return _pack(n, best_bits[0]), best_perm[0], auts
