"""graph6 encoding for qubit graphs and a plain text format for weighted ones.

graph6 packs the upper triangle column by column into 6-bit chunks offset by
63.  Sizes up to 62 use a single byte; larger sizes (up to 258047) use ``~``
followed by three 6-bit bytes.

The weighted format is line based::

    d 3 n 4
    0 1 2
    1 2 1

with a ``u v weight`` line per edge, weights in ``1..d-1``.  The decoder
builds the graph's neighbour maps straight from the edge lines, in O(n + m),
and refuses ``n`` above ``_MAX_WEIGHTED_N`` with ``SizeGuardError``.
"""

from __future__ import annotations

import binascii
import re
from math import isqrt

from . import _NAMES
from .graph import Graph, SizeGuardError, WeightedGraph, _check_edge, _check_n_and_d, _is_sparse, iter_bits

__all__ = _NAMES["graph6"]

_HEADER = ">>graph6<<"
_INVALID = re.compile("[^?-~]")  # outside chr(63)..chr(126)
# A graph6 body byte and a base64 digit both carry 6 bits, high bit first,
# so binascii converts between bodies and packed bit strings once the
# alphabets are swapped.
_G6_DIGITS = bytes(range(63, 127))
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_FROM_B64 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)
_NONZERO = re.compile(b"[^\x00]")
# largest n of the 4-byte graph6 size header, whose first 6-bit value stays
# below 63 (a 63 there would start the 8-byte form)
_MAX_G6_N = 258047
# largest n a weighted text may declare; the CLI exits 3 above it.  The
# decoder stores O(n + m): decoding the bare header "d 3 n 8192" peaks near
# 17 MB, interpreter included
_MAX_WEIGHTED_N = 8192


# Body bit ``j * (j - 1) // 2 + i`` is the edge ``ij``, ``i < j``: column
# ``j`` of the upper triangle, which by symmetry is row ``j`` below its
# diagonal.  Sparse graphs are coded edge by edge; dense ones through bit
# strings.


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n > _MAX_G6_N:
        raise ValueError(f"graph6 size header supports at most n = {_MAX_G6_N} here")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    nbits = n * (n - 1) // 2
    need = -(-nbits // 6)
    if _is_sparse(n, sum(row.bit_count() for row in g.rows)):
        out = bytearray(b"?") * (len(head) + need)
        out[: len(head)] = head
        for j, row in enumerate(g.rows):
            for i in iter_bits(row & ((1 << j) - 1)):
                p = j * (j - 1) // 2 + i
                out[len(head) + p // 6] += 32 >> (p % 6)  # 6-bit values plus 63, high bit first
        return out.decode("ascii")
    bits = "".join(format(row & ((1 << j) - 1), f"0{j}b")[::-1] for j, row in enumerate(g.rows) if j)
    bits += "0" * (-nbits % 24)  # whole base64 groups, so no "=" padding
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return (head + binascii.b2a_base64(raw, newline=False)[:need].translate(_FROM_B64)).decode("ascii")


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    bad = _INVALID.search(s)
    if bad:
        raise ValueError(f"invalid graph6 character {bad.group()!r}")
    vals = s.encode("ascii")  # each byte is a 6-bit value plus 63
    if vals[0] < 126:
        n = vals[0] - 63
        start = 1
    else:
        if len(vals) < 4:
            raise ValueError("truncated graph6 size header")
        if vals[1] == 126:
            raise ValueError("8-byte graph6 size headers are not supported")
        n = ((vals[1] - 63) << 12) | ((vals[2] - 63) << 6) | (vals[3] - 63)
        start = 4
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(vals) - start != need:
        raise ValueError(
            f"graph6 body has {len(vals) - start} bytes, expected {need} for n={n}"
        )
    if need and (vals[-1] - 63) & ((1 << (need * 6 - nbits)) - 1):
        raise ValueError("graph6 padding bits are not zero")
    raw = binascii.a2b_base64(vals[start:].translate(_TO_B64) + b"A" * (-need % 4))  # "A" is 0
    packed = int.from_bytes(raw, "big")
    if _is_sparse(n, packed.bit_count()):
        rows = [0] * n
        for hit in _NONZERO.finditer(raw):
            k = hit.start()
            for t in iter_bits(raw[k]):
                p = 8 * k + 7 - t
                j = (isqrt(8 * p + 1) + 1) // 2
                i = p - j * (j - 1) // 2
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        return Graph._wrap(n, tuple(rows))
    bits = format(packed, f"0{8 * len(raw)}b")
    # row j of this n * n string is column j of the upper triangle, so its
    # column i, the strided slice from cell (i, i), is the rest of row i
    low = "".join(bits[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(n, "0") for j in range(n))
    return Graph._wrap(
        n, tuple(int((low[i * n : i * n + i] + low[i * n + i :: n])[::-1], 2) for i in range(n))
    )


def encode_weighted(g: WeightedGraph) -> str:
    lines = [f"d {g.d} n {g.n}"]
    for u, v, x in g.edges():
        lines.append(f"{u} {v} {x}")
    return "\n".join(lines) + "\n"


def decode_weighted(text: str) -> WeightedGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty weighted graph text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "d" or head[2] != "n":
        raise ValueError(f"bad weighted header {lines[0]!r}, expected 'd <d> n <n>'")
    try:
        d = int(head[1])
        n = int(head[3])
    except ValueError as exc:
        raise ValueError(f"bad weighted header {lines[0]!r}") from exc
    if n > _MAX_WEIGHTED_N:
        raise SizeGuardError(
            f"weighted graph text is limited to n <= {_MAX_WEIGHTED_N}, header says n = {n}"
        )
    _check_n_and_d(n, d)  # the header is at fault before any edge line
    nbrs: list[dict[int, int]] = [{} for _ in range(n)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {ln!r}, expected 'u v weight'")
        try:
            u, v, x = (int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        _check_edge(n, u, v)
        if not (1 <= x < d):
            raise ValueError(f"weight {x} outside 1..{d - 1}")
        if v in nbrs[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        nbrs[u][v] = nbrs[v][u] = x
    return WeightedGraph._wrap(n, d, nbrs)
