"""graph6 encoding for qubit graphs and a plain text format for weighted ones.

graph6 packs the upper triangle column by column into 6-bit chunks offset by
63.  Sizes up to 62 use a single byte; larger sizes (up to 258047) use ``~``
followed by three 6-bit bytes.

The weighted format is line based::

    d 3 n 4
    0 1 2
    1 2 1

with a ``u v weight`` line per edge, weights in ``1..d-1``.
"""

from __future__ import annotations

import binascii
import re

import numpy as np

from .graph import Graph, WeightedGraph, _pack_rows, _unpack_rows

__all__ = ["encode_graph6", "decode_graph6", "encode_weighted", "decode_weighted"]

_HEADER = ">>graph6<<"
_INVALID = re.compile("[^?-~]")  # outside chr(63)..chr(126)
# A graph6 body byte and a base64 digit both carry 6 bits, high bit first,
# so binascii converts between bodies and packed bit strings once the
# alphabets are swapped.
_G6_DIGITS = bytes(range(63, 127))
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_FROM_B64 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)


def _lower(n: int) -> np.ndarray:
    """Strict lower triangle mask.

    Column ``j`` of the upper triangle, which graph6 lists in order, is row
    ``j`` of the lower one, so the set cells, read row by row, are the body
    bits in order.
    """
    return np.tri(n, k=-1, dtype=bool)


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise ValueError("graph6 size header supports at most n = 258047 here")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr(((n >> 12) & 63) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    cells = np.unpackbits(_pack_rows(g.rows), axis=1, count=n, bitorder="little")
    bits = cells[_lower(n)]
    text = binascii.b2a_base64(np.packbits(bits).tobytes(), newline=False)
    out.append(text[: -(-len(bits) // 6)].translate(_FROM_B64).decode("ascii"))  # cut the padding
    return "".join(out)


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
        body = vals[1:]
    else:
        if len(vals) < 4:
            raise ValueError("truncated graph6 size header")
        if vals[1] == 126:
            raise ValueError("8-byte graph6 size headers are not supported")
        n = ((vals[1] - 63) << 12) | ((vals[2] - 63) << 6) | (vals[3] - 63)
        body = vals[4:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    if need and (body[-1] - 63) & ((1 << (need * 6 - nbits)) - 1):
        raise ValueError("graph6 padding bits are not zero")
    raw = binascii.a2b_base64(body.translate(_TO_B64) + b"A" * (-need % 4))  # "A" is 0
    cells = np.zeros((n, n), dtype=np.uint8)
    cells[_lower(n)] = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:nbits]
    cells |= cells.T
    packed = np.packbits(cells, axis=1, bitorder="little")
    return Graph._wrap(n, _unpack_rows(packed))


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
    # byte-string rows when every weight fits a byte: the graph then skips
    # its per-cell type check
    mat = [bytearray(n) if d <= 256 else [0] * n for _ in range(n)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {ln!r}, expected 'u v weight'")
        try:
            u, v, x = (int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= x < d):
            raise ValueError(f"weight {x} outside 1..{d - 1}")
        if mat[u][v]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        mat[u][v] = x
        mat[v][u] = x
    return WeightedGraph(n, d, mat)
