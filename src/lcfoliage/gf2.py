"""Rank over GF(2) on bit-packed rows.

A matrix row is a Python int whose bit ``i`` is the entry in column ``i``.
Arbitrary-precision ints give word-parallel XOR for free, so elimination
runs fast even for a few thousand columns.  Zero columns add nothing to the
rank, so a submatrix is simply its rows masked to the chosen columns.
"""

from __future__ import annotations

from typing import Iterable

from . import _NAMES

__all__ = _NAMES["gf2"]


def rank_of_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as int bitmasks.

    Input rows are never mutated; elimination works on local copies.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                rank += 1
                break
            row ^= pivot
    return rank
