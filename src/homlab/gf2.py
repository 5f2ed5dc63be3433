"""GF(2) linear algebra by one sparse elimination over bit rows.

A row is a Python int whose bit ``j`` is column ``j``.  A basis is a dict
mapping each pivot, the highest set bit of a row, to that row; the rank is
the number of pivots, and a row lies in the span exactly when it reduces to
zero against the basis.  Only the set bits of a row cost memory, so
boundary and coboundary operators of whole complexes are never densified.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reduce", "span", "pack", "gf2_rank", "gf2_solvable", "rank_sparse"]


def reduce(row: int, basis: dict) -> int:
    """What is left of ``row`` after elimination by ``basis``; 0 iff in its span."""
    while row:
        pivot_row = basis.get(row.bit_length() - 1)
        if pivot_row is None:
            return row
        row ^= pivot_row
    return 0


def span(rows) -> dict:
    """Echelon basis of the span of ``rows``, keyed by pivot."""
    basis = {}
    for row in rows:
        row = reduce(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def _bit_rows(a: np.ndarray) -> list:
    packed = np.packbits(a.astype(bool), axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def gf2_rank(matrix) -> int:
    """Rank of a 0/1 matrix over GF(2)."""
    a = np.asarray(matrix) % 2
    if a.ndim != 2:
        raise ValueError("gf2_rank expects a 2-d matrix")
    return len(span(_bit_rows(a)))


def gf2_solvable(a, b) -> bool:
    """True iff a x = b has a solution over GF(2)."""
    a = np.asarray(a) % 2
    b = np.asarray(b).reshape(1, -1) % 2
    if a.shape[0] != b.shape[1]:
        raise ValueError("dimension mismatch in gf2_solvable")
    return reduce(_bit_rows(b)[0], span(_bit_rows(a.T))) == 0


def pack(row) -> int:
    """Bit row of the columns in ``row``; a repeated column is set once."""
    bits = 0
    for j in row:
        bits |= 1 << int(j)
    return bits


def rank_sparse(rows, ncols: int) -> int:
    """GF(2) rank of a matrix given as an iterable of column-index sets."""
    return len(span(pack(row) for row in rows))
