"""GF(2) linear algebra by one sparse elimination over bit rows.

A matrix comes as its rows, each a list of the columns where it is 1.  This
module alone turns a row into a Python int whose bit ``j`` is column ``j``.
A basis is a dict mapping each pivot, the highest set bit of a row, to that
row; the rank is the number of pivots, and a row lies in the span exactly
when it reduces to zero against the basis.  A bit row costs memory up to
its highest set bit, and no matrix is ever densified or transposed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reduce", "span", "pivots", "in_column_span", "gf2_rank", "gf2_solvable",
           "rank_sparse"]


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


def _pack(row) -> int:
    """Bit row of the columns in ``row``; a repeated column is set once."""
    bits = 0
    for j in row:
        bits |= 1 << int(j)
    return bits


def pivots(rows) -> list:
    """The pivot columns of an echelon basis of the rows' span; there are
    as many as the rank."""
    return list(span(map(_pack, rows)))


def in_column_span(rows, b, ncols: int) -> bool:
    """Whether ``b``, one 0/1 entry per row, is a sum of columns of the
    matrix with these rows over ``ncols`` columns, i.e. whether a x = b is
    solvable.

    ``b`` is appended as the extra column ``ncols``: it is a sum of columns
    exactly when no sum of rows is zero on every column but that one, that
    is, when the extra column's unit vector is not in the row span.
    """
    extra = 1 << ncols
    basis = span(_pack(row) | extra if bit else _pack(row) for row, bit in zip(rows, b))
    return reduce(extra, basis) != 0


def _index_rows(a: np.ndarray) -> list:
    return [np.flatnonzero(row).tolist() for row in a]


def gf2_rank(matrix) -> int:
    """Rank of a 0/1 matrix over GF(2)."""
    a = np.asarray(matrix) % 2
    if a.ndim != 2:
        raise ValueError("gf2_rank expects a 2-d matrix")
    return len(pivots(_index_rows(a)))


def gf2_solvable(a, b) -> bool:
    """True iff a x = b has a solution over GF(2)."""
    a = np.asarray(a) % 2
    b = np.asarray(b).reshape(-1) % 2
    if a.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch in gf2_solvable")
    return in_column_span(_index_rows(a), b.tolist(), a.shape[1])


def rank_sparse(rows, ncols: int) -> int:
    """GF(2) rank of a matrix given as an iterable of column-index sets."""
    return len(pivots(rows))
