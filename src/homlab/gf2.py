"""GF(2) linear algebra by one sparse elimination over bit rows.

A matrix comes in CSR form, ``(starts, entries)``: row ``j`` lists the
columns ``entries[starts[j]:starts[j + 1]]`` where it is 1, and a repeated
column is set once.  This module alone turns a row into a Python int whose
bit ``j`` is column ``j``.  A basis is a dict mapping each pivot, the
highest set bit of a row, to that row; the rank is the number of pivots,
and a row lies in the span exactly when it reduces to zero against the
basis.  A bit row costs memory up to its highest set bit, and no matrix is
ever densified or transposed.

:func:`pivots` packs only the rows an XOR touches.  The highest column of
every row comes from one numpy pass; the first row at each distinct
highest column enters the basis lazily, as its row index, and is packed
only when it is first XORed into another row, while the remaining rows are
packed and reduced.  Row order does not matter: the reduced row echelon
form of a row space is unique, so every echelon basis of it has the same
set of pivots, whatever order its rows entered in.
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


def pivots(starts: np.ndarray, entries: np.ndarray, keep=None) -> list:
    """The pivot columns of an echelon basis of the span of the CSR rows
    marked in the bool mask ``keep`` (every row when None); there are as
    many as the rank.

    Each distinct highest column of the kept rows is a pivot, carried by
    the first row that has it, which stays unpacked until an XOR needs it.
    """
    rows = np.flatnonzero(starts[1:] > starts[:-1])
    if not rows.size:
        return []
    # a nonempty row's columns run up to the next nonempty row's start
    tops = np.maximum.reduceat(entries[:starts[-1]], starts[rows])
    if keep is not None:
        kept = keep[rows]
        rows, tops = rows[kept], tops[kept]
    columns, firsts = np.unique(tops, return_index=True)
    lazy = dict(zip(columns.tolist(), rows[firsts].tolist()))
    rest = np.delete(rows, firsts)
    basis = {}
    for a, b in zip(starts[rest].tolist(), starts[rest + 1].tolist()):
        row = _pack(entries[a:b].tolist())
        while row:
            top = row.bit_length() - 1
            pivot_row = basis.get(top)
            if pivot_row is None:
                i = lazy.pop(top, None)
                if i is None:
                    basis[top] = row
                    break
                pivot_row = basis[top] = _pack(entries[starts[i]:starts[i + 1]].tolist())
            row ^= pivot_row
    return [*basis, *lazy]


def in_column_span(starts: np.ndarray, entries: np.ndarray, b, ncols: int) -> bool:
    """Whether ``b``, one 0/1 entry per CSR row, is a sum of columns of the
    matrix with these rows over ``ncols`` columns, i.e. whether a x = b is
    solvable.

    ``b`` is appended as the extra column ``ncols``: it is a sum of columns
    exactly when no sum of rows is zero on every column but that one, that
    is, when the extra column's unit vector is not in the row span.
    """
    extra = 1 << ncols
    entries = entries.tolist()
    bounds = starts.tolist()
    basis = span(_pack(entries[a:c]) | extra if bit else _pack(entries[a:c])
                 for a, c, bit in zip(bounds, bounds[1:], b))
    return reduce(extra, basis) != 0


def _csr(rows) -> tuple:
    """CSR form ``(starts, entries)`` of rows given as iterables of columns."""
    rows = [np.fromiter(row, dtype=np.intp) for row in rows]
    starts = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(row) for row in rows], out=starts[1:])
    entries = np.concatenate(rows) if rows else np.zeros(0, dtype=np.intp)
    return starts, entries


def gf2_rank(matrix) -> int:
    """Rank of a 0/1 matrix over GF(2)."""
    a = np.asarray(matrix) % 2
    if a.ndim != 2:
        raise ValueError("gf2_rank expects a 2-d matrix")
    return len(pivots(*_csr(map(np.flatnonzero, a))))


def gf2_solvable(a, b) -> bool:
    """True iff a x = b has a solution over GF(2)."""
    a = np.asarray(a) % 2
    b = np.asarray(b).reshape(-1) % 2
    if a.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch in gf2_solvable")
    return in_column_span(*_csr(map(np.flatnonzero, a)), b.tolist(), a.shape[1])


def rank_sparse(rows, ncols: int) -> int:
    """GF(2) rank of a matrix given as an iterable of column-index sets."""
    return len(pivots(*_csr(rows)))
