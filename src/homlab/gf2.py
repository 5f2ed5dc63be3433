"""GF(2) linear algebra by one sparse elimination over bit rows.

A matrix comes in CSR form, ``(starts, entries)``: row ``j`` lists the
columns ``entries[starts[j]:starts[j + 1]]`` where it is 1, and a repeated
column is set once.  This module alone turns a row into a Python int whose
bit ``j`` is column ``j``, and :func:`pivots` is its one elimination loop.
A basis is a dict mapping each pivot, the highest set bit of a row, to
that row; a row is XORed with the basis row at its highest bit until that
bit is a new pivot or the row is zero.  The rank is the number of pivots.
A bit row costs memory up to its highest set bit, and no matrix is ever
densified or transposed.

The basis is built from lazy apparent pairs.  The highest column of every
row comes from one numpy pass; the first row at each distinct highest
column enters the basis lazily, as its row index, and is packed only when
it is first XORed into another row, while the remaining rows are packed
and reduced.  Row order does not matter: the reduced row echelon form of a
row space is unique, so every echelon basis of it has the same set of
pivots, whatever order its rows entered in.

Membership goes through the same loop.  :func:`in_column_span` asks
whether ``b`` is a sum of columns by joining it as column 0, below every
column of the matrix.  The pivots of an echelon basis are the highest bits
of the nonzero vectors of the row span, and the only vector whose highest
bit is 0 is the unit vector ``e_0``.  So 0 is a pivot exactly when some
sum of rows vanishes on every column but ``b``'s, that is, when no sum of
columns equals ``b``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pivots", "in_column_span", "gf2_rank", "gf2_solvable", "rank_sparse"]


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


def in_column_span(starts: np.ndarray, entries: np.ndarray, b) -> bool:
    """Whether ``b``, one 0/1 entry per CSR row, is a sum of columns of the
    matrix with these rows, i.e. whether a x = b is solvable.

    Every column moves up by one and ``b`` becomes column 0: a row where
    ``b`` is 1 gains a leading 0.  ``b`` is a sum of columns exactly when 0
    is not a pivot.
    """
    b = np.asarray(b, dtype=bool)
    entries = np.insert(entries[:starts[-1]] + 1, starts[:-1][b], 0)
    starts = starts + np.concatenate(([0], np.cumsum(b)))
    return 0 not in pivots(starts, entries)


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
    return in_column_span(*_csr(map(np.flatnonzero, a)), b)


def rank_sparse(rows, ncols: int) -> int:
    """GF(2) rank of a matrix given as an iterable of column-index sets."""
    return len(pivots(*_csr(rows)))
