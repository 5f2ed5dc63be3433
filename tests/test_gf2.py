import itertools

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from homlab.gf2 import gf2_rank, gf2_solvable, in_column_span, pivots, rank_sparse

from conftest import reduce, span


def oracle_rank(a):
    """Row-space enumeration: a rank-r matrix spans exactly 2^r vectors."""
    rows = [tuple(r % 2) for r in np.asarray(a)]
    span = {tuple([0] * len(rows[0]))} if rows else {()}
    for r in rows:
        span |= {tuple((x + y) % 2 for x, y in zip(s, r)) for s in span}
    return int(np.log2(len(span)))


def random_matrices(count=60, max_dim=8, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_dim + 1))
        yield rng.integers(0, 2, size=(m, n), dtype=np.uint8)


def column_sets(a):
    return [set(np.nonzero(row)[0]) for row in a]


def csr(rows):
    """``(starts, entries)`` of rows given as lists of columns."""
    starts = np.cumsum([0] + [len(row) for row in rows]).astype(np.intp)
    entries = np.array([j for row in rows for j in row], dtype=np.intp)
    return starts, entries


def span_pivots(rows, keep):
    """Pivots of the kept rows by the plain route: pack every kept row (a
    repeated column set once) and collect an echelon basis with ``span``."""
    return set(span(sum(1 << j for j in set(row)) for row, k in zip(rows, keep) if k))


@st.composite
def csr_tables(draw):
    """Rows over at most 10 columns with empty rows, repeated entries, a run
    of rows sharing one highest column, and a random ``keep`` mask."""
    ncols = draw(st.integers(1, 10))
    top = draw(st.integers(0, ncols - 1))
    rows = draw(st.lists(st.lists(st.integers(0, ncols - 1), max_size=5), max_size=10))
    sharing = draw(st.lists(st.lists(st.integers(0, top), max_size=4), max_size=8))
    rows = draw(st.permutations(rows + [row + [top] for row in sharing]))
    keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return rows, keep


def pivot_property(kernel, phases=tuple(Phase)):
    """``kernel`` finds the same pivots as ``span`` on random CSR tables."""
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              phases=phases)
    @given(csr_tables())
    def check(table):
        rows, keep = table
        found = kernel(*csr(rows), np.array(keep, dtype=bool))
        assert len(found) == len(set(found))
        assert set(found) == span_pivots(rows, keep)
    return check


def exhaustive_solvable(rows, b, ncols):
    """Whether some x in GF(2)^ncols has a x = b, for the 0/1 matrix whose
    rows list their columns (a repeated column set once)."""
    a = np.zeros((len(rows), ncols), dtype=np.uint8)
    for i, row in enumerate(rows):
        a[i, row] = 1
    return any(np.array_equal(a @ np.array(x, dtype=np.uint8) % 2, b)
               for x in itertools.product((0, 1), repeat=ncols))


@st.composite
def span_problems(draw):
    """Rows over at most 6 columns with repeated entries, a run of rows
    sharing one highest column, and a run of empty rows where ``b`` is 1
    (equal insert positions in ``in_column_span``); ``b`` is sometimes 0."""
    ncols = draw(st.integers(0, 6))
    column = st.integers(0, max(ncols - 1, 0))
    rows = draw(st.lists(st.lists(column, max_size=4) if ncols else st.just([]),
                         max_size=6))
    if ncols:
        top = draw(column)
        sharing = draw(st.lists(st.lists(st.integers(0, top), max_size=3), max_size=4))
        rows = draw(st.permutations(rows + [row + [top] for row in sharing]))
    b = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    at = draw(st.integers(0, len(rows)))
    empties = draw(st.integers(0, 3))
    rows[at:at] = [[]] * empties
    b[at:at] = [True] * empties
    if draw(st.integers(0, 4)) == 0:
        b = [False] * len(rows)
    return rows, np.array(b, dtype=np.uint8), ncols


def span_property(kernel, phases=tuple(Phase)):
    """``kernel(starts, entries, b)`` answers as the exhaustive solve does."""
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              phases=phases)
    @given(span_problems())
    def check(problem):
        rows, b, ncols = problem
        assert kernel(*csr(rows), b) == exhaustive_solvable(rows, b, ncols)
    return check


class TestRank:
    def test_against_row_space_oracle(self):
        for a in random_matrices():
            assert gf2_rank(a) == oracle_rank(a)
            assert rank_sparse(column_sets(a), a.shape[1]) == oracle_rank(a)

    def test_three_paths_agree(self):
        for a in random_matrices(seed=23):
            dense = gf2_rank(a)
            assert rank_sparse(column_sets(a), a.shape[1]) == dense
            # the rank counts the columns outside the span of those before
            independent = sum(not gf2_solvable(a[:, :j], a[:, j])
                              for j in range(a.shape[1]))
            assert independent == dense

    def test_identity(self):
        assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5

    def test_zero_and_empty(self):
        assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
        assert gf2_rank(np.zeros((0, 4), dtype=np.uint8)) == 0
        assert gf2_rank(np.zeros((4, 0), dtype=np.uint8)) == 0

    def test_dependent_rows_mod2(self):
        # over the rationals this has rank 3, over GF(2) rank 2
        a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        assert gf2_rank(a) == 2

    def test_input_left_untouched(self):
        a = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        before = a.copy()
        gf2_rank(a)
        assert np.array_equal(a, before)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            gf2_rank(np.zeros(4, dtype=np.uint8))


class TestSolvable:
    def test_against_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            b = rng.integers(0, 2, size=m, dtype=np.uint8)
            brute = any(
                np.array_equal(a @ np.array(x) % 2, b)
                for x in itertools.product((0, 1), repeat=n)
            )
            assert gf2_solvable(a, b) == brute

    def test_column_span_against_exhaustive_oracle(self):
        # rows as column-index sets, zero columns included
        rng = np.random.default_rng(13)
        for _ in range(60):
            m, n = int(rng.integers(1, 6)), int(rng.integers(0, 6))
            a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            b = rng.integers(0, 2, size=m, dtype=np.uint8)
            brute = any(
                np.array_equal(a @ np.array(x, dtype=np.uint8) % 2, b)
                for x in itertools.product((0, 1), repeat=n)
            )
            assert in_column_span(*csr(column_sets(a)), b) == brute

    def test_column_span_property(self):
        span_property(in_column_span)()

    def test_planted_defects_fail_the_column_span_property(self):
        def unshifted(starts, entries, b):
            # b joins column 0 of the matrix instead of a column of its own
            b = np.asarray(b, dtype=bool)
            entries = np.insert(entries[:starts[-1]], starts[:-1][b], 0)
            starts = starts + np.concatenate(([0], np.cumsum(b)))
            return 0 not in pivots(starts, entries)

        def zero_is_a_pivot(starts, entries, b):
            b = np.asarray(b, dtype=bool)
            entries = np.insert(entries[:starts[-1]] + 1, starts[:-1][b], 0)
            starts = starts + np.concatenate(([0], np.cumsum(b)))
            return 0 in pivots(starts, entries)

        for kernel in (unshifted, zero_is_a_pivot):
            with pytest.raises(AssertionError):
                span_property(kernel, phases=(Phase.generate,))()

    def test_zero_rhs_always_solvable(self):
        assert gf2_solvable(np.zeros((3, 0), dtype=np.uint8), np.zeros(3))

    def test_no_columns_nonzero_rhs(self):
        assert not gf2_solvable(np.zeros((2, 0), dtype=np.uint8), [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2_solvable(np.zeros((2, 2), dtype=np.uint8), [1, 0, 0])


class TestSparse:
    def test_pivots_count_the_rank(self):
        for a in random_matrices(seed=17):
            found = pivots(*csr(column_sets(a)))
            assert len(found) == len(set(found)) == oracle_rank(a)
            assert all(0 <= p < a.shape[1] for p in found)

    def test_duplicate_rows_collapse(self):
        rows = [{0, 1}, {0, 1}, {2}]
        assert rank_sparse(rows, 3) == 2

    def test_repeated_column_set_once(self):
        # the row [0, 0, 1] is {0, 1}: a repeated column does not cancel
        assert rank_sparse([[0, 0, 1], [1]], 2) == 2

    def test_pivots_match_span_oracle(self):
        pivot_property(pivots)()

    def test_every_case_in_one_table(self):
        # empty rows, a repeated entry, four rows with highest column 2
        rows = [[], [2, 2], [0, 2], [1], [1, 2], [2], [0, 0, 1], []]
        for keep in itertools.product((False, True), repeat=len(rows)):
            assert set(pivots(*csr(rows), np.array(keep))) == span_pivots(rows, keep)
        assert sorted(pivots(*csr(rows))) == [0, 1, 2]

    def test_planted_defects_fail_the_property(self):
        def ignores_keep(starts, entries, keep):
            return pivots(starts, entries)

        def distinct_tops_only(starts, entries, keep):
            # as if every row after the first at a highest column reduced to 0
            return sorted({max(entries[a:b]) for a, b, k in zip(starts, starts[1:], keep)
                           if k and b > a})

        for kernel in (ignores_keep, distinct_tops_only):
            with pytest.raises(AssertionError):
                pivot_property(kernel, phases=(Phase.generate,))()

    def test_wide_matrix(self):
        n = 10_005
        rows = [{i, i + 1} for i in range(0, n - 1, 2)]
        assert rank_sparse(rows, n) == len(rows)


class TestElimination:
    def test_pivots_are_highest_bits(self):
        basis = span([0b0110, 0b0011, 0b0101, 0b1000])
        assert all(row.bit_length() - 1 == p for p, row in basis.items())
        assert sorted(basis) == [1, 2, 3]

    def test_membership_is_reduction_to_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rows = [int(r) for r in rng.integers(0, 64, size=4)]
            basis = span(rows)
            members = {0}
            for r in rows:
                members |= {m ^ r for m in members}
            for v in range(64):
                assert (reduce(v, basis) == 0) == (v in members)
