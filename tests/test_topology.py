import copy
import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from homlab import (CellComplex, FreenessError, Graph, HomPoset, InputError,
                    InvariantError, Z2Graph, betti_mod2, complete, complete_flip,
                    conn_proxy, cup_power, cycle, cycle_reflection,
                    enumerate_hom, hom_complex, induced_involution,
                    is_coboundary, order_complex, paper_T, quotient_with_w1,
                    sw_height, unit_class)
from homlab.complexes import (CocycleClass, ConnResult, Table, _boundary_squares_to_zero,
                              coboundary, w1_height)
from homlab.errors import ResourceLimitError
from homlab.gf2 import rank_sparse

from conftest import (chains, dfs_chains, eager_in_column_span, element_cap, element_sets,
                      generic_quotient, numbered, simplicial_complex, simplicial_involution)


class RelationPoset:
    """The poset on 0..n-1 under ``leq``; each up-set is a scan of ``leq``
    over all n elements, made on its first request and kept."""

    def __init__(self, n, leq):
        self.n, self.leq, self.ups = n, leq, {}

    def __len__(self):
        return self.n

    def above(self, i):
        if i not in self.ups:
            self.ups[i] = [j for j in range(self.n) if j != i and self.leq(i, j)]
        return self.ups[i]


def order_complex_from_relation(n, leq):
    """Oracle: the order complex of the poset on 0..n-1 under ``leq``."""
    return order_complex(RelationPoset(n, leq))


def betti_from_every_rank(x):
    """Oracle: Betti numbers from the ranks of every boundary's face rows,
    with no clearing."""
    ranks = [rank_sparse(x.faces[d].rows(), x.n_cells(d - 1)) if 1 <= d <= x.dim else 0
             for d in range(x.dim + 2)]
    return tuple(x.n_cells(d) - ranks[d] - ranks[d + 1] for d in range(x.dim + 1))


def hexagon():
    verts = [(i,) for i in range(6)]
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return simplicial_complex([verts, edges])


def octahedron_subdivision():
    """Barycentric subdivision of the octahedron boundary, a 2-sphere.

    Built as the order complex of the face poset, where the antipodal map
    (vertex pairs (0,3), (1,4), (2,5)) is a rank-preserving automorphism and
    therefore simplicial on ascending chains.
    """
    antipode = {i: (i + 3) % 6 for i in range(6)}
    tris = [frozenset(t) for t in itertools.combinations(range(6), 3)
            if all(antipode[u] not in t for u in t)]
    edges = {frozenset(e) for t in tris
             for e in itertools.combinations(sorted(t), 2)}
    cells = ([frozenset({i}) for i in range(6)]
             + sorted(edges, key=sorted) + sorted(tris, key=sorted))
    x = order_complex_from_relation(len(cells),
                                    lambda i, j: cells[i] <= cells[j])
    pos = {c: i for i, c in enumerate(cells)}
    tau = {i: pos[frozenset(antipode[v] for v in cells[i])]
           for i in range(len(cells))}
    return x, tau


def dense_face_matrix(x, d):
    """The mod-2 boundary from d-cells as a dense matrix, read off the face
    lists."""
    mat = np.zeros((x.n_cells(d - 1), x.n_cells(d)), dtype=np.int64)
    for j, row in enumerate(x.faces[d].rows()):
        for f in row:
            mat[f, j] ^= 1
    return mat


class TestOrderedDeltaComplex:
    def test_missing_face_rejected(self):
        # 0 < 1 and 1 < 2 without 0 < 2: the chain (0, 1, 2) lacks its face (0, 2)
        with pytest.raises(InputError, match=r"face \(0, 2\) of \(0, 1, 2\) is missing"):
            order_complex(RelationPoset(3, lambda i, j: j == i + 1))

    def test_duplicate_simplex_rejected(self):
        class Repeating(RelationPoset):
            def above(self, i):
                return [j for j in super().above(i) for _ in range(2)]
        with pytest.raises(InputError):
            order_complex(Repeating(2, lambda i, j: i <= j))

    def test_empty_levels_trimmed(self):
        x = simplicial_complex([[(0,)], []])
        assert x.dim == 0

    def test_boundary_squared_is_zero(self, hom_k2_k4, boundary_matrix):
        x = order_complex(hom_k2_k4)
        for d in range(1, x.dim + 1):
            prod = (boundary_matrix(x, d) @ boundary_matrix(x, d + 1)) % 2
            assert not prod.any()

    def test_face_table_matches_dense(self, hom_k2_k4, boundary_matrix):
        x = order_complex(hom_k2_k4)
        rng = np.random.default_rng(3)
        for d in range(1, x.dim + 1):
            dense = boundary_matrix(x, d)
            for j, row in enumerate(x.faces[d].rows()):
                assert sorted(row) == list(np.nonzero(dense[:, j])[0])
            c = CocycleClass(x, d - 1, rng.integers(0, 2, x.n_cells(d - 1),
                                                     dtype=np.uint8))
            assert np.array_equal(coboundary(c).values, dense.T @ c.values % 2)

    @pytest.mark.parametrize("source, m", [
        (complete(2), 3), (complete(2), 4), (complete(2), 5), (complete(2), 6),
        (paper_T(), 3), (cycle(5), 4),
    ])
    def test_tables_match_tuple_oracle(self, source, m, simplex_tables):
        poset = enumerate_hom(source, complete(m))
        x = order_complex(poset)
        names = [chains(level) for level in x.cells]
        assert names == dfs_chains(poset)
        faces, tops = simplex_tables(names)
        assert [t.rows() for t in x.faces] == faces
        assert [t.rows() for t in x.tops] == tops

    def test_given_faces_match_derived(self, hom_k2_k4_swap):
        # each quotient face list must list the orbits of the faces of its
        # lift, found here by the order relation
        p = hom_k2_k4_swap
        x = hom_complex(p)
        q, _ = quotient_with_w1(p)
        for d in range(1, q.dim + 1):
            for i, row in zip(q.cells[d], q.faces[d].rows()):
                faces = [j for j in x.cells[d - 1] if p.leq(j, i)]
                assert sorted(q.cells[d - 1][f] for f in row) == sorted(
                    min(j, p.involution[j]) for j in faces)

    def test_front_edges_match_tuple_lookup(self, K2):
        # on simplices: z on the consecutive edges, found by tuple lookup
        x = order_complex(enumerate_hom(K2, complete(5)))
        rng = np.random.default_rng(11)
        z = coboundary(CocycleClass(x, 0, rng.integers(0, 2, x.n_cells(0),
                                                       dtype=np.uint8)))
        edge = {s: j for j, s in enumerate(chains(x.cells[1]))}
        for n in range(1, x.dim + 1):
            assert cup_power(z, n).values.tolist() == [
                int(all(z.values[edge[s[i - 1:i + 1]]] for i in range(1, n + 1)))
                for s in chains(x.cells[n])]

    @pytest.mark.parametrize("tables", [
        ([0, 1, 2], [0, 1], [0, 1], [[0, 0]]),  # two face rows for one edge
        ([0, 2], [0, 2], [0, 1], [[0, 0]]),     # no vertex 2
        ([0, 2], [0, -1], [0, 1], [[0, 0]]),    # negative index
        ([0, 3], [0, 1], [0, 1], [[0, 0]]),     # rows past the entries
        ([0, 2], [0, 1], [0, 1], [[0, 1]]),     # no edge 1
        ([0, 2], [0, 1], [0, 1], [[0]]),        # a top pair of one entry
    ])
    def test_given_faces_checked(self, tables):
        def edge(face_starts, face, top_starts, top):
            def arr(a):
                return np.array(a, dtype=np.intp)
            return CellComplex([["a", "b"], ["e"]],
                               [Table.empty(2), Table(arr(face_starts), arr(face))],
                               [Table.empty(2, (2,)), Table(arr(top_starts), arr(top))])
        assert betti_mod2(edge([0, 2], [0, 1], [0, 1], [[0, 0]])) == (1, 0)
        with pytest.raises(InputError):
            edge(*tables)


class TestBetti:
    def test_point(self):
        assert betti_mod2(simplicial_complex([[(0,)]])) == (1,)

    def test_circle(self):
        assert betti_mod2(hexagon()) == (1, 1)

    def test_sphere(self):
        x, _ = octahedron_subdivision()
        assert betti_mod2(x) == (1, 0, 1)

    def test_two_points_reduced(self):
        # conn_proxy reads the reduced b_0 as b_0 - 1
        x = simplicial_complex([[(0,), (1,)]])
        assert betti_mod2(x) == (2,)
        assert conn_proxy(x) == ConnResult(-1, True)

    def test_empty(self):
        assert betti_mod2(simplicial_complex([])) == ()

    def test_hom_k2_k3_is_a_circle(self, hom_k2_k3):
        assert betti_mod2(order_complex(hom_k2_k3)) == (1, 1)

    def test_hom_k2_k4_is_a_sphere(self, hom_k2_k4):
        assert betti_mod2(order_complex(hom_k2_k4)) == (1, 0, 1)

    def test_homotopy_invariance_spot_check(self, hom_k2_k3):
        # the order complex of Hom(K2, K3) and a bare hexagon are both circles
        assert betti_mod2(order_complex(hom_k2_k3)) == betti_mod2(hexagon())

    @pytest.mark.parametrize("source, m, betti", [
        (complete(2), 7, (1, 0, 0, 0, 0, 1)),
        (complete(3), 5, (1, 0, 29)),
        (cycle(5), 4, (1, 1, 1, 1)),
        (paper_T(), 3, (4, 4, 0)),
    ])
    def test_hom_cells(self, source, m, betti):
        assert betti_mod2(hom_complex(enumerate_hom(source, complete(m)))) == betti


    @pytest.mark.parametrize("source, m", [
        (complete(2), 3), (complete(2), 4), (complete(2), 5), (complete(2), 6),
        (cycle(5), 4), (paper_T(), 3),
    ])
    def test_clearing_matches_every_rank(self, source, m):
        """Betti numbers from the ranks of all boundary rows, none skipped."""
        poset = enumerate_hom(source, complete(m))
        for x in (hom_complex(poset), order_complex(poset)):
            assert betti_mod2(x) == betti_from_every_rank(x)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_clearing_matches_every_rank_on_small_graphs(self, small_graphs, data):
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(0, loops=True))
        try:
            with element_cap(400):
                poset = enumerate_hom(source, target)
            with element_cap(20000):
                xs = hom_complex(poset), order_complex(poset)
        except ResourceLimitError:
            assume(False)
        for x in xs:
            assert betti_mod2(x) == betti_from_every_rank(x)

    def test_apparent_pivots_stay_unpacked(self, monkeypatch):
        """Coboundary ranks of Hom(K2, K5)'s order complex go up from degree
        0; clearing leaves every top simplex out of the rows, and in degrees
        1 and 2 nearly every kept row has a highest coface no earlier row
        has, and stays unpacked."""
        from homlab import complexes, gf2

        pack, pivots = gf2._pack, gf2.pivots
        calls = []  # per coboundary rank: [degree, rows kept, rows packed]

        def counting_pack(row):
            calls[-1][2] += 1
            return pack(row)

        def counting_pivots(starts, entries, keep):
            degree = [x.n_cells(d) for d in range(x.dim + 1)].index(len(starts) - 1)
            calls.append([degree, int(keep.sum()), 0])
            return pivots(starts, entries, keep)

        monkeypatch.setattr(gf2, "_pack", counting_pack)
        monkeypatch.setattr(complexes, "pivots", counting_pivots)
        x = order_complex(enumerate_hom(complete(2), complete(5)))
        assert [x.n_cells(d) for d in range(4)] == [180, 1140, 1920, 960]
        assert betti_mod2(x) == (1, 0, 0, 1)
        assert [(degree, kept) for degree, kept, _ in calls] == [(0, 180), (1, 961), (2, 959)]
        upper = calls[1:]
        assert 10 * sum(packed for *_, packed in upper) < sum(kept for _, kept, _ in upper)

    def test_memory_follows_the_face_tables(self):
        """The ranks of Hom(K2, K6)'s order complex hold less than 2.5 times
        the bytes of its face tables at any time."""
        import tracemalloc
        x = order_complex(enumerate_hom(complete(2), complete(6)))
        tables = sum(t.starts.nbytes + t.entries.nbytes for t in x.faces)
        tracemalloc.start()
        try:
            assert betti_mod2(x) == (1, 0, 0, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * tables


class TestOrderComplex:
    def test_total_order_gives_full_simplex(self):
        x = order_complex_from_relation(4, lambda i, j: i <= j)
        # chains of a 4-chain: all nonempty subsets
        assert [x.n_cells(d) for d in range(4)] == [4, 6, 4, 1]

    def test_antichain_gives_points(self):
        x = order_complex_from_relation(5, lambda i, j: i == j)
        assert x.dim == 0 and x.n_cells(0) == 5

    def test_chain_cap(self, monkeypatch):
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "10")
        with pytest.raises(ResourceLimitError):
            order_complex_from_relation(6, lambda i, j: i <= j)

    def test_chain_cap_bounds_leq_calls(self, monkeypatch):
        n, calls = 100, []

        def leq(i, j):
            calls.append((i, j))
            return i <= j
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "5")
        with pytest.raises(ResourceLimitError):
            order_complex_from_relation(n, leq)
        # each chain within the cap scans at most one new element's upset
        assert len(calls) <= 5 * (n - 1) < n * (n - 1)

    def test_vertices_are_poset_indices(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        assert [s[0] for s in x.cells[0]] == list(range(12))
        assert x.n_cells(0) == 12 and x.n_cells(1) == 12

    @pytest.mark.parametrize("source, m", [
        (complete(2), 4), (complete(2), 6), (paper_T(), 3), (cycle(5), 4),
    ])
    def test_levels_are_ascending_chain_rows(self, source, m):
        # each row climbs the poset strictly; the rows ascend as index tuples
        poset = enumerate_hom(source, complete(m))
        masks = np.array(poset.elements)
        x = order_complex(poset)
        for d, level in enumerate(x.cells):
            assert isinstance(level, np.ndarray) and level.dtype == np.intp
            assert level.shape == (x.n_cells(d), d + 1)
            lower, upper = masks[level[:, :-1]], masks[level[:, 1:]]
            assert not (lower & ~upper).any() and (lower != upper).any(axis=-1).all()
            names = chains(level)
            assert names == sorted(set(names))

    def test_memory_follows_the_names_and_tables(self, K2):
        """Building Hom(K2, K6)'s order complex holds less than twice the
        bytes of its names, face tables and top tables at any time."""
        import tracemalloc
        poset = enumerate_hom(K2, complete(6))
        order_complex(poset)  # builds the poset's cover table
        tracemalloc.start()
        try:
            x = order_complex(poset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(level.nbytes for level in x.cells) + sum(
            t.starts.nbytes + t.entries.nbytes for t in x.faces + x.tops)
        assert peak < 2 * held

    def test_hom_poset_never_calls_leq(self, hom_T_k3, monkeypatch):
        def refuse(self, i, j):
            raise AssertionError("order_complex scanned leq")
        monkeypatch.setattr(HomPoset, "leq", refuse)
        x = order_complex(hom_T_k3)
        assert [x.n_cells(d) for d in range(3)] == [2160, 6000, 3840]

    def test_hom_chain_cap_leaves_upsets_unwalked(self, K2, monkeypatch):
        poset = enumerate_hom(K2, complete(7))
        walked, above = [], HomPoset.above

        def counted(self, i):
            walked.append(i)
            return above(self, i)
        monkeypatch.setattr(HomPoset, "above", counted)
        # 1,932 elements and 45,612 up-set entries are within 100,000, the
        # chains of length 3 are not
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "100000")
        with pytest.raises(ResourceLimitError):
            order_complex(poset)
        assert sorted(walked) == list(range(len(poset)))
        assert len(poset) + sum(len(above(poset, i)) for i in walked) <= 100_000
        walked.clear()
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "10000")
        with pytest.raises(ResourceLimitError):
            order_complex(poset)
        assert len(walked) == len(set(walked)) < len(poset)

    def test_poset_past_the_cap_builds_no_covers(self, K2, monkeypatch):
        # every element is a 0-chain, so 180 elements break a cap of 179
        # before any up-set is walked or any cover table built
        def refuse(self, i):
            raise AssertionError("order_complex walked an up-set")
        monkeypatch.setattr(HomPoset, "above", refuse)
        poset = enumerate_hom(K2, complete(5))
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", str(len(poset) - 1))
        with pytest.raises(ResourceLimitError):
            order_complex(poset)
        assert "covers" not in vars(poset._rows)

    def test_descending_upsets_rejected(self):
        class Descending(RelationPoset):
            def above(self, i):
                return super().above(i)[::-1]
        with pytest.raises(InputError):
            order_complex(Descending(4, lambda i, j: i <= j))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_upsets_match_leq_route(self, small_graphs, simplex_tables, data):
        source = data.draw(small_graphs(1, loops=False))
        target = data.draw(small_graphs(2, loops=True))
        check_upsets_against_leq(source, target, simplex_tables)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_looped_upsets_match_leq_route(self, small_graphs, simplex_tables, data):
        # a looped source vertex walks its covers through the loop term
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(2, loops=True))
        check_upsets_against_leq(source, target, simplex_tables)


def check_upsets_against_leq(source, target, simplex_tables):
    """The order complex on the up-set walk equals the one on the ``leq``
    scan, its names are the depth-first walk's over that scan and its
    tables are the tuple oracle's."""
    try:
        with element_cap(400):
            poset = enumerate_hom(source, target)
    except ResourceLimitError:
        assume(False)
    relation = RelationPoset(len(poset), poset.leq)
    built = []
    for route in (poset, relation):
        try:
            with element_cap(20_000):
                built.append(order_complex(route))
        except ResourceLimitError:
            built.append(None)
    if built[0] is None:
        assert built[1] is None

        @functools.cache
        def starting(i):
            # the chains with least element i: i alone, or i before a chain above it
            return 1 + sum(map(starting, relation.above(i)))
        assert sum(map(starting, range(len(poset)))) > 20_000
        return
    names = [chains(level) for level in built[0].cells]
    assert names == [chains(level) for level in built[1].cells]
    assert names == dfs_chains(relation)
    x = built[0]
    faces, tops = simplex_tables(names)
    assert [t.rows() for t in x.faces] == faces
    assert [t.rows() for t in x.tops] == tops


def barycentric_height(poset, on_simplices) -> float:
    """Oracle: the height on the order complex of the whole poset, where
    cup powers are front-face products of simplices."""
    if len(poset) == 0:
        return -math.inf
    x = order_complex(poset)
    _, w1 = generic_quotient(*on_simplices(x, poset.involution))
    return w1_height(w1)


def section_changing_paths(poset, index, i) -> int:
    """Oracle for w1^n on the Hom cell ``i``: the monotone lattice paths
    through its atoms, from the lowest to the highest, every step of which
    changes section membership, counted mod 2.  An atom is in the section
    when its index is below its image's; ``index`` maps element tuples to
    their indices."""
    colors = [[b for b in range(m.bit_length()) if m >> b & 1]
              for m in poset.elements[i]]

    def in_section(at):
        a = index[tuple(1 << colors[v][k] for v, k in enumerate(at))]
        return a < poset.involution[a]

    @functools.lru_cache(maxsize=None)
    def paths(at):
        if not any(at):
            return 1
        steps = (at[:v] + (k - 1,) + at[v + 1:] for v, k in enumerate(at) if k)
        return sum(paths(b) for b in steps if in_section(b) != in_section(at))
    return paths(tuple(len(c) - 1 for c in colors)) % 2


class TestHomComplex:
    @pytest.mark.parametrize("source, m, counts", [
        (complete(2), 6, [30, 120, 210, 180, 62]),
        (cycle(5), 4, [240, 780, 840, 300]),
        (paper_T(), 3, [600, 1080, 480]),
    ])
    def test_simplex_counts(self, source, m, counts):
        # cells per dimension, each a product of simplices
        x = hom_complex(enumerate_hom(source, complete(m)))
        assert [x.n_cells(d) for d in range(x.dim + 1)] == counts

    @pytest.mark.parametrize("z, m, counts", [
        (complete_flip(2), 6, [15, 60, 105, 90, 31]),
        (cycle_reflection(5), 4, [120, 390, 420, 150]),
    ])
    def test_orbit_cell_counts(self, z, m, counts):
        poset = induced_involution(z, enumerate_hom(z.graph, complete(m)))
        q, _ = quotient_with_w1(poset)
        assert [q.n_cells(d) for d in range(q.dim + 1)] == counts

    def test_vertices_are_atoms(self, hom_k2_k3):
        x = hom_complex(hom_k2_k3)
        assert list(x.cells[0]) == list(hom_k2_k3.atoms)
        assert betti_mod2(x) == (1, 1)

    @pytest.mark.parametrize("source, m", [
        (complete(2), 4), (complete(3), 4), (cycle(5), 3), (paper_T(), 3),
    ])
    def test_hom_cells_match_definition(self, source, m):
        # a cell's faces are the elements below it of one dimension less,
        # and its boundary squares to zero
        p = enumerate_hom(source, complete(m))
        x = hom_complex(p)
        assert sorted(i for level in x.cells for i in level) == list(range(len(p)))
        for d in range(x.dim + 1):
            for i in x.cells[d]:
                assert sum(map(len, element_sets(p, i))) - \
                    len(source.vertices) == d
        for d in range(1, x.dim + 1):
            for i, row in zip(x.cells[d], x.faces[d].rows()):
                assert sorted(x.cells[d - 1][f] for f in row) == [
                    j for j in x.cells[d - 1] if p.leq(j, i)]
            if d >= 2:
                prod = dense_face_matrix(x, d - 1) @ dense_face_matrix(x, d)
                assert not (prod % 2).any()

    def test_hom_tops_match_definition(self, hom_k2_k4, index_of):
        # one top pair per set of size >= 2: drop its largest color, and the
        # edge from the largest colors of that face to those of the cell
        p, x = hom_k2_k4, hom_complex(hom_k2_k4)
        index = index_of(p)

        def peak(e):
            return tuple(1 << (m.bit_length() - 1) for m in e)

        for d in range(1, x.dim + 1):
            for i, row in zip(x.cells[d], x.tops[d].rows()):
                e, want = p.elements[i], []
                for v, m in enumerate(e):
                    if m & (m - 1):
                        top = 1 << (m.bit_length() - 1)
                        face = e[:v] + (m ^ top,) + e[v + 1:]
                        edge = tuple(a | b for a, b in zip(peak(face), peak(e)))
                        want.append((index[face], index[edge]))
                assert sorted((x.cells[d - 1][f], x.cells[1][g]) for f, g in row) \
                    == sorted(want)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_cells_match_tuple_walk(self, small_graphs, hom_cells, data):
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(0, loops=True))
        check_cells_against_tuple_walk(enumerate_hom(source, target), hom_cells)

    @pytest.mark.parametrize("n", [8, 9, 64, 65, 70])
    def test_cells_at_mask_dtype_boundaries(self, K2, n, hom_cells):
        check_cells_against_tuple_walk(enumerate_hom(K2, cycle(n)), hom_cells)

    @pytest.mark.parametrize("n, isolated, dtype", [
        (62, 0, "int64"), (64, 0, "object"), (38, 1, "int64"), (38, 2, "object")])
    def test_key_dtype_boundaries(self, n, isolated, dtype, hom_cells,
                                  dict_involution, atom_components):
        """Row keys are int64 while (number of ranks) ** |V(source)| is below
        2**63 and Python ints beyond, and the answers do not depend on it.
        Sources: the path on ``n`` vertices, reversed (which flips its
        middle edge), beside isolated vertices, which take every set of
        colors of K2 (three ranks in all), so that the Hom complex has
        1-cells."""
        vertices = list(range(n)) + [f"i{k}" for k in range(isolated)]
        path = Graph.build(vertices, [(i, i + 1) for i in range(n - 1)])
        z = Z2Graph.build(path, {v: n - 1 - v if isinstance(v, int) else v
                                 for v in vertices})
        poset = enumerate_hom(path, complete(2))
        rows = poset._rows
        assert (len(rows.rank) ** len(vertices) < 2**63) == (dtype == "int64")
        assert str(rows.keys().dtype) == dtype
        check_cells_against_tuple_walk(poset, hom_cells)
        assert np.array_equal(induced_involution(z, poset).involution,
                              dict_involution(z, poset))
        assert np.array_equal(poset.component_labels, atom_components(poset))

    def test_chain_cap(self, K2, monkeypatch):
        # the cap counts cells; without max_chains sw_height reads the
        # element cap
        poset = induced_involution(complete_flip(2), enumerate_hom(K2, complete(7)))
        assert sum(map(len, hom_complex(poset).cells)) == 1932
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "1932")
        assert sw_height(poset).value == 5
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "1931")
        with pytest.raises(ResourceLimitError, match="cap of 1931 cells"):
            sw_height(poset)

    def test_k2_k7_height_inside_chain_budget(self, K2, monkeypatch):
        from homlab import complexes

        poset = induced_involution(complete_flip(2), enumerate_hom(K2, complete(7)))
        res = sw_height(poset, max_chains=100_000)
        assert (res.value, res.exact) == (5, True)

        def refuse(*args, **kwargs):
            raise AssertionError("sw_height built the quotient past its cap")
        # the cap is checked before the quotient is built
        monkeypatch.setattr(complexes, "quotient_with_w1", refuse)
        with pytest.raises(ResourceLimitError, match="method='component'"):
            sw_height(poset, max_chains=1931)

    def test_c5_k5_full_height(self):
        # 45,540 cells; the barycentric and staircase routes cannot afford it
        t0 = time.monotonic()
        z = cycle_reflection(5)
        poset = induced_involution(z, enumerate_hom(z.graph, complete(5)))
        res = sw_height(poset)
        assert len(poset) == 45_540 and (res.value, res.exact) == (2, True)
        assert time.monotonic() - t0 < 20

    def test_sw_height_never_builds_order_complex(self, hom_k2_k4_swap, monkeypatch):
        from homlab import complexes

        def refuse(*args, **kwargs):
            raise AssertionError("sw_height built the order complex")
        monkeypatch.setattr(complexes, "order_complex", refuse)
        assert sw_height(hom_k2_k4_swap).value == 2

    @pytest.mark.parametrize("z, m", [(complete_flip(2), 5), (cycle_reflection(5), 4)])
    def test_cup_power_counts_section_changing_paths(self, z, m, index_of):
        poset = induced_involution(z, enumerate_hom(z.graph, complete(m)))
        index = index_of(poset)
        q, w1 = quotient_with_w1(poset)
        for n in range(1, q.dim + 1):
            assert cup_power(w1, n).values.tolist() == [
                section_changing_paths(poset, index, i) for i in q.cells[n]]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_order_complex(self, small_graphs, on_simplices, data):
        z = data.draw(st.sampled_from(
            [complete_flip(2), complete_flip(3), cycle_reflection(5)]))
        target = data.draw(small_graphs(1, loops=False))
        try:
            with element_cap(1000):
                poset = induced_involution(z, enumerate_hom(z.graph, target))
        except ResourceLimitError:
            assume(False)
        assert sw_height(poset).value == barycentric_height(poset, on_simplices)
        assert betti_mod2(hom_complex(poset)) == betti_mod2(order_complex(poset))


def check_cells_against_tuple_walk(poset, hom_cells):
    """``hom_complex`` has the tuple walk's cells, face rows and top rows."""
    x = hom_complex(poset)
    cells, faces, tops = hom_cells(poset)
    assert [list(level) for level in x.cells] == cells
    assert [t.rows() for t in x.faces] == faces
    assert [t.rows() for t in x.tops] == tops


class TestQuotient:
    def test_hexagon_antipodal_gives_triangle(self, on_simplices):
        x = hexagon()
        q, w1 = generic_quotient(*on_simplices(x, {i: (i + 3) % 6 for i in range(6)}))
        assert q.n_cells(0) == 3 and q.n_cells(1) == 3
        assert betti_mod2(q) == (1, 1)
        assert w1.check_cocycle()
        assert not is_coboundary(w1)  # the double cover is nontrivial

    def test_two_hexagons_swapped_gives_trivial_cover(self, on_simplices):
        verts = [(i,) for i in range(12)]
        edges = [(i, (i + 1) % 6) for i in range(6)] + \
                [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        x = simplicial_complex([verts, edges])
        q, w1 = generic_quotient(*on_simplices(x, {i: (i + 6) % 12 for i in range(12)}))
        assert betti_mod2(q) == (1, 1)
        assert is_coboundary(w1)  # disconnected double cover, trivial twist

    def test_octahedron_gives_projective_plane(self, on_simplices):
        x, antipode = octahedron_subdivision()
        q, w1 = generic_quotient(*on_simplices(x, antipode))
        assert betti_mod2(q) == (1, 1, 1)
        assert not is_coboundary(w1)
        assert not is_coboundary(cup_power(w1, 2))
        assert cup_power(w1, 3).values.size == 0

    def test_fixed_vertex_raises_freeness(self, on_simplices):
        x = hexagon()
        with pytest.raises(FreenessError):
            generic_quotient(*on_simplices(x, {0: 0, 3: 3, 1: 4, 4: 1, 2: 5, 5: 2}))

    def test_non_simplicial_raises(self, on_simplices):
        # vertex permutation of order two that does not send edges to edges
        x = hexagon()
        with pytest.raises(InputError):
            generic_quotient(*on_simplices(x, {0: 2, 2: 0, 1: 4, 4: 1, 3: 5, 5: 3}))

    def test_not_order_two_raises(self, on_simplices):
        x = hexagon()
        with pytest.raises(InputError):
            generic_quotient(*on_simplices(x, {i: (i + 2) % 6 for i in range(6)}))

    def test_not_commuting_with_faces_raises(self):
        # vertices swap within {0, 1}, {2, 3}, {4, 5} while each edge goes to
        # its opposite: every cell goes to a cell, but not face to face
        x = hexagon()
        tau = simplicial_involution(x, {i: (i + 3) % 6 for i in range(6)})
        tau.update({(i,): (i ^ 1,) for i in range(6)})
        with pytest.raises(InputError):
            generic_quotient(*numbered(x, tau))

    def test_not_commuting_with_top_pairs_raises(self):
        # 0 <-> 3 and 1 <-> 2 send the faces of (0, 1) to those of (2, 3),
        # but its top pair ((0,), (0, 1)) to ((3,), (2, 3)), not a top pair
        x = simplicial_complex([[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)]])
        tau = {(0,): (3,), (3,): (0,), (1,): (2,), (2,): (1,),
               (0, 1): (2, 3), (2, 3): (0, 1)}
        with pytest.raises(InputError):
            generic_quotient(*numbered(x, tau))

    def test_boundary_of_boundary_checked(self):
        # a tau-invariant cover whose 2-cells bound single edges, so their
        # boundaries do not square to zero
        def table(rows):
            rows = np.array(rows, dtype=np.intp)
            return Table(np.arange(3) * rows.shape[1], rows.reshape((-1,) + rows.shape[2:]))
        x = CellComplex([["a0", "a1", "b0", "b1"], ["e", "f"], ["t", "u"]],
                        [Table.empty(4), table([[0, 1], [2, 3]]), table([[0], [1]])],
                        [Table.empty(4, (2,)), table([[[0, 0]], [[2, 1]]]),
                         table([[[0, 0]], [[1, 1]]])])
        tau = {"a0": "b0", "b0": "a0", "a1": "b1", "b1": "a1",
               "e": "f", "f": "e", "t": "u", "u": "t"}
        with pytest.raises(InvariantError):
            generic_quotient(*numbered(x, tau))

    def test_boundary_check_covers_every_run(self):
        """One planted face defect fails the check wherever it lands: in
        dimensions 2-5 of C5/reflection -> K5 the face-of-face pairs outnumber
        the face entries, so the check takes each dimension in several runs
        of cells, and the last cell lies past the first run."""
        z = cycle_reflection(5)
        q, _ = quotient_with_w1(induced_involution(z, enumerate_hom(z.graph, complete(5))))
        assert q.dim == 5 and _boundary_squares_to_zero(q)
        for d in range(2, 6):
            outer, inner = q.faces[d], q.faces[d - 1]
            assert np.diff(inner.starts)[outer.entries].sum() > len(outer.entries)
            rows = inner.rows()
            for cell in np.linspace(0, q.n_cells(d) - 1, 4).astype(int):
                row = outer.entries[outer.starts[cell]:outer.starts[cell + 1]]
                # swap the first face for a cell with another boundary
                other = next(g for g in range(q.n_cells(d - 1))
                             if g not in row and set(rows[g]) != set(rows[row[0]]))
                entries = outer.entries.copy()
                entries[outer.starts[cell]] = other
                faces = list(q.faces)
                faces[d] = Table(outer.starts, entries)
                assert not _boundary_squares_to_zero(CellComplex(q.cells, faces, q.tops))

    def test_tau_contract_checked(self, on_simplices):
        # the hexagon's vertices are cells 0-5 and its edges 6-11
        x, tau = on_simplices(hexagon(), {i: (i + 3) % 6 for i in range(6)})
        assert betti_mod2(generic_quotient(x, tau)[0]) == (1, 1)
        # a name past len(tau), a float tau, names that do not ascend
        descending = CellComplex([x.cells[0][::-1], x.cells[1]], x.faces, x.tops)
        for bad, match in [((x, tau[:-1]), "indices of tau"),
                           ((x, tau.astype(float)), "integer array"),
                           ((descending, tau), "ascending")]:
            with pytest.raises(InputError, match=match):
                generic_quotient(*bad)
        # a vertex sent to an edge, an edge to a vertex, a cell to no cell
        for cell, image in [(0, 6), (6, 0), (3, -1)]:
            spoiled = tau.copy()
            spoiled[cell] = image
            with pytest.raises(InputError, match="to no"):
                generic_quotient(x, spoiled)

    def test_halving(self, hom_k2_k4, hom_k2_k4_swap, on_simplices):
        chains_x = order_complex(hom_k2_k4)
        for x, (q, _) in [
            (chains_x, generic_quotient(*on_simplices(chains_x, hom_k2_k4_swap.involution))),
            (hom_complex(hom_k2_k4_swap), quotient_with_w1(hom_k2_k4_swap)),
        ]:
            for d in range(x.dim + 1):
                assert 2 * q.n_cells(d) == x.n_cells(d)

    def test_hom_orbit_cells(self, hom_k2_k4_swap):
        p = hom_k2_k4_swap
        x = hom_complex(p)
        q, w1 = quotient_with_w1(p)
        assert [q.n_cells(d) for d in range(3)] == [6, 12, 7]
        for d in range(q.dim + 1):
            # each orbit is named by its lift, the lower of the pair
            assert sorted(q.cells[d]) == sorted(i for i in x.cells[d]
                                                if i < p.involution[i])
        for i, value in zip(q.cells[1], w1.values):
            a, b = [j for j in x.cells[0] if p.leq(j, i)]
            assert value == ((a < p.involution[a]) != (b < p.involution[b]))
        assert betti_mod2(q) == (1, 1, 1)  # the projective plane
        assert not is_coboundary(cup_power(w1, 2))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_generic_quotient(self, small_graphs, data):
        # the lift-row build has the cells, face and top tables and w1 of
        # the generic quotient of the whole Hom complex, array for array
        z = data.draw(st.sampled_from(
            [complete_flip(2), complete_flip(3), cycle_reflection(5)]))
        target = data.draw(small_graphs(1, loops=False))
        try:
            with element_cap(1000):
                poset = induced_involution(z, enumerate_hom(z.graph, target))
        except ResourceLimitError:
            assume(False)
        q, w1 = quotient_with_w1(poset)
        want, want_w1 = generic_quotient(hom_complex(poset), poset.involution)
        assert [level.tolist() for level in q.cells] == \
            [level.tolist() for level in want.cells]
        for got, expected in [(q.faces, want.faces), (q.tops, want.tops)]:
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert np.array_equal(a.starts, b.starts)
                assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(w1.values, want_w1.values)

    def test_hom_involution_checked(self, hom_k2_k3_swap):
        # an order-two permutation of the elements, fixing none
        tau = hom_k2_k3_swap.involution
        fixing = tau.copy()
        fixing[[0, tau[0]]] = [0, tau[0]]
        for bad, error in [(fixing, FreenessError), (np.roll(tau, 1), InputError),
                           (tau[:-1], InputError), (tau + 1, InputError)]:
            poset = copy.copy(hom_k2_k3_swap)
            poset.involution = bad
            with pytest.raises(error):
                quotient_with_w1(poset)

    def test_w1_class_independent_of_labeling(self, on_simplices):
        # relabel the hexagon so the canonical orbit sections differ; the
        # coboundary status of w1 is a property of the cover, not the section
        for shift in range(6):
            verts = [((i + shift) % 6,) for i in range(6)]
            verts.sort()
            edges = sorted(((i, (i + 1) % 6) for i in range(6)))
            x = simplicial_complex([verts, edges])
            q, w1 = generic_quotient(*on_simplices(x, {i: (i + 3) % 6 for i in range(6)}))
            assert not is_coboundary(w1)


class TestCupAndCoboundary:
    def test_unit_class_is_a_cocycle(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        assert unit_class(x).check_cocycle()

    def test_coboundary_of_coboundary_vanishes(self, hom_k2_k4):
        x = order_complex(hom_k2_k4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = CocycleClass(
                x, 0, rng.integers(0, 2, x.n_cells(0), dtype=np.uint8))
            assert not coboundary(coboundary(c)).values.any()

    def test_coboundaries_are_coboundaries(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        rng = np.random.default_rng(9)
        c = CocycleClass(
            x, 0, rng.integers(0, 2, x.n_cells(0), dtype=np.uint8))
        assert is_coboundary(coboundary(c))

    def test_cup_power_zero_is_unit(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        z = CocycleClass(x, 1, np.zeros(x.n_cells(1), dtype=np.uint8))
        assert np.array_equal(cup_power(z, 0).values, unit_class(x).values)

    def test_cup_power_needs_degree_one(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        with pytest.raises(InputError):
            cup_power(unit_class(x), 2)

    @pytest.mark.parametrize("name", ["hexagon", "hom_k2_k3"])
    def test_is_coboundary_against_exhaustive_search(self, name, request,
                                                     boundary_matrix):
        x = hexagon() if name == "hexagon" else order_complex(
            request.getfixturevalue(name))
        delta = boundary_matrix(x, 1).T  # 0-cochains -> 1-cochains
        images = {tuple(delta @ np.array(v) % 2)
                  for v in itertools.product((0, 1), repeat=x.n_cells(0))}
        for c in itertools.product((0, 1), repeat=x.n_cells(1)):
            cls = CocycleClass(x, 1, np.array(c, dtype=np.uint8))
            assert is_coboundary(cls) == (c in images)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_quotient_coboundaries_in_every_degree(self, small_graphs, data):
        # on Hom quotients, every degree agrees with the eager elimination
        # of the coboundary matrix's dense rows, the cochain as a column
        # above every (k-1)-cell, and coboundaries pass
        z = data.draw(st.sampled_from([complete_flip(2), cycle_reflection(5)]))
        target = data.draw(small_graphs(1, loops=False))
        poset = induced_involution(z, enumerate_hom(z.graph, target))
        assume(len(poset) > 0)
        q, w1 = quotient_with_w1(poset)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for k in range(q.dim + 1):
            delta = dense_face_matrix(q, k).T  # (k-1)-cochains -> k-cochains
            rows = [np.flatnonzero(row) for row in delta]
            cochains = [rng.integers(0, 2, q.n_cells(k), dtype=np.uint8)
                        for _ in range(4)]
            if k:
                cochains.append(cup_power(w1, k).values)
            for values in cochains:
                c = CocycleClass(q, k, values)
                assert is_coboundary(c) == eager_in_column_span(rows, values, q.n_cells(k - 1))
                assert is_coboundary(coboundary(c))

    def test_nonzero_degree_zero_class_not_coboundary(self):
        x = simplicial_complex([[(0,)]])
        assert not is_coboundary(unit_class(x))


class TestHeightAndConn:
    def test_full_height_k2_k3(self, hom_k2_k3_swap):
        res = sw_height(hom_k2_k3_swap, method="full")
        assert (res.value, res.exact) == (1, True)

    def test_full_height_k2_k4(self, hom_k2_k4_swap):
        res = sw_height(hom_k2_k4_swap, method="full")
        assert (res.value, res.exact) == (2, True)

    def test_component_method_lower_bound(self, hom_k2_k4_swap):
        res = sw_height(hom_k2_k4_swap, method="component")
        assert res.value == 1 and not res.exact

    def test_component_method_zero_exact(self, K3):
        poset = induced_involution(cycle_reflection(5),
                                   enumerate_hom(cycle(5), K3))
        res = sw_height(poset, method="component")
        assert (res.value, res.exact) == (0, True)
        assert sw_height(poset, method="full").value == 0

    def test_empty_poset(self, K2):
        from homlab import complete
        poset = induced_involution(complete_flip(3), enumerate_hom(complete(3), K2))
        assert len(poset) == 0
        assert sw_height(poset).value == -math.inf

    def test_requires_involution(self, hom_k2_k3):
        with pytest.raises(InputError):
            sw_height(hom_k2_k3)

    def test_unknown_method(self, hom_k2_k3_swap):
        # the empty Hom(C5, K2) is refused too, before its -inf shortcut
        empty = induced_involution(cycle_reflection(5), enumerate_hom(cycle(5), complete(2)))
        assert len(empty) == 0
        for poset in (hom_k2_k3_swap, empty):
            with pytest.raises(InputError):
                sw_height(poset, method="magic")

    def test_conn_connected_circle(self, hom_k2_k3):
        res = conn_proxy(order_complex(hom_k2_k3))
        assert (res.value, res.exact) == (0, True)

    def test_conn_disconnected(self):
        res = conn_proxy(simplicial_complex([[(0,), (1,)]]))
        assert (res.value, res.exact) == (-1, True)

    def test_conn_empty(self):
        res = conn_proxy(simplicial_complex([]))
        assert (res.value, res.exact) == (-math.inf, True)

    def test_conn_sphere_heuristic(self, hom_k2_k4):
        res = conn_proxy(order_complex(hom_k2_k4))
        assert res.value == 1 and not res.exact
