import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from homlab import (FreenessError, HomPoset, InputError,
                    OrderedDeltaComplex, betti_mod2, complete, complete_flip,
                    conn_proxy, cup_power, cycle, cycle_reflection,
                    enumerate_hom, hom_complex, induced_involution,
                    is_coboundary, order_complex, order_complex_from_relation,
                    paper_T, quotient_with_w1, sw_height, unit_class)
from homlab.complexes import CocycleClass, _front_edges, coboundary, w1_height
from homlab.errors import ResourceLimitError


def hexagon():
    verts = [(i,) for i in range(6)]
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return OrderedDeltaComplex([verts, edges])


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


class TestOrderedDeltaComplex:
    def test_missing_face_rejected(self):
        with pytest.raises(InputError):
            OrderedDeltaComplex([[(0,), (1,)], [(0, 2)]])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InputError):
            OrderedDeltaComplex([[(0,)], [(0, 0)]])

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(InputError):
            OrderedDeltaComplex([[(0,), (0,)]])

    def test_empty_levels_trimmed(self):
        x = OrderedDeltaComplex([[(0,)], []])
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
            assert x.faces[d].shape == (x.n_simplices(d), d + 1)
            for j, row in enumerate(x.faces[d]):
                assert sorted(row) == list(np.nonzero(dense[:, j])[0])
            c = CocycleClass(x, d - 1, rng.integers(0, 2, x.n_simplices(d - 1),
                                                     dtype=np.uint8))
            assert np.array_equal(coboundary(c).values, dense.T @ c.values % 2)

    def test_given_faces_match_derived(self, hom_k2_k4):
        x = order_complex(hom_k2_k4)
        y = OrderedDeltaComplex(x.simplices, faces=x.faces)
        assert all(np.array_equal(a, b) for a, b in zip(x.faces, y.faces))

    @pytest.mark.parametrize("tables", [
        [None, [[1, 0], [2, 0], [2, 1]], [[2, 1]]],         # wrong shape
        [None, [[1, 0], [2, 0], [2, 3]], [[2, 1, 0]]],      # no vertex 3
        [None, [[1, 0], [2, 0], [2, 1]], [[1, 2, 0]]],      # d_0 d_2 != d_1 d_0
    ])
    def test_given_faces_checked(self, tables):
        names = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
        OrderedDeltaComplex(names, faces=[None, [[1, 0], [2, 0], [2, 1]],
                                          [[2, 1, 0]]])
        with pytest.raises(InputError):
            OrderedDeltaComplex(names, faces=tables)

    def test_front_edges_match_tuple_lookup(self, K2):
        x = order_complex(enumerate_hom(K2, complete(5)))
        for n in range(1, x.dim + 1):
            assert _front_edges(x, n).tolist() == [
                [x.simplex_index(1, s[i - 1:i + 1]) for i in range(1, n + 1)]
                for s in x.simplices[n]]


class TestBetti:
    def test_point(self):
        assert betti_mod2(OrderedDeltaComplex([[(0,)]])) == (1,)

    def test_circle(self):
        assert betti_mod2(hexagon()) == (1, 1)

    def test_sphere(self):
        x, _ = octahedron_subdivision()
        assert betti_mod2(x) == (1, 0, 1)

    def test_two_points_reduced(self):
        x = OrderedDeltaComplex([[(0,), (1,)]])
        assert betti_mod2(x) == (2,)
        assert betti_mod2(x, reduced=True) == (1,)

    def test_empty(self):
        assert betti_mod2(OrderedDeltaComplex([])) == ()

    def test_hom_k2_k3_is_a_circle(self, hom_k2_k3):
        assert betti_mod2(order_complex(hom_k2_k3)) == (1, 1)

    def test_hom_k2_k4_is_a_sphere(self, hom_k2_k4):
        assert betti_mod2(order_complex(hom_k2_k4)) == (1, 0, 1)

    def test_homotopy_invariance_spot_check(self, hom_k2_k3):
        # the order complex of Hom(K2, K3) and a bare hexagon are both circles
        assert betti_mod2(order_complex(hom_k2_k3)) == betti_mod2(hexagon())


class TestOrderComplex:
    def test_total_order_gives_full_simplex(self):
        x = order_complex_from_relation(4, lambda i, j: i <= j)
        # chains of a 4-chain: all nonempty subsets
        assert [x.n_simplices(d) for d in range(4)] == [4, 6, 4, 1]

    def test_antichain_gives_points(self):
        x = order_complex_from_relation(5, lambda i, j: i == j)
        assert x.dim == 0 and x.n_simplices(0) == 5

    def test_chain_cap(self):
        with pytest.raises(ResourceLimitError):
            order_complex_from_relation(6, lambda i, j: i <= j, max_chains=10)

    def test_chain_cap_bounds_leq_calls(self):
        n, calls = 100, []

        def leq(i, j):
            calls.append((i, j))
            return i <= j
        with pytest.raises(ResourceLimitError):
            order_complex_from_relation(n, leq, max_chains=5)
        # each chain within the cap scans at most one new element's upset
        assert len(calls) <= 5 * (n - 1) < n * (n - 1)

    def test_vertices_are_poset_indices(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        assert [s[0] for s in x.simplices[0]] == list(range(12))
        assert x.n_simplices(0) == 12 and x.n_simplices(1) == 12

    def test_hom_poset_never_calls_leq(self, hom_T_k3, monkeypatch):
        def refuse(self, i, j):
            raise AssertionError("order_complex scanned leq")
        monkeypatch.setattr(HomPoset, "leq", refuse)
        x = order_complex(hom_T_k3)
        assert [x.n_simplices(d) for d in range(3)] == [2160, 6000, 3840]

    def test_hom_chain_cap_leaves_upsets_unwalked(self, K2, monkeypatch):
        poset = enumerate_hom(K2, complete(7))
        walked, above = [], HomPoset.above

        def counted(self, i):
            walked.append(i)
            return above(self, i)
        monkeypatch.setattr(HomPoset, "above", counted)
        with pytest.raises(ResourceLimitError):
            order_complex(poset, max_chains=100_000)
        assert len(walked) == len(set(walked)) < len(poset)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_upsets_match_leq_route(self, small_graphs, data):
        source = data.draw(small_graphs(1, loops=False))
        target = data.draw(small_graphs(2, loops=True))
        try:
            poset = enumerate_hom(source, target, max_elements=400)
        except ResourceLimitError:
            assume(False)
        routes = (lambda: order_complex(poset, max_chains=20_000),
                  lambda: order_complex_from_relation(len(poset), poset.leq,
                                                      max_chains=20_000))
        built = []
        for route in routes:
            try:
                built.append(route().simplices)
            except ResourceLimitError:
                built.append(None)
        assert built[0] == built[1]


def barycentric_height(poset) -> float:
    """Oracle: the height on the order complex of the whole poset."""
    if len(poset) == 0:
        return -math.inf
    _, w1 = quotient_with_w1(order_complex(poset), dict(enumerate(poset.involution)))
    return w1_height(w1)


class TestHomComplex:
    @pytest.mark.parametrize("source, m, counts", [
        (complete(2), 6, [30, 210, 560, 630, 252]),
        (cycle(5), 4, [240, 1680, 2880, 1440]),
        (paper_T(), 3, [600, 1560, 960]),
    ])
    def test_simplex_counts(self, source, m, counts):
        x = hom_complex(enumerate_hom(source, complete(m)))
        assert [x.n_simplices(d) for d in range(x.dim + 1)] == counts

    def test_vertices_are_atoms(self, hom_k2_k3):
        x = hom_complex(hom_k2_k3)
        assert [s[0] for s in x.simplices[0]] == list(hom_k2_k3.atoms)
        assert betti_mod2(x) == (1, 1)

    def test_chain_cap(self, K2):
        poset = enumerate_hom(K2, complete(7))
        assert sum(map(len, hom_complex(poset, max_chains=8988).simplices)) == 8988
        with pytest.raises(ResourceLimitError):
            hom_complex(poset, max_chains=8987)

    def test_k2_k7_height_inside_chain_budget(self, K2):
        poset = induced_involution(complete_flip(2), enumerate_hom(K2, complete(7)))
        res = sw_height(poset, max_chains=100_000)
        assert (res.value, res.exact) == (5, True)

    def test_sw_height_never_builds_order_complex(self, hom_k2_k4_swap, monkeypatch):
        from homlab import complexes

        def refuse(*args, **kwargs):
            raise AssertionError("sw_height built the order complex")
        monkeypatch.setattr(complexes, "order_complex", refuse)
        assert sw_height(hom_k2_k4_swap).value == 2

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_order_complex(self, small_graphs, data):
        z = data.draw(st.sampled_from(
            [complete_flip(2), complete_flip(3), cycle_reflection(5)]))
        target = data.draw(small_graphs(1, loops=False))
        try:
            poset = induced_involution(
                z, enumerate_hom(z.graph, target, max_elements=1000))
        except ResourceLimitError:
            assume(False)
        assert sw_height(poset).value == barycentric_height(poset)
        assert betti_mod2(hom_complex(poset)) == betti_mod2(order_complex(poset))


class TestQuotient:
    def test_hexagon_antipodal_gives_triangle(self):
        q, w1 = quotient_with_w1(hexagon(), {i: (i + 3) % 6 for i in range(6)})
        assert q.n_simplices(0) == 3 and q.n_simplices(1) == 3
        assert betti_mod2(q) == (1, 1)
        assert w1.check_cocycle()
        assert not is_coboundary(w1)  # the double cover is nontrivial

    def test_two_hexagons_swapped_gives_trivial_cover(self):
        verts = [(i,) for i in range(12)]
        edges = [(i, (i + 1) % 6) for i in range(6)] + \
                [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        x = OrderedDeltaComplex([verts, edges])
        q, w1 = quotient_with_w1(x, {i: (i + 6) % 12 for i in range(12)})
        assert betti_mod2(q) == (1, 1)
        assert is_coboundary(w1)  # disconnected double cover, trivial twist

    def test_octahedron_gives_projective_plane(self):
        x, antipode = octahedron_subdivision()
        q, w1 = quotient_with_w1(x, antipode)
        assert betti_mod2(q) == (1, 1, 1)
        assert not is_coboundary(w1)
        assert not is_coboundary(cup_power(w1, 2))
        assert cup_power(w1, 3).values.size == 0

    def test_fixed_vertex_raises_freeness(self):
        with pytest.raises(FreenessError):
            quotient_with_w1(hexagon(), {0: 0, 3: 3, 1: 4, 4: 1, 2: 5, 5: 2})

    def test_non_simplicial_raises(self):
        # vertex permutation of order two that does not send edges to edges
        with pytest.raises(InputError):
            quotient_with_w1(hexagon(), {0: 2, 2: 0, 1: 4, 4: 1, 3: 5, 5: 3})

    def test_not_order_two_raises(self):
        with pytest.raises(InputError):
            quotient_with_w1(hexagon(), {i: (i + 2) % 6 for i in range(6)})

    def test_halving(self, hom_k2_k4, hom_k2_k4_swap):
        x = order_complex(hom_k2_k4)
        tau = {i: hom_k2_k4_swap.involution[i] for i in range(len(hom_k2_k4))}
        q, _ = quotient_with_w1(x, tau)
        for d in range(x.dim + 1):
            assert 2 * q.n_simplices(d) == x.n_simplices(d)

    def test_staircase_orbits_sharing_a_vertex_tuple(self, hom_k2_k4_swap):
        x = hom_complex(hom_k2_k4_swap)
        tau = dict(enumerate(hom_k2_k4_swap.involution))
        q, w1 = quotient_with_w1(x, tau)
        section = {v: min(v, tau[v]) for (v,) in x.simplices[0]}
        # naming an orbit by the section's vertices would merge two orbits
        assert any(len({tuple(section[v] for v in s) for s in level}) < len(level)
                   for level in q.simplices)
        assert [q.n_simplices(d) for d in range(3)] == [6, 15, 10]
        for d in range(1, q.dim + 1):
            for k, lift in enumerate(q.simplices[d]):
                assert lift in x.simplices[d]
                for i in range(d + 1):
                    face = lift[:i] + lift[i + 1:]
                    assert q.simplices[d - 1][q.faces[d][k, i]] in (
                        face, tuple(tau[v] for v in face))
        for (a, b), value in zip(q.simplices[1], w1.values):
            assert value == ((section[a] == a) != (section[b] == b))
        assert betti_mod2(q) == (1, 1, 1)  # the projective plane
        assert not is_coboundary(cup_power(w1, 2))

    def test_w1_class_independent_of_labeling(self):
        # relabel the hexagon so the canonical orbit sections differ; the
        # coboundary status of w1 is a property of the cover, not the section
        for shift in range(6):
            verts = [((i + shift) % 6,) for i in range(6)]
            verts.sort()
            edges = sorted(((i, (i + 1) % 6) for i in range(6)))
            x = OrderedDeltaComplex([verts, edges])
            q, w1 = quotient_with_w1(x, {i: (i + 3) % 6 for i in range(6)})
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
                x, 0, rng.integers(0, 2, x.n_simplices(0), dtype=np.uint8))
            assert not coboundary(coboundary(c)).values.any()

    def test_coboundaries_are_coboundaries(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        rng = np.random.default_rng(9)
        c = CocycleClass(
            x, 0, rng.integers(0, 2, x.n_simplices(0), dtype=np.uint8))
        assert is_coboundary(coboundary(c))

    def test_cup_power_zero_is_unit(self, hom_k2_k3):
        x = order_complex(hom_k2_k3)
        z = CocycleClass(x, 1, np.zeros(x.n_simplices(1), dtype=np.uint8))
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
                  for v in itertools.product((0, 1), repeat=x.n_simplices(0))}
        for c in itertools.product((0, 1), repeat=x.n_simplices(1)):
            cls = CocycleClass(x, 1, np.array(c, dtype=np.uint8))
            assert is_coboundary(cls) == (c in images)

    def test_nonzero_degree_zero_class_not_coboundary(self):
        x = OrderedDeltaComplex([[(0,)]])
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
        with pytest.raises(InputError):
            sw_height(hom_k2_k3_swap, method="magic")

    def test_conn_connected_circle(self, hom_k2_k3):
        res = conn_proxy(order_complex(hom_k2_k3))
        assert (res.value, res.exact) == (0, True)

    def test_conn_disconnected(self):
        res = conn_proxy(OrderedDeltaComplex([[(0,), (1,)]]))
        assert (res.value, res.exact) == (-1, True)

    def test_conn_empty(self):
        res = conn_proxy(OrderedDeltaComplex([]))
        assert (res.value, res.exact) == (-math.inf, True)

    def test_conn_sphere_heuristic(self, hom_k2_k4):
        res = conn_proxy(order_complex(hom_k2_k4))
        assert res.value == 1 and not res.exact
