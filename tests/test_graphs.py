import itertools
import math

import pytest
from hypothesis import given, reject, settings, strategies as st

from homlab import (Graph, InputError, ResourceLimitError, Z2Graph, builtin,
                    chromatic_number, complete, complete_flip,
                    connected_graphs, cycle, cycle_reflection,
                    find_retraction_to_edge, is_graph_map,
                    paper_T, paper_f, paper_gamma1, paper_gamma2,
                    search_equivariant_map)


def brute_chromatic(g):
    """Oracle: try every coloring with every color count."""
    if g.loops():
        return math.inf
    n = len(g.vertices)
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if all(colors[g.index(u)] != colors[g.index(v)] for u, v in g.edges):
                return k
    raise AssertionError


class TestGraph:
    def test_edge_normalization(self):
        g = Graph.build(["x", "y"], [("y", "x")])
        assert g.has_edge("x", "y") and g.has_edge("y", "x")
        assert g.edges == frozenset({("x", "y")})

    def test_loop(self):
        g = Graph.build([1], [(1, 1)])
        assert g.loops() == (1,) and not g.is_loopless()

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InputError):
            Graph.build([1, 1], [])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(InputError):
            Graph.build([1, 2], [(1, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph.build([1, 2], [(1, 2), (2, 1)])
        assert len(g.edges) == 1


class TestIsGraphMap:
    def test_identity_on_k3(self):
        k3 = complete(3)
        assert is_graph_map({1: 1, 2: 2, 3: 3}, k3, k3)

    def test_constant_into_looped_vertex(self):
        loop = Graph.build(["z"], [("z", "z")])
        assert is_graph_map({v: "z" for v in cycle(5).vertices}, cycle(5), loop)

    def test_bundled_coloring_of_T(self):
        f = paper_f()
        assert is_graph_map(f.as_dict(), paper_T(), complete(3))

    def test_loop_needs_loop(self):
        loop = Graph.build([1], [(1, 1)])
        assert not is_graph_map({1: 1}, loop, Graph.build([1], []))

    def test_undeclared_vertex_raises(self):
        with pytest.raises(InputError):
            is_graph_map({1: 1, 2: 2, 99: 1}, complete(2), complete(2))

    def test_non_map_detected(self):
        assert not is_graph_map({1: 1, 2: 1}, complete(2), complete(2))


class TestChromaticNumber:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete(self, n):
        assert chromatic_number(complete(n)) == n

    def test_c5_and_T(self):
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(paper_T()) == 3

    def test_looped_vertex(self):
        assert chromatic_number(Graph.build([1], [(1, 1)])) == math.inf

    def test_empty_graph(self):
        assert chromatic_number(Graph.build([], [])) == 0

    def test_agrees_with_brute_force_small(self):
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = Graph.build(tuple(range(1, n + 1)), edges)
                assert chromatic_number(g) == brute_chromatic(g)

    def test_agrees_with_brute_force_six_vertices(self):
        # deterministic sample of 6-vertex graphs
        pairs = list(itertools.combinations(range(1, 7), 2))
        for seed in range(40):
            mask = (seed * 2654435761) % (1 << len(pairs))
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.build(tuple(range(1, 7)), edges)
            assert chromatic_number(g) == brute_chromatic(g)


class TestZ2Graph:
    def test_involution_must_square_to_identity(self):
        c4 = cycle(4)
        with pytest.raises(InputError):
            Z2Graph.build(c4, {1: 2, 2: 3, 3: 4, 4: 1})

    def test_involution_must_be_graph_map(self):
        with pytest.raises(InputError):
            Z2Graph.build(Graph.build([1, 2, 3], [(1, 2)]), {1: 1, 2: 3, 3: 2})

    def test_gamma1_gamma2_flipping(self):
        assert paper_gamma1().is_flipping
        assert paper_gamma2().is_flipping

    def test_k2_swap_flipping(self):
        assert complete_flip(2).is_flipping

    def test_c4_rotation_not_flipping(self):
        rot = Z2Graph.build(cycle(4), {1: 3, 3: 1, 2: 4, 4: 2})
        assert not rot.is_flipping


class TestRetraction:
    def test_c4(self):
        w = find_retraction_to_edge(cycle(4))
        assert w is not None and w.check()
        assert set(w.inclusion.assignment) == {1, 2}

    def test_k2_identity(self):
        w = find_retraction_to_edge(complete(2))
        assert w is not None and w.check()
        assert w.retraction.is_identity()

    def test_c5_has_none(self):
        assert find_retraction_to_edge(cycle(5)) is None

    def test_edgeless_has_none(self):
        assert find_retraction_to_edge(Graph.build([1, 2], [])) is None

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            find_retraction_to_edge(Graph.build([1], [(1, 1)]))

    def test_witness_iff_chi_two(self):
        for n in range(1, 5):
            for g in connected_graphs(n):
                w = find_retraction_to_edge(g)
                expect = chromatic_number(g) == 2 and bool(g.edges)
                assert (w is not None) == expect
                if w is not None:
                    assert w.check()


class TestEquivariantSearch:
    def test_c5_into_T_gamma1(self):
        phi = search_equivariant_map(cycle_reflection(5), paper_gamma1())
        assert phi is not None
        # lexicographically first solution: the left pentagon
        assert phi.as_dict() == {1: "a", 2: "b", 3: "c", 4: "d", 5: "e"}

    def test_result_is_equivariant_map(self):
        a, b = cycle_reflection(5), paper_gamma1()
        phi = search_equivariant_map(a, b)
        assert is_graph_map(phi.as_dict(), a.graph, b.graph)
        for v in a.graph.vertices:
            assert phi(a.involution(v)) == b.involution(phi(v))

    def test_identity_found(self):
        g1 = paper_gamma1()
        phi = search_equivariant_map(g1, g1)
        assert phi is not None and phi.is_identity()

    def test_c5_into_k2_none(self):
        assert search_equivariant_map(cycle_reflection(5), complete_flip(2)) is None

    def test_loop_needs_a_looped_image(self):
        # the loop at v rules out 1, the first color tried
        a = Z2Graph.build(Graph.build(["v"], [("v", "v")]), {"v": "v"})
        b = Z2Graph.build(Graph.build([1, 2], [(2, 2)]), {1: 1, 2: 2})
        phi = search_equivariant_map(a, b)
        assert phi is not None and phi.as_dict() == {"v": 2}

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_first_map_matches_brute_force(self, small_graphs, data):
        """Every ordered pair of two drawn Z2-graphs, each with or without
        loops; a drawn involution that is not an automorphism is discarded."""
        zs = [z2_graph(data, small_graphs(1, loops=data.draw(st.booleans())))
              for _ in range(2)]
        for a, b in itertools.product(zs, repeat=2):
            phi = search_equivariant_map(a, b)
            assert (None if phi is None else phi.assignment) == first_equivariant(a, b)


def first_equivariant(a, b):
    """Oracle: the first assignment in ``itertools.product`` order that is a
    graph map commuting with the involutions, or None."""
    ga, gb = a.graph, b.graph
    return next((row for row in itertools.product(gb.vertices, repeat=len(ga.vertices))
                 if is_graph_map(row, ga, gb)
                 and all(row[ga.index(a.involution(v))] == b.involution(w)
                         for v, w in zip(ga.vertices, row))), None)


def z2_graph(data, graphs):
    """A drawn graph with the involution exchanging the first ``2k``
    vertices of a drawn permutation in pairs and fixing the rest.  ``k`` is
    drawn down from ``n // 2``: hypothesis leans to small draws, and the
    exchanged pairs are what put a flipped edge in a source graph."""
    g = data.draw(graphs)
    order = data.draw(st.permutations(g.vertices))
    k = len(order) // 2 - data.draw(st.integers(0, len(order) // 2))
    mapping = {v: v for v in order}
    for x, y in zip(order[:2 * k:2], order[1:2 * k:2]):
        mapping[x], mapping[y] = y, x
    try:
        return Z2Graph.build(g, mapping)
    except InputError:
        reject()


class TestBuiltins:
    def test_complete(self):
        k3 = builtin("complete(3)")
        assert k3.vertices == (1, 2, 3) and len(k3.edges) == 3

    def test_paper_T_shape(self):
        t = builtin("paper_T")
        assert len(t.vertices) == 10 and len(t.edges) == 11

    def test_paper_f_values(self):
        f = builtin("paper_f")
        assert f.as_dict() == {"a": 1, "b": 2, "c": 3, "d": 2, "e": 3,
                               "a'": 2, "b'": 3, "c'": 1, "d'": 3, "e'": 1}

    def test_shorthand(self):
        assert builtin("K4") == complete(4)
        assert builtin("C5") == cycle(5)

    def test_unknown_raises(self):
        with pytest.raises(InputError):
            builtin("dodecahedron")


class TestConnectedGraphs:
    def test_counts_match_known_sequence(self):
        # connected graphs on 1..6 vertices up to isomorphism
        assert [len(connected_graphs(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force_enumeration(self, connected_oracle, n):
        # the same representatives, graph for graph, in the same order
        assert connected_graphs(n) == connected_oracle(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected(self, n):
        with pytest.raises(InputError):
            connected_graphs(n)

    def test_cap_refuses_before_allocating(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            connected_graphs(8)  # 2^28 edge masks
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", str(2**6))
        assert len(connected_graphs(4)) == 6  # 2^6 masks
        with pytest.raises(ResourceLimitError):
            connected_graphs(5)

    def test_all_connected_and_loopless(self):
        for g in connected_graphs(4):
            assert g.is_loopless()
