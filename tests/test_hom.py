import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homlab import (Graph, GraphMap, HomPoset, InputError, InvariantError,
                    PathCertificate, ResourceLimitError, complete, complete_flip,
                    cycle, cycle_reflection, enumerate_hom, find_path,
                    induced_involution, induced_map, is_graph_map,
                    iter_graph_maps, paper_f, paper_gamma1, paper_gamma2, verify_certificate)
from homlab import hom as hom_module
from homlab.serialize import bundled_fig3_certificate

from conftest import atom_graph_map, element_cap, element_sets, is_multihom


def brute_multihoms(source, target):
    """Oracle: every tuple of nonempty color sets, filtered by definition."""
    nt = len(target.vertices)
    subsets = [frozenset(target.vertices[i] for i in range(nt) if m >> i & 1)
               for m in range(1, 1 << nt)]
    found = set()
    for combo in itertools.product(subsets, repeat=len(source.vertices)):
        ok = True
        for u, v in source.edges:
            su = combo[source.index(u)]
            sv = combo[source.index(v)]
            if any(not target.has_edge(x, y) for x in su for y in sv):
                ok = False
                break
        if ok:
            found.add(combo)
    return found


def union_is_multihom(source, target, a, b):
    """Oracle for a move: the pointwise union of two colorings is a multihom."""
    return is_multihom([{x, y} for x, y in zip(a, b)], source, target)


def move_distances(source, target, start):
    """Oracle: BFS distances from ``start`` over the colorings, a step
    recoloring one vertex with the union of the two a multihom."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur)):
            for w in target.vertices:
                nxt = cur[:i] + (w,) + cur[i + 1:]
                if nxt not in dist and union_is_multihom(source, target, cur, nxt):
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
    return dist


def poset_as_set(poset):
    return {element_sets(poset, i) for i in range(len(poset))}


def brute_components(poset):
    """Oracle: BFS over the comparability graph, all O(n^2) pairs."""
    n = len(poset)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if poset.leq(i, j) or poset.leq(j, i):
                adj[i].append(j)
                adj[j].append(i)
    label = [-1] * n
    for s in range(n):
        if label[s] >= 0:
            continue
        label[s] = s
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if label[w] < 0:
                    label[w] = s
                    stack.append(w)
    return tuple(label)


class TestEnumerateHom:
    def test_k2_k3_matches_brute_force(self, K2, K3, hom_k2_k3):
        assert len(hom_k2_k3) == 12
        assert poset_as_set(hom_k2_k3) == brute_multihoms(K2, K3)

    def test_k3_k3_matches_brute_force(self, K3):
        poset = enumerate_hom(K3, K3)
        assert poset_as_set(poset) == brute_multihoms(K3, K3)

    def test_c4_k3_matches_brute_force(self, K3):
        c4 = cycle(4)
        poset = enumerate_hom(c4, K3)
        assert poset_as_set(poset) == brute_multihoms(c4, K3)

    def test_k2_k4_size(self, hom_k2_k4):
        # ordered pairs (A, B) of nonempty disjoint subsets of a 4-set
        assert len(hom_k2_k4) == 50

    def test_atoms_are_the_graph_maps(self, K2, K3, hom_k2_k3):
        assert len(hom_k2_k3.atoms) == 6
        atom_maps = {atom_graph_map(hom_k2_k3, i).assignment
                     for i in hom_k2_k3.atoms}
        assert atom_maps == set(list(iter_graph_maps(K2, K3)))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_graph_maps_match_brute_force(self, small_graphs, data):
        """Loops on both sides; lexicographic in canonical color order."""
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(0, loops=True))
        expected = [row for row in itertools.product(target.vertices,
                                                     repeat=len(source.vertices))
                    if is_graph_map(row, source, target)]
        assert list(iter_graph_maps(source, target)) == expected

    def test_listing_cap(self, monkeypatch, K2, K3):
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "6")
        assert len(list(iter_graph_maps(K2, K3))) == 6
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "5")
        listing = iter_graph_maps(K2, K3)
        assert [next(listing) for _ in range(5)] == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1)]
        with pytest.raises(ResourceLimitError):
            next(listing)

    def test_canonical_order_is_deterministic(self, K2, K3, hom_k2_k3):
        again = enumerate_hom(K2, K3)
        assert again.elements == hom_k2_k3.elements

    def test_every_element_is_a_multihom(self, K2, K3, hom_k2_k3):
        for i in range(len(hom_k2_k3)):
            assert is_multihom(element_sets(hom_k2_k3, i), K2, K3)

    def test_empty_hom(self, K2):
        poset = enumerate_hom(complete(3), K2)
        assert len(poset) == 0 and poset.atoms.tolist() == []

    def test_cap_enforced(self, K2, K4, monkeypatch):
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "10")
        with pytest.raises(ResourceLimitError, match="cap of 10 elements"):
            enumerate_hom(K2, K4)

    def test_env_cap(self, K2, K4, monkeypatch):
        # the setting is read at every call, and must be an integer
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "10")
        with pytest.raises(ResourceLimitError):
            enumerate_hom(K2, K4)
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "50")
        assert len(enumerate_hom(K2, K4)) == 50
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "ten")
        with pytest.raises(InputError, match="not an integer"):
            enumerate_hom(K2, K4)

    def test_empty_source_rejected(self, K3):
        from homlab import Graph
        with pytest.raises(InputError):
            enumerate_hom(Graph.build([], []), K3)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_order_matches_sorted_brute_force(self, small_graphs, data):
        """Elements come out in the canonical order, with the cap exact."""
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(0, loops=True))
        poset = enumerate_hom(source, target)

        def key(sets):
            return tuple(tuple(sorted(map(target.index, s))) for s in sets)

        expected = sorted(brute_multihoms(source, target), key=key)
        assert [element_sets(poset, i) for i in range(len(poset))] == expected
        n = len(poset)
        with element_cap(n):
            assert enumerate_hom(source, target).elements == poset.elements
        if n:
            with element_cap(n - 1), pytest.raises(ResourceLimitError):
                enumerate_hom(source, target)

    def test_cost_follows_output_not_color_sets(self, K2):
        # 2n ordered edges, and per vertex v of Cn the two elements pairing
        # {v} with both neighbours of v; a scan of all 2^n color sets per
        # search node would not finish.  C70 needs masks beyond 64 bits.
        for n in (30, 70):
            poset = enumerate_hom(K2, cycle(n))
            assert len(poset) == 4 * n and len(poset.atoms) == 2 * n
            atoms = set(poset.atoms)
            assert all(sorted(bin(m).count("1") for m in e) == [1, 2]
                       for i, e in enumerate(poset.elements) if i not in atoms)

    @pytest.mark.parametrize("n, dtype", [
        (8, "uint8"), (9, "uint16"), (64, "uint64"), (65, "object"), (70, "object"),
    ])
    def test_mask_dtype_boundaries(self, K2, n, dtype, atom_components):
        """Masks take the narrowest unsigned type with n bits, Python ints
        beyond 64, and the answers do not depend on it: an even cycle splits
        the atoms by the parity of their colors, an odd one does not."""
        poset = enumerate_hom(K2, cycle(n))
        assert str(poset._rows.rows.dtype) == dtype
        assert len(poset) == 4 * n and len(poset.atoms) == 2 * n
        assert poset.elements[0] == (1, 2) and poset.elements[-1] == (1 << n - 1, 1 << n - 2)
        assert len(poset.components()) == 2 - n % 2
        assert np.array_equal(poset.component_labels, atom_components(poset))

    def test_levels_past_the_cap_are_split(self, monkeypatch):
        """Paths into C4 are many, but no odd cycle maps to it: levels past
        the cap are extended in halves, so memory follows the cap, and the
        exact cap still holds when every level is split."""
        import tracemalloc
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "1000")
        tracemalloc.start()
        try:
            poset = enumerate_hom(cycle(13), cycle(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(poset) == 0
        assert peak < 5 * 2**20  # about 48 MB without the split
        # 980 multihoms of the path, 14 of the closed C7 into C7
        full = enumerate_hom(cycle(7), cycle(7))
        assert len(full) == 14
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "14")
        assert enumerate_hom(cycle(7), cycle(7)).elements == full.elements
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "13")
        with pytest.raises(ResourceLimitError):
            enumerate_hom(cycle(7), cycle(7))

    def test_last_level_lists_candidates_within_the_cap(self, K2, monkeypatch):
        """K2 -> K14 has about 3^14 elements.  Past the first vertex's
        2^14 - 2 sets, the last vertex lists its candidates only as far as
        the cap allows before ResourceLimitError."""
        cap, listed = 1000, []
        candidate_sets = hom_module._candidate_sets

        def counted(*args):
            found = candidate_sets(*args)
            listed.append(len(found))
            return found

        monkeypatch.setattr(hom_module, "_candidate_sets", counted)
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", str(cap))
        with pytest.raises(ResourceLimitError):
            enumerate_hom(K2, complete(14))
        first, *last = listed
        assert first == 2**14 - 2
        assert sum(last) <= 2 * cap + 1

    def test_looped_source_constant_maps(self):
        from homlab import Graph
        loop = Graph.build([1], [(1, 1)])
        target = Graph.build(["u", "v"], [("u", "u"), ("u", "v")])
        poset = enumerate_hom(loop, target)
        # subsets S with S x S inside the edges: {u} only
        assert poset_as_set(poset) == {(frozenset({"u"}),)}


class TestComponents:
    def test_k2_k3_connected(self, hom_k2_k3):
        assert hom_k2_k3.components() == [list(range(12))]

    def test_k2_k2_two_components(self, K2):
        poset = enumerate_hom(K2, K2)
        assert len(poset) == 2 and len(poset.components()) == 2

    def test_against_brute_oracle(self, K3, C5):
        for src, tgt in [(K3, K3), (C5, K3), (cycle(4), K3)]:
            poset = enumerate_hom(src, tgt)
            oracle = brute_components(poset)
            assert len(poset.components()) == len(set(oracle))
            for i in range(len(poset)):
                for j in range(i + 1, min(i + 20, len(poset))):
                    assert (poset.component_labels[i] == poset.component_labels[j]) \
                        == (oracle[i] == oracle[j])

    def test_atom_route_matches_cover_route(self, C5, K3, atom_components):
        poset = enumerate_hom(C5, K3)
        assert np.array_equal(poset.component_labels, atom_components(poset))

    def test_T_k3_shape(self, hom_T_k3):
        assert len(hom_T_k3) == 2160
        assert len(hom_T_k3.atoms) == 600
        assert len(hom_T_k3.components()) == 4

    def test_T_k3_atom_route_agrees(self, hom_T_k3, atom_components):
        assert np.array_equal(hom_T_k3.component_labels, atom_components(hom_T_k3))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_skeleton_matches_oracles(self, small_graphs, atom_components, data):
        """Loops and isolated vertices on both sides; the comparability BFS
        runs on the posets small enough for its all-pairs scan.  The atoms
        are the elements whose sets are all singletons."""
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(0, loops=True))
        poset = enumerate_hom(source, target)
        assert np.array_equal(poset.atoms, tuple(
            i for i, e in enumerate(poset.elements)
            if all(bin(m).count("1") == 1 for m in e)))
        assert np.array_equal(poset.component_labels, atom_components(poset))
        # the partition, grouped element by element
        groups = {}
        for i, label in enumerate(atom_components(poset)):
            groups.setdefault(label, []).append(i)
        assert poset.components() == [groups[k] for k in sorted(groups)]
        if len(poset) <= 400:
            assert np.array_equal(poset.component_labels, brute_components(poset))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    def test_hooked_roots_are_component_minima(self, graph):
        n, edges = graph
        src = np.array([a for a, _ in edges], dtype=np.intp)
        dst = np.array([b for _, b in edges], dtype=np.intp)
        low = list(range(n))  # relax to the smallest reachable node
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                m = min(low[a], low[b])
                if low[a] != m or low[b] != m:
                    low[a] = low[b] = m
                    changed = True
        assert hom_module._hooked_roots(n, src, dst).tolist() == low

    def test_looped_vertex_needs_an_adjacent_color(self):
        # the atoms {0} and {2} are maps from a loop, but {0, 2} is not:
        # 0 and 2 are not adjacent
        loop = Graph.build([0], [(0, 0)])
        target = Graph.build([0, 1, 2], [(0, 0), (1, 1), (2, 2), (0, 1)])
        poset = enumerate_hom(loop, target)
        assert tuple(poset.component_labels.tolist()) == brute_components(poset) == (0, 0, 0, 3)

    def test_k2_c200_finds_each_one_cell_once(self, K2, atom_components, monkeypatch):
        """Two components, the atoms (x, x +- 1) with x even and with x odd;
        the join gets each 1-cell once, as many as there are recolorings of
        an atom to a color above it, not one per color of C200."""
        c200 = cycle(200)
        poset = enumerate_hom(K2, c200)
        joined = []

        def counted(n, src, dst):
            joined.extend(zip(src.tolist(), dst.tolist()))
            return hooked_roots(n, src, dst)
        hooked_roots = hom_module._hooked_roots
        monkeypatch.setattr(hom_module, "_hooked_roots", counted)
        labels = poset.component_labels
        assert sorted(set(labels)) == [0, 5]
        assert tuple(labels.tolist()) == brute_components(poset) == atom_components(poset)
        valid = 0
        for i in poset.atoms:
            x, y = (c200.vertices[m.bit_length() - 1] for m in poset.elements[i])
            valid += sum(c > x for c in c200.neighbors(y))
            valid += sum(c > y for c in c200.neighbors(x))
        assert len(joined) == len(set(joined)) == valid == 400
        # each joins two atoms one recoloring apart
        atoms = poset.atoms
        for a, b in joined:
            e, f = poset.elements[atoms[a]], poset.elements[atoms[b]]
            assert sum(x != y for x, y in zip(e, f)) == 1

    def test_same_component_accepts_graph_maps(self, hom_T_k3):
        f = paper_f()
        f2 = f.compose(paper_gamma2().involution)
        assert hom_T_k3.same_component(f, f2)

    def test_graph_map_of_another_source_rejected(self, K2, K3, hom_k2_k3):
        # the identity of K3 agrees with the element (1, 2) of Hom(K2, K3)
        # on its first two vertices
        identity = GraphMap.build(K3, K3, (1, 2, 3))
        with pytest.raises(InputError, match="not an element"):
            hom_k2_k3.same_component(identity, identity)

    def test_same_component_accepts_numpy_indices(self, hom_T_k3):
        atoms, labels = hom_T_k3.atoms, hom_T_k3.component_labels
        assert isinstance(atoms[0], np.integer)
        assert hom_T_k3.same_component(np.int64(0), np.int64(1)) \
            == hom_T_k3.same_component(0, 1)
        # an atom of each of the four components, and one more of the first
        firsts = [a for a in atoms if labels[a] == a]
        other = next(a for a in atoms if labels[a] == firsts[0] and a != firsts[0])
        assert len(firsts) == 4
        assert hom_T_k3.same_component(firsts[0], other) is True
        assert not any(hom_T_k3.same_component(a, b)
                       for a in firsts for b in firsts if a != b)

    def test_index_arrays_are_read_only(self, hom_T_k3):
        z = induced_involution(paper_gamma2(), hom_T_k3)
        for view in (z.involution, z.atoms, z.component_labels):
            assert isinstance(view, np.ndarray) and view.dtype == np.intp
            with pytest.raises(ValueError):
                view[0] = 1

    def test_leq_is_pointwise_containment(self, hom_k2_k3):
        p = hom_k2_k3
        for i in range(len(p)):
            for j in range(len(p)):
                a = element_sets(p, i)
                b = element_sets(p, j)
                assert p.leq(i, j) == all(x <= y for x, y in zip(a, b))


class TestAbove:
    @pytest.mark.parametrize("source, m", [
        (complete(2), 3), (complete(2), 4), (complete(2), 5), (cycle(5), 3),
    ])
    def test_matches_leq_scan(self, source, m):
        p = enumerate_hom(source, complete(m))
        for i in range(len(p)):
            assert p.above(i) == [j for j in range(len(p))
                                  if j != i and p.leq(i, j)]


class TestInducedInvolution:
    def test_fixed_point_free_order_two(self, hom_k2_k3_swap):
        perm = hom_k2_k3_swap.involution
        assert all(perm[perm[i]] == i for i in range(len(perm)))
        assert all(perm[i] != i for i in range(len(perm)))
        # 12 elements in 6 free orbits
        assert len({frozenset({i, perm[i]}) for i in range(len(perm))}) == 6

    def test_action_is_precomposition(self, K2, K3, hom_k2_k3, hom_k2_k3_swap):
        swap = complete_flip(2)
        for i in hom_k2_k3.atoms:
            phi = atom_graph_map(hom_k2_k3, i)
            image = phi.compose(swap.involution)
            assert hom_k2_k3_swap.involution[i] == \
                hom_k2_k3.index_of_graph_map(image)

    def test_gamma1_moves_every_component(self, hom_T_k3):
        z = induced_involution(paper_gamma1(), hom_T_k3)
        assert z.invariant_components() == []

    def test_gamma2_fixes_two_components(self, hom_T_k3):
        z = induced_involution(paper_gamma2(), hom_T_k3)
        assert len(z.invariant_components()) == 2

    def test_requires_flipping(self, K3):
        from homlab import Graph, Z2Graph
        path = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
        z = Z2Graph.build(path, {1: 3, 2: 2, 3: 1})  # not flipping
        with pytest.raises(InputError):
            induced_involution(z, enumerate_hom(path, K3))

    def test_requires_loopless_target(self, K2):
        from homlab import Graph
        looped = Graph.build([1, 2], [(1, 1), (1, 2), (2, 2)])
        poset = enumerate_hom(K2, looped)
        with pytest.raises(InputError):
            induced_involution(complete_flip(2), poset)

    def test_wrong_source_rejected(self, hom_k2_k3):
        with pytest.raises(InputError):
            induced_involution(paper_gamma1(), hom_k2_k3)

    @pytest.mark.parametrize("z, m", [
        (complete_flip(2), 3), (complete_flip(2), 4), (cycle_reflection(5), 3),
        (cycle_reflection(5), 4), (paper_gamma1(), 3), (paper_gamma2(), 3),
    ])
    def test_matches_dict_route(self, z, m, dict_involution, atom_components):
        poset = enumerate_hom(z.graph, complete(m))
        oracle = dict_involution(z, poset)
        q = induced_involution(z, poset)
        assert np.array_equal(q.involution, oracle)
        labels = atom_components(poset)
        assert q.invariant_components() == sorted(
            {labels[i] for i in poset.atoms if labels[oracle[i]] == labels[i]})

    def test_every_image_is_checked(self, K2, K3, hom_k2_k3):
        # without its last element the poset lacks the image of that
        # element's partner
        partial = HomPoset(K2, K3, hom_k2_k3._rows.rows[:-1])
        with pytest.raises(InvariantError, match="not a poset element"):
            induced_involution(complete_flip(2), partial)

    def test_shares_the_elements_and_cached_components(self, hom_T_k3):
        labels = hom_T_k3.component_labels
        z = induced_involution(paper_gamma2(), hom_T_k3)
        assert z.elements is hom_T_k3.elements
        assert z.component_labels is labels
        assert hom_T_k3.involution is None


class TestInducedMap:
    def test_precomposition_preserves_order(self, K3):
        # inclusion of an edge into C5 induces Hom(C5, K3) -> Hom(K2, K3)
        from homlab import Graph
        c5 = cycle(5)
        edge = Graph.build([1, 2], [(1, 2)])
        incl = GraphMap.build(edge, c5, (1, 2))
        big = enumerate_hom(c5, K3)
        small = enumerate_hom(edge, K3)
        idx = induced_map(incl, big, codomain=small)
        for i in range(len(big)):
            for j in range(len(big)):
                if big.leq(i, j):
                    assert small.leq(idx[i], idx[j])

    def test_equivariance_with_reflection(self, K3):
        # the induced map commutes with the involutions on both sides
        from homlab import cycle_reflection
        c5r = cycle_reflection(5)
        g1 = paper_gamma1()
        from homlab import search_equivariant_map
        phi = search_equivariant_map(c5r, g1)
        big = induced_involution(g1, enumerate_hom(g1.graph, K3))
        small = induced_involution(c5r, enumerate_hom(c5r.graph, K3))
        idx = induced_map(phi, big, codomain=small)
        for i in range(len(big)):
            assert idx[big.involution[i]] == small.involution[idx[i]]

    def test_one_vertex_source(self, K2, K3, hom_k2_k3):
        from homlab import Graph
        point = Graph.build([1], [])
        f = GraphMap.build(point, K2, (2,))
        codomain = enumerate_hom(point, K3)
        idx = induced_map(f, hom_k2_k3, codomain)
        assert idx.dtype == np.intp
        assert [codomain.elements[j] for j in idx] == \
            [(e[1],) for e in hom_k2_k3.elements]

    def test_mismatched_poset_rejected(self, K2, K3, hom_k2_k3):
        incl = GraphMap.build(K2, K3, (1, 2))
        with pytest.raises(InputError):
            induced_map(incl, hom_k2_k3, hom_k2_k3)
        swap = GraphMap.build(K2, K2, (2, 1))
        with pytest.raises(InputError, match="codomain"):
            induced_map(swap, hom_k2_k3, enumerate_hom(K2, complete(4)))


class TestCertificates:
    def test_bundled_fig3_valid(self):
        cert = bundled_fig3_certificate()
        assert len(cert.colorings) == 16 and cert.moves() == 15
        assert verify_certificate(cert).ok

    def test_bundled_fig3_endpoints(self):
        cert = bundled_fig3_certificate()
        f = paper_f()
        f2 = f.compose(paper_gamma2().involution)
        assert cert.colorings[0] == f.assignment
        assert cert.colorings[-1] == f2.assignment

    def test_improper_coloring_caught(self, T=None):
        from homlab import paper_T
        cert = bundled_fig3_certificate()
        rows = list(cert.colorings)
        rows[3] = rows[3][:1] + (rows[3][1],) * 2 + rows[3][3:]
        bad = PathCertificate.build(paper_T(), complete(3), rows)
        check = verify_certificate(bad)
        assert not check.ok and check.index == 3
        assert "graph map" in check.reason

    def test_double_move_caught(self):
        from homlab import paper_T
        cert = bundled_fig3_certificate()
        rows = list(cert.colorings)
        del rows[5]  # steps 4 -> 6 now change two vertices
        bad = PathCertificate.build(paper_T(), complete(3), rows)
        check = verify_certificate(bad)
        assert not check.ok and "2 vertices" in check.reason

    def test_repeated_coloring_is_fine(self, K3):
        cert = PathCertificate.build(K3, K3, [(1, 2, 3), (1, 2, 3)])
        assert verify_certificate(cert).ok

    def test_looped_step_needs_adjacent_colors(self):
        # both colorings are graph maps, but {1, 2} at the loop is not:
        # 1 and 2 are not adjacent
        loop = Graph.build(["v"], [("v", "v")])
        target = Graph.build([1, 2], [(1, 1), (2, 2)])
        check = verify_certificate(PathCertificate.build(loop, target, [(1,), (2,)]))
        assert not check.ok and check.index == 1 and "1-cell" in check.reason

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_step_is_a_move_iff_union_is_multihom(self, small_graphs, data):
        """Loops on both sides; a graph map and one vertex recolored."""
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(1, loops=True))
        maps = list(iter_graph_maps(source, target))
        if not maps:
            return
        a = data.draw(st.sampled_from(maps))
        v = data.draw(st.integers(0, len(a) - 1))
        b = a[:v] + (data.draw(st.sampled_from(target.vertices)),) + a[v + 1:]
        check = verify_certificate(PathCertificate.build(source, target, [a, b]))
        assert check.ok == union_is_multihom(source, target, a, b)


class TestFindPath:
    @staticmethod
    def _connected_endpoints(C5, K3):
        poset = enumerate_hom(C5, K3)
        start_idx = poset.atoms[0]
        end_idx = max(a for a in poset.atoms
                      if poset.same_component(a, start_idx))
        return (atom_graph_map(poset, start_idx),
                atom_graph_map(poset, end_idx))

    def test_round_trip_through_verifier(self, K3, C5):
        start, end = self._connected_endpoints(C5, K3)
        cert = find_path(C5, K3, start, end)
        assert cert is not None
        assert verify_certificate(cert).ok
        assert cert.colorings[0] == start.assignment
        assert cert.colorings[-1] == end.assignment

    def test_shortest_and_lexicographically_first(self, K3, C5):
        maps = list(iter_graph_maps(C5, K3))
        start, end = self._connected_endpoints(C5, K3)
        first = find_path(C5, K3, start, end)
        again = find_path(C5, K3, start, end)
        assert first.colorings == again.colorings
        # oracle: plain BFS distance over the atom-move graph
        from collections import deque
        atoms = set(maps)
        dist = {start.assignment: 0}
        q = deque([start.assignment])
        while q:
            cur = q.popleft()
            for i in range(5):
                for w in (1, 2, 3):
                    nxt = cur[:i] + (w,) + cur[i + 1:]
                    if nxt in atoms and nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        q.append(nxt)
        assert first.moves() == dist[end.assignment]

    def test_disconnected_returns_none(self, K3):
        ident = GraphMap.build(K3, K3, (1, 2, 3))
        other = GraphMap.build(K3, K3, (2, 1, 3))
        assert find_path(K3, K3, ident, other) is None

    def test_same_start_and_end(self, K3):
        ident = GraphMap.build(K3, K3, (1, 2, 3))
        cert = find_path(K3, K3, ident, ident)
        assert cert.moves() == 0

    def test_improper_input_rejected(self, K2, K3):
        bad = GraphMap(source=K2, target=K3, assignment=(1, 1))
        good = GraphMap.build(K2, K3, (1, 2))
        with pytest.raises(InputError):
            find_path(K2, K3, bad, good)

    def test_looped_source_between_unjoined_loops(self):
        loop = Graph.build(["v"], [("v", "v")])
        target = Graph.build([1, 2], [(1, 1), (2, 2)])
        one, two = (GraphMap.build(loop, target, (w,)) for w in (1, 2))
        assert find_path(loop, target, one, two) is None
        assert not enumerate_hom(loop, target).same_component(one, two)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_path_iff_same_component(self, small_graphs, data):
        """Loops on both sides: a path exists exactly when the endpoints share
        a component, it is as short as the BFS over 1-cells, and the
        verifier accepts it."""
        source = data.draw(small_graphs(1, loops=True))
        target = data.draw(small_graphs(1, loops=True))
        poset = enumerate_hom(source, target)
        if not len(poset.atoms):
            return
        i, j = (data.draw(st.sampled_from(poset.atoms)) for _ in range(2))
        phi, psi = atom_graph_map(poset, i), atom_graph_map(poset, j)
        cert = find_path(source, target, phi, psi)
        assert (cert is not None) == poset.same_component(i, j)
        dist = move_distances(source, target, phi.assignment)
        assert (cert is not None) == (psi.assignment in dist)
        if cert is not None:
            assert cert.moves() == dist[psi.assignment]
            assert cert.colorings[0] == phi.assignment
            assert cert.colorings[-1] == psi.assignment
            assert verify_certificate(cert).ok

    def test_fig3_endpoints_reachable_in_15(self):
        from homlab import paper_T
        f = paper_f()
        f2 = f.compose(paper_gamma2().involution)
        cert = find_path(paper_T(), complete(3), f, f2)
        assert cert is not None and cert.moves() <= 15
        assert verify_certificate(cert).ok
