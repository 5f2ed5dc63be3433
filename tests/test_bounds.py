import math
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from homlab import (ConnResult, FreenessError, GraphMap, HomPoset, InputError,
                    InvariantError, PathCertificate, RetractionWitness,
                    bound_suite, bounds, check_ht_bound, check_swt_bound,
                    complete, complete_flip, connected_graphs, cycle,
                    cycle_reflection, enumerate_hom, hom, induced_involution,
                    induced_map, paper_gamma1, paper_gamma2, theorem1_pipeline,
                    theorem2_pipeline)
from homlab.bounds import FULL_METHOD_MAX_ELEMENTS
from homlab.errors import ResourceLimitError
from homlab.serialize import bundled_fig3_certificate


class TestCheckSwt:
    def test_k2_swap_k3_holds_tight(self, K3):
        r = check_swt_bound(complete_flip(2), K3)
        # chi(K3) = 3 = height 1 + chi(K2) = 2, equality
        assert (r.status, r.invariant_value, r.invariant_exact) == ("holds", 1, True)

    def test_k2_swap_k4_holds(self, K4):
        r = check_swt_bound(complete_flip(2), K4)
        assert (r.status, r.invariant_value) == ("holds", 2)

    def test_gamma2_k3_violated_component_method(self, K3):
        r = check_swt_bound(paper_gamma2(), K3, method="component")
        assert r.status == "violated"
        assert r.invariant_value == 1 and not r.invariant_exact
        assert r.witness is not None

    def test_gamma1_k3_holds_component_method(self, K3):
        r = check_swt_bound(paper_gamma1(), K3, method="component")
        assert r.status == "holds"
        assert (r.invariant_value, r.invariant_exact) == (0, True)

    def test_empty_hom_holds(self, K2):
        r = check_swt_bound(complete_flip(3), K2)
        assert r.status == "holds" and r.invariant_value == -math.inf

    def test_component_inconclusive_when_equality_needed(self, K3):
        # the component method only knows ">= 1"; the true height might still
        # exceed chi(K3) - chi(K2), so a non-violation cannot be confirmed
        r = check_swt_bound(complete_flip(2), K3, method="component")
        assert r.status == "inconclusive"
        assert r.invariant_value == 1 and not r.invariant_exact

    def test_precomputed_poset_accepted(self, K3, hom_T_k3):
        p = induced_involution(paper_gamma2(), hom_T_k3)
        r = check_swt_bound(paper_gamma2(), K3, method="component", poset=p)
        assert r.status == "violated"

    def test_component_route_builds_no_tuples(self, K4):
        """The component route runs on the mask array: the element tuples
        are never built."""
        z = cycle_reflection(7)
        p = induced_involution(z, enumerate_hom(z.graph, K4))
        r = check_swt_bound(z, K4, method="component", poset=p)
        assert (r.status, r.invariant_value) == ("inconclusive", 1)
        assert "elements" not in vars(p._rows)

    def test_non_flipping_rejected(self, K3):
        from homlab import Graph, Z2Graph
        path = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
        z = Z2Graph.build(path, {1: 3, 2: 2, 3: 1})
        with pytest.raises(InputError):
            check_swt_bound(z, K3)

    def test_looped_target_rejected(self):
        from homlab import Graph
        with pytest.raises(InputError):
            check_swt_bound(complete_flip(2), Graph.build([1], [(1, 1)]))

    def test_json_round_trip(self, K3):
        r = check_swt_bound(complete_flip(2), K3, names=("K2", "swap", "K3"))
        d = r.to_json()
        assert d["bound"] == "swt" and d["status"] == "holds"
        assert d["test_graph"] == "K2" and d["target_graph"] == "K3"
        assert d["invariant_value"] == 1


class TestCheckHt:
    def test_k2_k3(self, K2, K3):
        r = check_ht_bound(K2, K3)
        # conn = 0 exact: 3 >= 0 + 2 + 1, equality
        assert (r.status, r.invariant_value, r.invariant_exact) == ("holds", 0, True)

    def test_k2_k2_disconnected(self, K2):
        r = check_ht_bound(K2, K2)
        assert (r.status, r.invariant_value) == ("holds", -1)

    def test_empty_hom(self, K2):
        r = check_ht_bound(complete(3), K2)
        assert r.status == "holds" and r.invariant_value == -math.inf

    def test_upper_bound_decides_holds(self, K2, K4):
        # conn = 1 is only an upper bound, and 4 >= 1 + 2 + 1 holds at it
        r = check_ht_bound(K2, K4)
        assert (r.status, r.invariant_value, r.invariant_exact) == ("holds", 1, False)

    def test_inexact_value_never_violates(self, K2, K4, monkeypatch):
        monkeypatch.setattr(bounds, "conn_proxy", lambda x: ConnResult(2, False))
        assert check_ht_bound(K2, K4).status == "inconclusive"

    def test_exact_value_one_short_violates(self, K2, monkeypatch):
        # an exact conn = 0 with chi(G) = chi(T): 2 < 0 + 2 + 1
        monkeypatch.setattr(bounds, "conn_proxy", lambda x: ConnResult(0, True))
        r = check_ht_bound(K2, K2)
        assert (r.status, r.invariant_value, r.invariant_exact) == ("violated", 0, True)


class TestTheorem2Pipeline:
    def test_all_stages_pass(self):
        report = theorem2_pipeline()
        assert report.passed
        assert [s.name for s in report.stages] == [
            "certificate", "same_component", "swt_violation",
            "equivariant_c5_map", "gamma1_moves_components"]
        assert all(s.passed for s in report.stages)

    def test_components_computed_once(self, monkeypatch):
        """The gamma2 and gamma1 posets share the components of Hom(T, K3)."""
        labels = HomPoset.__dict__["component_labels"]
        calls = []

        def counted(poset):
            calls.append(len(poset))
            return labels.func(poset)
        counted_labels = cached_property(counted)
        counted_labels.__set_name__(HomPoset, "component_labels")
        monkeypatch.setattr(HomPoset, "component_labels", counted_labels)
        assert theorem2_pipeline().passed
        assert calls == [2160]

    def test_broken_certificate_stops_early(self, T, K3):
        cert = bundled_fig3_certificate()
        rows = list(cert.colorings)
        del rows[7]
        bad = PathCertificate.build(T, K3, rows)
        report = theorem2_pipeline(certificate=bad)
        assert not report.passed
        assert len(report.stages) == 1 and not report.stages[0].passed

    def test_wrong_endpoints_rejected(self, T, K3):
        cert = bundled_fig3_certificate()
        rows = list(cert.colorings)[:-1]  # drop the final coloring
        report = theorem2_pipeline(certificate=PathCertificate.build(T, K3, rows))
        assert not report.passed and not report.stages[0].passed

    def test_json_shape(self):
        d = theorem2_pipeline().to_json()
        assert d["pipeline"] == "theorem2" and d["passed"] is True
        assert len(d["stages"]) == 5


class TestTheorem1Pipeline:
    def test_c4(self):
        report = theorem1_pipeline(cycle(4))
        assert report.passed
        # retraction plus one identity check per suite graph
        assert len(report.stages) == 4

    def test_k2(self, K2):
        assert theorem1_pipeline(K2).passed

    def test_tree(self):
        from homlab import Graph
        tree = Graph.build([1, 2, 3, 4, 5], [(1, 2), (1, 3), (3, 4), (3, 5)])
        assert theorem1_pipeline(tree).passed

    def test_all_bipartite_graphs_up_to_five(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                from homlab import chromatic_number
                if chromatic_number(g) == 2:
                    assert theorem1_pipeline(g).passed, g

    def test_chi_three_rejected(self, K3):
        with pytest.raises(InputError):
            theorem1_pipeline(K3)

    def test_custom_suite(self):
        report = theorem1_pipeline(cycle(6), suite=[complete(3)])
        assert report.passed and len(report.stages) == 2

    def test_swapped_retraction_fails_every_identity(self, monkeypatch):
        """A retraction that swaps the edge's endpoints makes r o i the swap,
        whose precomposition moves every element of Hom(K2, G)."""
        find = bounds.find_retraction_to_edge

        def swapped(t):
            w = find(t)
            u, v = w.inclusion.assignment
            flip = {u: v, v: u}
            r = GraphMap.build(t, w.retraction.target,
                               tuple(flip[x] for x in w.retraction.assignment))
            return RetractionWitness(inclusion=w.inclusion, retraction=r)
        monkeypatch.setattr(bounds, "find_retraction_to_edge", swapped)
        report = theorem1_pipeline(cycle(4))
        assert not report.passed
        identities = [s for s in report.stages if s.name.startswith("retract_identity[")]
        assert len(identities) == 3
        assert not any(s.passed for s in identities)


def test_pipelines_build_no_tuples(monkeypatch, T, K2, K3):
    """Theorem 1, Theorem 2, ``induced_map`` and graph-map lookups run on the
    mask arrays: none of them builds a poset's element tuples."""
    def refused(rows):
        raise AssertionError("element tuples built")
    monkeypatch.setattr(hom._Rows, "elements", property(refused))
    assert theorem1_pipeline(cycle(4)).passed
    assert theorem2_pipeline().passed
    f = GraphMap.build(K2, T, ("a", "b"))
    idx = induced_map(f, enumerate_hom(T, K3), enumerate_hom(K2, K3))
    assert len(idx) == 2160 and (idx >= 0).all()
    poset = enumerate_hom(K2, K3)
    phi, psi = (GraphMap.build(K2, K3, a) for a in ((1, 2), (3, 2)))
    assert poset.same_component(phi, psi)


class TestBoundSuite:
    def test_no_violations_k2_swap(self):
        family = [g for n in range(1, 5) for g in connected_graphs(n)]
        reports = bound_suite(complete_flip(2), family)
        assert len(reports) == len(family)
        assert all(r.status != "violated" for r in reports)

    def test_method_switch(self, K3):
        reports = bound_suite(paper_gamma1(), [K3])
        # Hom(T, K3) has 2160 elements, above the full-method cap
        assert reports[0].method == "component"

    def test_errors_collected_not_raised(self):
        from homlab import Graph
        looped = Graph.build([1], [(1, 1)])
        reports = bound_suite(complete_flip(2), [complete(3), looped])
        assert reports[0].status == "holds"
        assert reports[1].status.startswith("error:")

    @pytest.mark.parametrize("error, raised", [
        (ResourceLimitError, False), (InvariantError, True), (FreenessError, True)])
    def test_only_input_and_resource_errors_collected(self, monkeypatch, error, raised):
        def broken(*args, **kwargs):
            raise error("planted")
        monkeypatch.setattr(bounds, "sw_height", broken)
        family = [complete(2), complete(3)]
        if raised:
            with pytest.raises(error):
                bound_suite(complete_flip(2), family)
        else:
            reports = bound_suite(complete_flip(2), family)
            assert [r.status for r in reports] == ["error: planted"] * 2

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_folded_report_matches_direct_check(self, small_graphs, data):
        """Folding to the stiff core keeps the height, its exactness and chi."""
        g = data.draw(small_graphs(1, loops=False))
        t = data.draw(st.sampled_from([complete_flip(2), cycle_reflection(5)]))
        [folded] = bound_suite(t, [g])
        poset = induced_involution(t, enumerate_hom(t.graph, g))
        method = "full" if len(poset) <= FULL_METHOD_MAX_ELEMENTS else "component"
        direct = check_swt_bound(t, g, method=method, poset=poset)
        fields = ("status", "invariant_value", "invariant_exact", "chi_target")
        assert ([getattr(folded, f) for f in fields]
                == [getattr(direct, f) for f in fields])

    def test_one_enumeration_per_core(self, monkeypatch):
        # the 31 connected graphs on at most 5 vertices fold to 7 cores,
        # and nothing is kept from one call to the next
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_hom(*args, **kwargs)
        monkeypatch.setattr(bounds, "enumerate_hom", counted)
        family = [g for n in range(1, 6) for g in connected_graphs(n)]
        for z in (complete_flip(2), cycle_reflection(5)):
            assert len(bound_suite(z, family)) == 31
        assert len(calls) == 2 * 7

    def test_folded_witness_lists_checkable_folds(self):
        family = [g for n in range(1, 6) for g in connected_graphs(n)]
        reports = bound_suite(cycle_reflection(5), family, names=("C5", "reflection"))
        folded = [(g, r.witness) for g, r in zip(family, reports)
                  if r.witness and "core" in r.witness]
        assert folded
        for g, witness in folded:
            head, steps = witness.split(", core = G after folding ")
            assert head.endswith(" of Hom(C5, core)")
            nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
            for step in steps.split(", "):
                u, v = (int(x) for x in step.split(" onto "))
                assert u != v and nbrs[u] <= nbrs[v]
                for w in nbrs.pop(u):
                    nbrs[w].discard(u)
