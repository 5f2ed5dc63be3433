"""Tests of the benchmark itself: the checkers reject wrong answers, and a
resource-limited operation counts as failed instead of ending the run.

    PYTHONPATH=src python3 -m pytest -q pipeline_bench
"""

import dataclasses
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import homlab  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def height(value, exact=True):
    return SimpleNamespace(value=value, exact=exact)


def brute_hom_size(vertices, edges, m):
    """Multihoms by definition: every pair of sets on an edge is disjoint."""
    subsets = range(1, 1 << m)
    return sum(
        all(sets[u] & sets[v] == 0 for u, v in edges)
        for sets in itertools.product(subsets, repeat=vertices)
    )


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def brute_colourings(vertices, edges, m):
    return sum(all(c[u] != c[v] for u, v in edges)
               for c in itertools.product(range(m), repeat=vertices))


class TestSizeFormulas:
    def test_against_brute_force(self):
        for n in (3, 4):
            assert checks.hom_k2_size(n) == brute_hom_size(2, [(0, 1)], n)
            assert checks.hom_cycle_size(5, n) == brute_hom_size(5, cycle_edges(5), n)
        k4 = list(itertools.combinations(range(4), 2))
        assert checks.hom_complete_size(4, 5) == brute_hom_size(4, k4, 5)

    def test_chromatic_polynomials_against_brute_force(self):
        assert checks.chrom_poly_cycle(5, 3) == brute_colourings(5, cycle_edges(5), 3)
        assert checks.chrom_poly_cycle(6, 3) == brute_colourings(6, cycle_edges(6), 3)
        t_edges = cycle_edges(5) + [(u + 5, v + 5) for u, v in cycle_edges(5)] + [(0, 5)]
        assert checks.chrom_poly_paper_t(3) == brute_colourings(10, t_edges, 3)

    def test_instance_sizes(self):
        assert checks.hom_cycle_size(5, 5) == 45_540
        assert checks.hom_cycle_size(7, 4) == 55_440
        assert checks.hom_complete_size(4, 7) == 25_200
        assert checks.hom_cycle_size(13, 3) == 93_600
        assert checks.hom_paper_t_size(3) == 2160

    def test_wrong_size_rejected(self):
        poset = homlab.enumerate_hom(homlab.complete(2), homlab.complete(4))
        checks.check_poset_size(poset, checks.hom_k2_size(4), 12, "Hom(K2, K4)")
        with pytest.raises(CheckFailed):
            checks.check_poset_size(poset, checks.hom_k2_size(4) + 1, 12, "Hom(K2, K4)")
        with pytest.raises(CheckFailed):
            checks.check_poset_size(poset, checks.hom_k2_size(4), 11, "Hom(K2, K4)")


class TestTopologyChecks:
    def test_k2_height(self):
        checks.check_k2_height(5, height(3))
        with pytest.raises(CheckFailed):
            checks.check_k2_height(5, height(2))  # n - 3
        with pytest.raises(CheckFailed):
            checks.check_k2_height(5, height(3, exact=False))

    def test_k2_betti_and_euler(self):
        checks.check_k2_betti(4, (1, 0, 1), [50, 120, 72])
        with pytest.raises(CheckFailed):
            checks.check_k2_betti(4, (1, 1, 1), [50, 120, 72])
        with pytest.raises(CheckFailed):
            checks.check_k2_betti(4, (1, 0, 1), [50, 120, 71])

    def test_paper_t_heights(self):
        poset = homlab.induced_involution(
            homlab.paper_gamma2(), homlab.enumerate_hom(homlab.paper_T(), homlab.complete(3)))
        assert workloads.check_paper_t_height("gamma2", "full", poset, height(1)) == 1
        for wrong in (height(0), height(3), height(1, exact=False)):
            with pytest.raises(CheckFailed):
                workloads.check_paper_t_height("gamma2", "full", poset, wrong)
        with pytest.raises(CheckFailed):
            workloads.check_paper_t_height("gamma1", "full", poset, height(1))

    def test_union_find_components(self):
        poset = homlab.enumerate_hom(homlab.paper_T(), homlab.complete(3))
        assert checks.components_by_union_find(poset.elements) == 4
        assert checks.max_rank(poset.elements) == 2


class TestCertificate:
    def test_bundled_certificate_passes(self):
        cert = homlab.bundled_fig3_certificate()
        checks.check_recolouring_path(cert.source.vertices, cert.colorings)

    def test_two_vertex_step_rejected(self):
        cert = homlab.bundled_fig3_certificate()
        rows = list(cert.colorings)
        del rows[1]
        with pytest.raises(CheckFailed, match="changes 2 vertices"):
            checks.check_recolouring_path(cert.source.vertices, rows)

    def test_improper_colouring_and_wrong_end_rejected(self):
        cert = homlab.bundled_fig3_certificate()
        rows = [list(r) for r in cert.colorings]
        rows[0][1] = rows[0][0]  # b takes a's colour
        with pytest.raises(CheckFailed):
            checks.check_recolouring_path(cert.source.vertices, rows)
        with pytest.raises(CheckFailed, match="gamma2"):
            checks.check_recolouring_path(cert.source.vertices, cert.colorings[:-1])


class TestSweepChecks:
    def test_family_checker(self):
        path, triangle = (3, [(0, 1), (1, 2)]), (3, [(0, 1), (1, 2), (0, 2)])
        checks.check_connected_family(3, [path, triangle])
        with pytest.raises(CheckFailed):
            checks.check_connected_family(3, [(3, [(0, 1), (1, 2)]), (3, [(0, 2), (1, 2)])])
        with pytest.raises(CheckFailed):
            checks.check_connected_family(3, [(3, [(0, 1), (1, 2)])])

    def test_suite_checker(self):
        family = [homlab.complete(3), homlab.cycle(4)]
        reports = homlab.bound_suite(homlab.cycle_reflection(5), family)
        assert workloads.check_suite("C5", family, reports) == 2
        violated = dataclasses.replace(reports[0], status="violated")
        with pytest.raises(CheckFailed):
            workloads.check_suite("C5", family, [violated, reports[1]])
        wrong_chi = dataclasses.replace(reports[1], chi_target=3)
        with pytest.raises(CheckFailed):
            workloads.check_suite("C5", family, [reports[0], wrong_chi])

    def test_component_checker(self):
        z, g = homlab.paper_gamma2(), homlab.complete(3)
        poset = homlab.induced_involution(z, homlab.enumerate_hom(z.graph, g))
        r = homlab.check_swt_bound(z, g, method="component", poset=poset)
        expected = workloads.component_route_expected()[-1]
        workloads.check_component_report("T", poset, r, *expected)
        holds = dataclasses.replace(r, status="inconclusive")
        with pytest.raises(CheckFailed):
            workloads.check_component_report("T", poset, holds, *expected)


class TestRunner:
    def test_resource_limit_counts_as_failed(self):
        ops = workloads.ops_spheres(homlab, workloads.setup_spheres(homlab))
        k7 = [op for op in ops if "K7" in op.name]
        assert len(k7) == 1
        out = run.run_round(homlab, k7)
        assert out["attempted"] == 1 and out["wrong"] == []
        assert len(out["failed"]) == 1 and "ResourceLimitError" in out["failed"][0]

    def test_wrong_answer_is_recorded(self):
        def bad_check(result):
            raise CheckFailed("height 1 for K2 -> K4, expected 2")
        ops = [workloads.Op("height", lambda: 1, bad_check),
               workloads.Op("next", lambda: 2, lambda result: 1)]
        out = run.run_round(homlab, ops)
        assert out["wrong"] == ["height: height 1 for K2 -> K4, expected 2"]
        assert out["exact"] == 1 and out["failed"] == []
