"""Acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line (run with ``pytest -s`` to see them inline).  All checks are exact;
the stated time limits are asserted with a generous margin against wall
clock, so a pathological slowdown fails loudly instead of silently.
"""

import time

import numpy as np

from homlab import (bound_suite, check_swt_bound, chromatic_number,
                    complete, complete_flip, connected_graphs, cycle,
                    cycle_reflection, enumerate_hom, find_retraction_to_edge,
                    induced_involution, induced_map, is_graph_map, order_complex,
                    paper_f, paper_gamma1, paper_gamma2, betti_mod2,
                    search_equivariant_map, sw_height, theorem2_pipeline,
                    verify_certificate)
from homlab.bounds import FULL_METHOD_MAX_ELEMENTS
from homlab.complexes import CocycleClass, coboundary, is_coboundary
from homlab.serialize import bundled_fig3_certificate

from conftest import generic_quotient, simplicial_complex


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _collect_free_posets():
    """The flipping (T, gamma) / loopless G instances used across criteria 1-6."""
    out = []
    out.append(induced_involution(complete_flip(2), enumerate_hom(complete(2), complete(3))))
    out.append(induced_involution(complete_flip(2), enumerate_hom(complete(2), complete(4))))
    out.append(induced_involution(paper_gamma1(), enumerate_hom(paper_gamma1().graph, complete(3))))
    out.append(induced_involution(paper_gamma2(), enumerate_hom(paper_gamma2().graph, complete(3))))
    out.append(induced_involution(cycle_reflection(5), enumerate_hom(cycle(5), complete(3))))
    return out


def test_criterion_1_theorem2_reproduction():
    t0 = time.monotonic()
    cert = bundled_fig3_certificate()
    report = theorem2_pipeline()
    elapsed = time.monotonic() - t0
    f = paper_f()
    f_g2 = f.compose(paper_gamma2().involution)
    swt = check_swt_bound(paper_gamma2(), complete(3), method="component")
    ok = (
        report.passed
        and len(report.stages) == 5
        and verify_certificate(cert).ok
        and len(cert.colorings) == 16
        and cert.moves() == 15
        and cert.colorings[0] == f.assignment
        and cert.colorings[-1] == f_g2.assignment
        and swt.status == "violated"
        and swt.chi_target == 3 and swt.chi_test == 3
        and swt.invariant_value >= 1
        and elapsed < 30
    )
    _report("criterion 1: theorem2 pipeline, 16-coloring certificate, "
            f"SWT violation 3 < 1 + 3 ({elapsed:.2f}s)", ok)


def test_criterion_2_gamma1_moves_every_component(hom_T_k3):
    p1 = induced_involution(paper_gamma1(), hom_T_k3)
    height = sw_height(p1, method="component")
    ok = (
        p1.invariant_components() == []
        and (height.value, height.exact) == (0, True)
        and len(p1.components()) == 4
    )
    _report("criterion 2: gamma1 permutes all 4 components of Hom(T,K3), "
            "component-method height 0", ok)


def test_criterion_3_equivariant_c5_map():
    t0 = time.monotonic()
    a, b = cycle_reflection(5), paper_gamma1()
    phi = search_equivariant_map(a, b)
    elapsed = time.monotonic() - t0
    ok = (
        phi is not None
        and is_graph_map(phi.as_dict(), a.graph, b.graph)
        and all(phi(a.involution(v)) == b.involution(phi(v))
                for v in a.graph.vertices)
        and chromatic_number(a.graph) == chromatic_number(b.graph) == 3
        and elapsed < 5
    )
    _report("criterion 3: equivariant map (C5, reflection) -> (T, gamma1), "
            f"chi(C5) = chi(T) = 3 ({elapsed:.2f}s)", ok)


def test_criterion_4_height_oracle_values(hom_k2_k3_swap, hom_k2_k4_swap):
    t0 = time.monotonic()
    h3 = sw_height(hom_k2_k3_swap, method="full")
    h4 = sw_height(hom_k2_k4_swap, method="full")
    elapsed = time.monotonic() - t0
    ok = (
        (h3.value, h3.exact) == (1, True)
        and (h4.value, h4.exact) == (2, True)
        and 3 == h3.value + 2   # chi(K3) = height + chi(K2), equality
        and 4 == h4.value + 2
        and elapsed < 60
    )
    _report("criterion 4: full-method heights 1 (K2,K3) and 2 (K2,K4), "
            f"bounds tight ({elapsed:.2f}s)", ok)


def test_criterion_5_betti_suite(hom_k2_k3, hom_k2_k4):
    b3 = betti_mod2(order_complex(hom_k2_k3))
    b4 = betti_mod2(order_complex(hom_k2_k4))
    ok = b3 == (1, 1) and b4 == (1, 0, 1)
    _report("criterion 5: Betti (1,1) for Hom(K2,K3) and (1,0,1) for Hom(K2,K4)", ok)


def test_criterion_6_bound_sweep():
    t0 = time.monotonic()
    family = [g for n in range(1, 6) for g in connected_graphs(n)]
    reports = bound_suite(complete_flip(2), family)
    elapsed = time.monotonic() - t0
    violations = [r for r in reports if r.status == "violated"]
    errors = [r for r in reports if r.method == "error"]
    ok = (
        len(reports) == 31
        and not violations
        and not errors
        and elapsed < 600
    )
    _report(f"criterion 6: sweep over {len(reports)} connected graphs <= 5 "
            f"vertices, {len(violations)} violations ({elapsed:.2f}s)", ok)


def test_criterion_7_component_oracle_equivalence(hom_T_k3, atom_components):
    posets = []
    posets.append(enumerate_hom(complete(2), complete(3)))
    posets.append(enumerate_hom(complete(2), complete(4)))
    posets.append(enumerate_hom(cycle(5), complete(3)))
    for n in range(1, 6):
        for g in connected_graphs(n):
            p = enumerate_hom(complete(2), g)
            if 0 < len(p) <= FULL_METHOD_MAX_ELEMENTS:
                posets.append(p)
    checked = 0
    for p in posets:
        if not (0 < len(p) <= FULL_METHOD_MAX_ELEMENTS):
            continue
        if not np.array_equal(atom_components(p), p.component_labels):
            _report("criterion 7: atom-move pi0 equals comparability pi0", False)
        checked += 1
    extra = np.array_equal(atom_components(hom_T_k3), hom_T_k3.component_labels)
    _report(f"criterion 7: atom-move pi0 equals comparability pi0 on "
            f"{checked} posets <= {FULL_METHOD_MAX_ELEMENTS} elements "
            "(plus Hom(T,K3))", checked > 10 and extra)


def test_criterion_8_property_suite(hom_k2_k3, hom_k2_k4, boundary_matrix,
                                   on_simplices):
    rng = np.random.default_rng(17)

    # boundary squared and coboundary squared vanish
    dd = True
    for poset in (hom_k2_k3, hom_k2_k4):
        x = order_complex(poset)
        for d in range(1, x.dim + 1):
            if ((boundary_matrix(x, d) @ boundary_matrix(x, d + 1)) % 2).any():
                dd = False
        for _ in range(5):
            c = CocycleClass(x, 0, rng.integers(0, 2, x.n_cells(0),
                                                dtype=np.uint8))
            if coboundary(coboundary(c)).values.any():
                dd = False

    # freeness of every induced involution encountered above, and
    # section-independence of the w1 class under relabeled vertex orders
    free = True
    section_independent = True
    for poset in _collect_free_posets():
        if any(poset.involution[i] == i for i in range(len(poset))):
            free = False
        if len(poset) == 0 or len(poset) > FULL_METHOD_MAX_ELEMENTS:
            continue
        x = order_complex(poset)
        tau = {i: poset.involution[i] for i in range(len(poset))}
        # raises FreenessError if not free
        _, w1 = generic_quotient(*on_simplices(x, tau))
        baseline = is_coboundary(w1)
        # relabel poset indices; the quotient section changes, the class must not
        perm = list(rng.permutation(len(poset)))
        inv_perm = [0] * len(poset)
        for new, old in enumerate(perm):
            inv_perm[old] = new
        relabeled = [
            sorted([tuple(inv_perm[v] for v in s) for s in level])
            for level in x.cells
        ]
        try:
            x2 = simplicial_complex(relabeled)
        except Exception:
            section_independent = False
            continue
        tau2 = {inv_perm[i]: inv_perm[tau[i]] for i in tau}
        _, w1b = generic_quotient(*on_simplices(x2, tau2))
        if is_coboundary(w1b) != baseline:
            section_independent = False

    # retract identity i* o r* = id on Hom(K2, G)
    retract = True
    k2 = complete(2)
    w = find_retraction_to_edge(k2)
    for g in (complete(2), complete(3), cycle(5)):
        q = enumerate_hom(w.inclusion.source, g)
        big = enumerate_hom(k2, g)
        r_star = induced_map(w.retraction, q, big)
        i_star = induced_map(w.inclusion, big, q)
        if not np.array_equal(i_star[r_star], np.arange(len(q))):
            retract = False

    ok = dd and free and section_independent and retract
    _report("criterion 8: dd=0, delta delta=0, w1 section-independence, "
            "freeness, retract identity on {K2, K3, C5}", ok)
