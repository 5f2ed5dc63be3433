"""The names the benchmark's tracer wraps still exist and still carry the
full-height path, the component route and the Betti path.

``pipeline_bench/spans.py`` rebinds homlab's functions by name from outside
the package; a renamed or bypassed function would silently drop out of its
per-layer metrics.  This test reads ``pipeline_bench/`` and changes nothing
there.
"""

from pathlib import Path

import homlab

BENCH = Path(__file__).resolve().parent.parent / "pipeline_bench"


def test_tracer_sees_the_height_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    # construction looks up every name in SPANNED, HomPoset.leq and
    # HomPoset.component_labels
    tracer = spans.Tracer(homlab)
    try:
        z = homlab.complete_flip(2)
        poset = homlab.induced_involution(
            z, homlab.enumerate_hom(z.graph, homlab.complete(5)))
        res = homlab.sw_height(poset, max_chains=100_000)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (res.value, res.exact) == (3, True)
    for name in ("sw_height", "quotient_with_w1", "cup_power", "is_coboundary"):
        assert metrics[f"complexes.{name}_calls"] >= 1, name


def test_tracer_sees_the_component_route(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer(homlab)
    try:
        report = homlab.check_swt_bound(homlab.cycle_reflection(5), homlab.complete(5),
                                        method="component")
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (report.invariant_value, report.status) == (1, "inconclusive")
    # one component, and its labels computed once
    assert metrics["hom.components_s"] > 0
    assert metrics["hom.components"] == 1


def test_tracer_sees_the_betti_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer(homlab)
    try:
        x = homlab.order_complex(homlab.enumerate_hom(homlab.complete(2),
                                                      homlab.complete(5)))
        betti = homlab.betti_mod2(x)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert betti == (1, 0, 0, 1)
    assert metrics["complexes.order_complex_calls"] >= 1
    assert metrics["complexes.betti_mod2_calls"] >= 1
    assert [metrics[f"complexes.simplices.d{d}"] for d in range(4)] == [180, 1140, 1920, 960]
