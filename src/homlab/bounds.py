"""Runnable test-graph checks: the Stiefel-Whitney and homotopy lower bounds
on chromatic numbers, the two bundled verification pipelines, and the batch
bound sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .complexes import conn_proxy, hom_complex, sw_height
from .errors import InputError, InvariantError, ResourceLimitError
from .graphs import (Graph, Z2Graph, chromatic_number, complete, cycle,
                     cycle_reflection, find_retraction_to_edge, paper_f,
                     paper_gamma1, paper_gamma2, search_equivariant_map)
from .hom import (HomPoset, PathCertificate, enumerate_hom, induced_involution,
                  induced_map, verify_certificate)
from .serialize import bundled_fig3_certificate, graph_signature, json_number

__all__ = [
    "BoundReport",
    "StageResult",
    "PipelineReport",
    "check_swt_bound",
    "check_ht_bound",
    "theorem1_pipeline",
    "theorem2_pipeline",
    "bound_suite",
    "FULL_METHOD_MAX_ELEMENTS",
]

# bound_suite's method threshold.  On a 2-core Xeon VM (medians of 7 calls)
# the full method takes 86-98 ms on the C5/reflection -> K5 core (45,540
# elements) and 3.1-3.2 ms on the K4 one (2,160) against 6-7 and 0.5-0.6 ms
# for the component one; bound_suite C5 is bound-sweeps' slowest operation.
FULL_METHOD_MAX_ELEMENTS = 2000


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one chromatic lower-bound check.

    ``status`` is "violated" only on exact or lower-bound-sound evidence;
    a component-method ">= 1" height that would be needed to confirm a hold
    yields "inconclusive" instead.
    """

    test_graph: str
    involution: str
    target_graph: str
    chi_target: float
    chi_test: float
    bound_kind: str  # "swt" or "ht"
    invariant_value: float
    invariant_exact: bool
    method: str
    status: str  # holds | violated | inconclusive
    witness: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "test_graph": self.test_graph,
            "involution": self.involution,
            "target_graph": self.target_graph,
            "chi_target": json_number(self.chi_target),
            "chi_test": json_number(self.chi_test),
            "bound": self.bound_kind,
            "invariant_value": json_number(self.invariant_value),
            "invariant_exact": self.invariant_exact,
            "method": self.method,
            "status": self.status,
            "witness": self.witness,
        }


def _verdict(chi_g, chi_t, inv_value, exact: bool) -> str:
    if inv_value == -math.inf:
        return "holds"
    if chi_g < inv_value + chi_t:
        return "violated"  # sound: inv_value is exact or a lower bound
    return "holds" if exact else "inconclusive"


def check_swt_bound(t: Z2Graph, g: Graph, method: str = "full",
                    poset: Optional[HomPoset] = None,
                    names: tuple = ("T", "inv", "G")) -> BoundReport:
    """Evaluate chi(G) >= height(Hom(T, G)) + chi(T) on one instance."""
    if not t.is_flipping:
        raise InputError("the test involution must be flipping")
    if not g.is_loopless():
        raise InputError("the target graph must be loopless")
    if poset is None:
        poset = induced_involution(t, enumerate_hom(t.graph, g))
    height = sw_height(poset, method=method)
    chi_g = chromatic_number(g)
    chi_t = chromatic_number(t.graph)
    status = _verdict(chi_g, chi_t, height.value, height.exact)
    witness = None
    if height.method == "component" and height.value >= 1:
        comp = poset.invariant_components()
        witness = f"involution-invariant component {comp[0]}" if comp else None
    return BoundReport(
        test_graph=names[0], involution=names[1], target_graph=names[2],
        chi_target=chi_g, chi_test=chi_t, bound_kind="swt",
        invariant_value=height.value, invariant_exact=height.exact,
        method=height.method, status=status, witness=witness,
    )


def check_ht_bound(t: Graph, g: Graph, names: tuple = ("T", "G")) -> BoundReport:
    """Evaluate chi(G) >= conn(Hom(T, G)) + chi(T) + 1 using the homological
    proxy.

    The proxy reads connectivity off GF(2) homology, so its value is an
    upper bound on the true connectivity: "holds" is sound whenever the
    bound holds at that value (always for an empty Hom complex), and
    "violated" only when the value is exact (-1 or 0); otherwise the
    verdict is "inconclusive".
    """
    conn = conn_proxy(hom_complex(enumerate_hom(t, g)))
    chi_g = chromatic_number(g)
    chi_t = chromatic_number(t)
    if conn.value == -math.inf or chi_g >= conn.value + chi_t + 1:
        status = "holds"
    elif conn.exact:
        status = "violated"
    else:
        status = "inconclusive"
    return BoundReport(
        test_graph=names[0], involution="", target_graph=names[1],
        chi_target=chi_g, chi_test=chi_t, bound_kind="ht",
        invariant_value=conn.value, invariant_exact=conn.exact,
        method="conn_proxy", status=status,
    )


# ---------------------------------------------------------------------------
# Pipelines


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class PipelineReport:
    pipeline: str
    stages: tuple
    passed: bool

    def to_json(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "passed": self.passed,
            "stages": [s.to_json() for s in self.stages],
        }


def theorem2_pipeline(certificate: Optional[PathCertificate] = None) -> PipelineReport:
    """Five-stage check that (T, gamma1) passes and (T, gamma2) fails the
    Stiefel-Whitney bound at G = K3.

    Stages: (1) the bundled 16-coloring path certificate is valid with the
    expected endpoints; (2) its endpoints lie in one component of Hom(T, K3);
    (3) the gamma2-induced involution therefore preserves a component, so the
    height is at least 1 and 3 >= 1 + 3 fails; (4) an equivariant map
    C5 -> (T, gamma1) exists and chi(C5) = chi(T) = 3; (5) no component of
    Hom(T, K3) is preserved by the gamma1-induced involution.
    """
    stages = []
    cert = certificate if certificate is not None else bundled_fig3_certificate()
    f = paper_f()
    g2 = paper_gamma2()
    f_g2 = f.compose(g2.involution)

    check = verify_certificate(cert)
    endpoints_ok = (
        cert.colorings
        and cert.colorings[0] == f.assignment
        and cert.colorings[-1] == f_g2.assignment
    )
    moves_ok = all(
        sum(1 for a, b in zip(cert.colorings[i - 1], cert.colorings[i]) if a != b) == 1
        for i in range(1, len(cert.colorings))
    )
    s1 = check.ok and bool(endpoints_ok) and moves_ok
    detail = (
        f"{len(cert.colorings)} colorings, {cert.moves()} single-vertex moves"
        if s1 else
        f"index {check.index}: {check.reason}" if not check.ok else
        "wrong endpoints or a zero-vertex step"
    )
    stages.append(StageResult("certificate", s1, detail))
    if not s1:
        return PipelineReport("theorem2", tuple(stages), False)

    poset = enumerate_hom(g2.graph, complete(3))
    same = poset.same_component(f, f_g2)
    if not same:
        raise InvariantError("a valid certificate forces same-component")
    stages.append(StageResult(
        "same_component", True,
        f"f and f∘gamma2 share a component of the {len(poset)}-element Hom(T,K3)"))

    p2 = induced_involution(g2, poset)
    report = check_swt_bound(g2, complete(3), method="component", poset=p2,
                             names=("paper_T", "gamma2", "K3"))
    s3 = report.status == "violated"
    stages.append(StageResult(
        "swt_violation", s3,
        f"chi(K3)={report.chi_target} < height(>= {report.invariant_value})"
        f" + chi(T)={report.chi_test}" if s3 else f"status={report.status}"))
    if not s3:
        return PipelineReport("theorem2", tuple(stages), False)

    g1 = paper_gamma1()
    phi = search_equivariant_map(cycle_reflection(5), g1)
    chi_c5 = chromatic_number(cycle_reflection(5).graph)
    chi_t = chromatic_number(g1.graph)
    s4 = phi is not None and chi_c5 == chi_t == 3
    stages.append(StageResult(
        "equivariant_c5_map", s4,
        f"map {phi.as_dict()}, chi(C5)={chi_c5}, chi(T)={chi_t}" if s4
        else "no equivariant map or wrong chromatic numbers"))
    if not s4:
        return PipelineReport("theorem2", tuple(stages), False)

    p1 = induced_involution(g1, poset)
    invariant = p1.invariant_components()
    s5 = not invariant
    stages.append(StageResult(
        "gamma1_moves_components", s5,
        f"all {len(p1.components())} components moved by gamma1" if s5
        else f"invariant components {invariant}"))
    return PipelineReport("theorem2", tuple(stages), all(s.passed for s in stages))


def theorem1_pipeline(t: Graph, suite: Optional[Sequence[Graph]] = None) -> PipelineReport:
    """For a graph with chi = 2: retract onto an edge, then verify the
    retract identity i* o r* = id on Hom(edge, G) for each suite G: the
    precomposition with r o i sends every element to its own index."""
    if chromatic_number(t) != 2:
        raise InputError("theorem1_pipeline requires a graph with chromatic number 2")
    if suite is None:
        suite = [complete(2), complete(3), cycle(5)]
    witness = find_retraction_to_edge(t)
    stages = [StageResult(
        "retraction", witness is not None and witness.check(),
        f"retract onto edge {tuple(witness.inclusion.assignment)}"
        if witness else "no retraction found")]
    if witness is None:
        return PipelineReport("theorem1", tuple(stages), False)
    r_i = witness.retraction.compose(witness.inclusion)
    for g in suite:
        q = enumerate_hom(r_i.source, g)
        ok = induced_map(r_i, q, q).tolist() == list(range(len(q)))
        stages.append(StageResult(
            f"retract_identity[{graph_signature(g)}]", ok,
            f"i* o r* = id on {len(q)} elements" if ok else "identity failed"))
    return PipelineReport("theorem1", tuple(stages), all(s.passed for s in stages))


def _stiff_core(g: Graph) -> tuple:
    """Fold a loopless ``g`` greedily to a stiff core.

    A fold removes a vertex u whose neighborhood lies inside that of
    another vertex v (``N(u) <= N(v)``); each step takes the first such
    pair in g's vertex order.  Returns the core, the subgraph of g induced
    on the vertices left, in g's order, and the folds as (u, v) pairs in
    the order they were made, each checkable in the graph left before it.
    """
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    folds = []
    while True:
        fold = next(((u, v) for u in nbrs for v in nbrs
                     if u != v and nbrs[u] <= nbrs[v]), None)
        if fold is None:
            break
        folds.append(fold)
        for w in nbrs.pop(fold[0]):
            nbrs[w].discard(fold[0])
    core = Graph.build(tuple(nbrs), [e for e in g.edges if e[0] in nbrs and e[1] in nbrs])
    return core, folds


def bound_suite(t: Z2Graph, family: Sequence[Graph],
                names: tuple = ("T", "inv")) -> list:
    """check_swt_bound across a family; per-item input and resource errors
    are collected.

    Each loopless target G is folded to a stiff core (``_stiff_core``).  A
    fold G -> G - u and its inclusion are graph maps both ways, so they
    induce Z2-maps both ways between Hom(T, G) and Hom(T, G - u): the
    heights agree, and so do the chromatic numbers (Babson & Kozlov 2006;
    Kozlov 2006).  Cores are keyed by their edge sets on vertex positions
    in G's order, and within one call each key is checked once, with the
    full method when the core's poset has at most FULL_METHOD_MAX_ELEMENTS
    elements and the component method above; an error is reused the same
    way.  Every G gets its core's report under its own ``target_graph``.  A
    component witness of a folded G names a component of Hom(T, core) and
    lists the folds that reach the core.  Looped targets are not folded.
    """
    reports = []
    memo = {}
    for g in family:
        core, folds = _stiff_core(g) if g.is_loopless() else (g, [])
        key = (len(core.vertices),
               frozenset((core.index(u), core.index(v)) for u, v in core.edges))
        if key not in memo:
            memo[key] = _core_report(t, core, names)
        report = memo[key]
        witness = report.witness
        if witness is not None and folds:
            steps = ", ".join(f"{u} onto {v}" for u, v in folds)
            witness = f"{witness} of Hom({names[0]}, core), core = G after folding {steps}"
        reports.append(replace(report, target_graph=graph_signature(g), witness=witness))
    return reports


def _core_report(t: Z2Graph, core: Graph, names: tuple) -> BoundReport:
    gname = graph_signature(core)
    try:
        poset = induced_involution(t, enumerate_hom(t.graph, core))
        method = "full" if len(poset) <= FULL_METHOD_MAX_ELEMENTS else "component"
        return check_swt_bound(t, core, method=method, poset=poset,
                               names=(names[0], names[1], gname))
    except (InputError, ResourceLimitError) as exc:
        return BoundReport(
            test_graph=names[0], involution=names[1], target_graph=gname,
            chi_target=math.nan, chi_test=math.nan, bound_kind="swt",
            invariant_value=math.nan, invariant_exact=False,
            method="error", status=f"error: {exc}")
