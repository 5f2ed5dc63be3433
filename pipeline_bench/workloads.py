"""The benchmark's operations, in four groups paired into two workloads.

An operation is one question put to one instance.  ``run`` is timed;
``check`` is not, raises :class:`checks.CheckFailed` on a wrong answer and
returns how many answers the program reported as exact.  Every function of
homlab is looked up on the module at call time, so the traced run sees its
wrappers.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import expect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The full method on K2 -> K7 triangulates the whole 1932-element poset:
# 1,468,824 chains.  The staircase triangulation has 8,988 simplices, so this
# budget lets a staircase build through and stops the barycentric one early.
K2_K7_CHAIN_BUDGET = 100_000


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], int]


def cli_op(args: list, expect_code: int, check: Callable[[list], int]) -> Op:
    """The CLI in a child process, timed from spawn to exit.

    ``check`` receives the parsed JSON lines of stdout."""
    argv = [sys.executable, "-m", "homlab.cli", *args, "--json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run():
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=170)

    def verify(proc) -> int:
        expect(proc.returncode == expect_code,
               f"homlab {' '.join(args)} exited {proc.returncode}, expected "
               f"{expect_code}: {proc.stderr.strip()[-300:]}")
        return check([json.loads(line) for line in proc.stdout.splitlines() if line])

    return Op("cli: homlab " + " ".join(args), run, verify)


def _edges0(g) -> list:
    pos = {v: i for i, v in enumerate(g.vertices)}
    return [(pos[u], pos[v]) for u, v in g.edges]


# ---------------------------------------------------------------------------
# spheres: Hom(K2, Kn), the GF(2) group


def setup_spheres(H) -> dict:
    return {"swap": H.complete_flip(2), "K": {n: H.complete(n) for n in range(3, 8)}}


def ops_spheres(H, inp) -> list:
    swap, K = inp["swap"], inp["K"]
    out = []

    def height(n, max_chains=None):
        def run():
            poset = H.induced_involution(swap, H.enumerate_hom(swap.graph, K[n]))
            return poset, H.sw_height(poset, method="full", max_chains=max_chains)

        def check(res) -> int:
            poset, h = res
            checks.check_poset_size(poset, checks.hom_k2_size(n),
                                    checks.chrom_poly_complete(2, n), f"Hom(K2, K{n})")
            checks.check_k2_height(n, h)
            return 1
        return run, check

    def betti(n):
        def run():
            x = H.order_complex(H.enumerate_hom(swap.graph, K[n]))
            return x, H.betti_mod2(x)

        def check(res) -> int:
            x, b = res
            counts = [x.n_simplices(d) for d in range(x.dim + 1)]
            checks.check_k2_betti(n, b, counts)
            return 0
        return run, check

    for n in range(3, 7):
        out.append(Op(f"height K2/swap -> K{n}", *height(n)))
    for n in range(3, 7):
        out.append(Op(f"betti K2 -> K{n}", *betti(n)))
    out.append(Op(f"height K2/swap -> K7, max_chains={K2_K7_CHAIN_BUDGET}",
                  *height(7, K2_K7_CHAIN_BUDGET)))
    return out


def cli_spheres() -> Op:
    def check(lines) -> int:
        expect(lines == [{"height": 3, "exact": True, "method": "full"}],
               f"height K2 swap K5 printed {lines}")
        return 0
    return cli_op(["height", "K2", "swap", "K5"], 0, check)


# ---------------------------------------------------------------------------
# paper-T: the headline reproduction on Hom(T, K3)


THEOREM2_STAGES = ("certificate", "same_component", "swt_violation",
                   "equivariant_c5_map", "gamma1_moves_components")


def setup_paper_t(H) -> dict:
    return {"gamma1": H.paper_gamma1(), "gamma2": H.paper_gamma2(), "K3": H.complete(3)}


def check_theorem2(H, report) -> int:
    names = tuple(s.name for s in report.stages)
    expect(report.passed and names == THEOREM2_STAGES
           and all(s.passed for s in report.stages),
           f"theorem2 pipeline: passed={report.passed}, stages={names}")
    cert = H.bundled_fig3_certificate()
    checks.check_recolouring_path(cert.source.vertices, cert.colorings)
    return 0


def check_paper_t_height(name: str, method: str, poset, h) -> int:
    checks.check_poset_size(poset, checks.hom_paper_t_size(3),
                            checks.chrom_poly_paper_t(3), "Hom(T, K3)")
    if name == "gamma1":
        # Theorem 2: (T, gamma1) is a test graph, so chi(K3) = 3 >= h + 3.
        expect(h.value == 0 and h.exact,
               f"{method} height under gamma1 is {h.value} (exact={h.exact}), expected 0")
        return 1
    # The fig-3 path joins f and f o gamma2, so gamma2 keeps a component.
    if method == "component":
        expect(h.value == 1 and not h.exact,
               f"component height under gamma2 is {h.value} (exact={h.exact}), "
               "expected the lower bound 1")
        return 0
    dim = checks.max_rank(poset.elements)
    expect(1 <= h.value <= dim and h.exact,
           f"full height under gamma2 is {h.value} (exact={h.exact}), "
           f"expected exactly a value in [1, {dim}]")
    return 1


def ops_paper_t(H, inp) -> list:
    out = [Op("theorem2_pipeline", lambda: H.theorem2_pipeline(),
              lambda r: check_theorem2(H, r))]

    def height(name, method):
        z = inp[name]

        def run():
            poset = H.induced_involution(z, H.enumerate_hom(z.graph, inp["K3"]))
            return poset, H.sw_height(poset, method=method)
        return Op(f"height T/{name} -> K3 [{method}]", run,
                  lambda res: check_paper_t_height(name, method, *res))

    for method in ("full", "component"):
        for name in ("gamma1", "gamma2"):
            out.append(height(name, method))

    def betti_run():
        poset = H.enumerate_hom(inp["gamma1"].graph, inp["K3"])
        x = H.order_complex(poset)
        return poset, x, H.betti_mod2(x)

    def betti_check(res) -> int:
        poset, x, b = res
        comps = checks.components_by_union_find(poset.elements)
        expect(b[0] == comps == 4,
               f"b0 of Hom(T, K3) is {b[0]}, union-find finds {comps} components, "
               "expected 4")
        checks.check_euler(b, [x.n_simplices(d) for d in range(x.dim + 1)], "Hom(T, K3)")
        return 0
    out.append(Op("betti T -> K3", betti_run, betti_check))
    return out


def cli_paper_t() -> Op:
    def check(lines) -> int:
        expect(len(lines) == 1 and lines[0]["passed"]
               and tuple(s["name"] for s in lines[0]["stages"]) == THEOREM2_STAGES,
               f"paper theorem2 printed {lines}")
        return 0
    return cli_op(["paper", "theorem2"], 0, check)


# ---------------------------------------------------------------------------
# sweep: bound_suite over all connected graphs on at most 5 vertices


def setup_sweep(H) -> dict:
    return {"C5": H.cycle_reflection(5), "K2": H.complete_flip(2)}


def check_suite(test: str, family, reports) -> int:
    """Odd cycles and K2 are test graphs (Babson-Kozlov), so no verdict may be
    'violated'; the empty poset and the chi = 3 case are forced exactly."""
    chi_test = {"C5": 3, "K2": 2}[test]
    expect(len(reports) == len(family),
           f"{test} sweep: {len(reports)} reports for {len(family)} graphs")
    exact = 0
    for g, r in zip(family, reports):
        n, edges = len(g.vertices), _edges0(g)
        chi = checks.brute_chromatic_number(n, edges)
        where = f"{test} sweep, target {r.target_graph}"
        expect(r.status in ("holds", "inconclusive"), f"{where}: status {r.status!r}")
        expect(r.status == "holds" or not r.invariant_exact,
               f"{where}: exact height {r.invariant_value} left inconclusive")
        expect(r.chi_target == chi and r.chi_test == chi_test,
               f"{where}: chromatic numbers {r.chi_target}, {r.chi_test}; "
               f"brute force gives {chi}, {chi_test}")
        empty = chi < chi_test  # Hom(C5, G) is empty iff G is bipartite
        expect((r.invariant_value == -math.inf) == empty,
               f"{where}: height {r.invariant_value} but chi(G) = {chi}")
        if test == "C5" and chi == 3:
            expect(r.invariant_value == 0 and r.invariant_exact,
                   f"{where}: chi(G) = 3 forces C5 height exactly 0, "
                   f"got {r.invariant_value} (exact={r.invariant_exact})")
        if test == "K2" and len(edges) == n * (n - 1) // 2 and n >= 2:
            expect(r.invariant_value == n - 2,
                   f"{where}: height of Hom(K2, K{n}) is {r.invariant_value}")
        exact += bool(r.invariant_exact)
    return exact


def ops_sweep(H, inp) -> list:
    family = {}

    def graphs_op(n):
        def run():
            family[n] = H.connected_graphs(n)
            return family[n]

        def check(graphs) -> int:
            checks.check_connected_family(n, [(len(g.vertices), _edges0(g)) for g in graphs])
            return 0
        return Op(f"connected_graphs({n})", run, check)

    out = [graphs_op(n) for n in range(1, 6)]

    def suite_op(test, inv):
        def graphs():
            return [g for n in sorted(family) for g in family[n]]
        return Op(f"bound_suite {test}/{inv}",
                  lambda: H.bound_suite(inp[test], graphs(), names=(test, inv)),
                  lambda reports: check_suite(test, graphs(), reports))

    return out + [suite_op("C5", "reflection"), suite_op("K2", "swap")]


def cli_sweep() -> Op:
    def check(lines) -> int:
        expect(len(lines) == 31 and all(r["status"] == "holds" for r in lines)
               and sum(r["invariant_value"] == "-inf" for r in lines) == 1,
               f"sweep K2 swap printed {len(lines)} reports: {lines[:3]} ...")
        return 0
    return cli_op(["sweep", "K2", "swap", "--max-n", "5"], 0, check)


# ---------------------------------------------------------------------------
# component-route: check_swt_bound(method="component") on large posets


def setup_component_route(H) -> list:
    c5, c7, c13 = (H.cycle_reflection(n) for n in (5, 7, 13))
    return [("C5/reflection -> K5", c5, H.complete(5)),
            ("C7/reflection -> K4", c7, H.complete(4)),
            ("K4/flip -> K7", H.complete_flip(4), H.complete(7)),
            ("C13/reflection -> K3", c13, H.complete(3)),
            ("paper_T/gamma2 -> K3", H.paper_gamma2(), H.complete(3))]


def component_route_expected() -> list:
    """Per instance: |Hom|, atoms, chi(T), chi(G) and the exact height."""
    return [
        (checks.hom_cycle_size(5, 5), checks.chrom_poly_cycle(5, 5), 3, 5, 2),
        (checks.hom_cycle_size(7, 4), checks.chrom_poly_cycle(7, 4), 3, 4, 1),
        (checks.hom_complete_size(4, 7), checks.chrom_poly_complete(4, 7), 4, 7, 3),
        (checks.hom_cycle_size(13, 3), checks.chrom_poly_cycle(13, 3), 3, 3, 0),
        (checks.hom_paper_t_size(3), checks.chrom_poly_paper_t(3), 3, 3, None),
    ]


def check_component_report(label, poset, r, size, atoms, chi_t, chi_g, height) -> int:
    """``height`` is the exact height the theory gives: m-3 for odd cycles into
    K_m and m-k for K_k into K_m (Babson-Kozlov); None for T/gamma2, where the
    fig-3 path forces an invariant component and so a violated bound."""
    checks.check_poset_size(poset, size, atoms, label)
    expect(r.chi_target == chi_g and r.chi_test == chi_t,
           f"{label}: chromatic numbers {r.chi_target}, {r.chi_test}")
    expect(r.method == "component", f"{label}: method {r.method}")
    if height == 0:
        want = (0, True, "holds")
    elif height is None:
        want = (1, False, "violated")
    else:
        want = (1, False, "inconclusive")
    got = (r.invariant_value, r.invariant_exact, r.status)
    expect(got == want, f"{label}: (height, exact, status) = {got}, expected {want}")
    return int(r.invariant_exact)


def ops_component_route(H, inp) -> list:
    out = []
    for (label, z, g), expected in zip(inp, component_route_expected()):
        def run(z=z, g=g):
            poset = H.induced_involution(z, H.enumerate_hom(z.graph, g))
            return poset, H.check_swt_bound(z, g, method="component", poset=poset)

        out.append(Op(f"check_swt_bound {label} [component]", run,
                      lambda res, label=label, e=expected:
                      check_component_report(label, *res, *e)))
    return out


def cli_component_route() -> Op:
    def check(lines) -> int:
        r = lines[0] if len(lines) == 1 else {}
        got = (r.get("status"), r.get("invariant_value"), r.get("invariant_exact"))
        expect(got == ("inconclusive", 1, False),
               f"check-swt C5 reflection K5 printed {lines}")
        return 0
    return cli_op(["check-swt", "C5", "reflection", "K5", "--method", "component"], 0, check)


# The four groups of operations, name -> (set-up, operations, CLI command).
PARTS = {
    "spheres": (setup_spheres, ops_spheres, cli_spheres),
    "paper-T": (setup_paper_t, ops_paper_t, cli_paper_t),
    "sweep": (setup_sweep, ops_sweep, cli_sweep),
    "component-route": (setup_component_route, ops_component_route, cli_component_route),
}


def combine(*parts):
    """One workload made of several groups, run one after the other."""
    def setup(H) -> list:
        return [PARTS[p][0](H) for p in parts]

    def ops(H, inputs) -> list:
        return [op for p, inp in zip(parts, inputs) for op in PARTS[p][1](H, inp)]

    def cli() -> list:
        return [PARTS[p][2]() for p in parts]
    return setup, ops, cli


# On a shared 2-core machine the CPU speed drifts over seconds, so a steady
# figure needs tens of seconds of work, and the time allowed for all runs
# does not give four workloads that long.  The groups are paired so that
# each workload's slowest operation is long or repeated: K2 -> K6 in
# exact-heights, bound_suite for C5 in bound-sweeps, whose short rounds run
# more than once.  In each pair the group with the smaller peak RSS goes
# first, so that its rise of the peak shows in the trace.
WORKLOADS = {
    "exact-heights": combine("paper-T", "spheres"),
    "bound-sweeps": combine("sweep", "component-route"),
}
