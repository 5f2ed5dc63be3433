"""Command-line surface.

Exit codes: 0 success/holds/valid, 1 violation/invalid/none-found,
2 usage or input error, 3 resource guard or out of memory, 4 internal error
(a failed invariant or freeness check, which is a bug).  All diagnostics go to
stderr; the data stream (stdout) carries only results, and identical
invocations produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds, complexes, graphs, hom, serialize
from .errors import FreenessError, InputError, InvariantError, ResourceLimitError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(serialize.dumps(payload))
    else:
        print(human)


def _export(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(serialize.dumps(payload))


def _cells(x: complexes.CellComplex) -> dict:
    """The cells of ``x`` per dimension, and per cell of dimension d >= 1 the
    positions in ``cells[d - 1]`` of its mod-2 boundary."""
    return {"cells": [level.tolist() for level in x.cells],
            "faces": [table.rows() for table in x.faces[1:]]}


def _load_pair(g_spec, h_spec):
    return serialize.load_graph(g_spec), serialize.load_graph(h_spec)


def cmd_chrom(args) -> int:
    g = serialize.load_graph(args.graph)
    chi = graphs.chromatic_number(g)
    _emit(args, {"chromatic_number": serialize.json_number(chi)}, str(chi))
    return EXIT_OK


def cmd_maps(args) -> int:
    """Counts the maps first, keeping none, so a listing past the cap exits
    3 with nothing written; the listing then streams from a second walk,
    byte for byte what ``_emit`` would write for the whole list."""
    g, h = _load_pair(args.G, args.H)
    count = sum(1 for _ in hom.iter_graph_maps(g, h))
    if args.count:
        _emit(args, {"count": count}, str(count))
    elif args.json:
        keys = list(map(str, g.vertices))
        sys.stdout.write('{"maps":[')
        for k, row in enumerate(hom.iter_graph_maps(g, h)):
            sys.stdout.write(("," if k else "") + serialize.dumps(dict(zip(keys, row)))[:-1])
        sys.stdout.write("]}\n")
    elif not count:
        print("(none)")
    else:
        for row in hom.iter_graph_maps(g, h):
            print(dict(zip(g.vertices, row)))
    return EXIT_OK if count else EXIT_NEGATIVE


def cmd_hom(args) -> int:
    g, h = _load_pair(args.G, args.H)
    poset = hom.enumerate_hom(g, h)
    if args.export:
        _export(args.export, _cells(complexes.hom_complex(poset)))
    if args.components:
        # component sizes in ascending label, the order of poset.components()
        sizes = np.unique(poset.component_labels, return_counts=True)[1].tolist()
        payload = {"size": len(poset), "atoms": len(poset.atoms), "components": sizes}
        human = (f"{len(poset)} elements, {len(poset.atoms)} atoms, "
                 f"{len(sizes)} components of sizes {sizes}")
    else:
        payload = {"size": len(poset), "atoms": len(poset.atoms)}
        human = f"{len(poset)} elements, {len(poset.atoms)} atoms"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_height(args) -> int:
    t = serialize.load_graph(args.T)
    z = serialize.load_involution(args.inv, t)
    g = serialize.load_graph(args.G)
    if args.export and args.method != "full":
        raise InputError("--export needs --method full")
    poset = hom.induced_involution(z, hom.enumerate_hom(t, g))
    if args.export:
        quotient, w1 = complexes.quotient_with_w1(poset)
        _export(args.export, {"quotient": _cells(quotient), "w1": w1.export()})
        res = complexes.HeightResult(complexes.w1_height(w1), True, "full")
    else:
        res = complexes.sw_height(poset, method=args.method)
    payload = {"height": serialize.json_number(res.value), "exact": res.exact,
               "method": res.method}
    bound = "" if res.exact else " (lower bound)"
    _emit(args, payload, f"{res.value}{bound} [{res.method}]")
    return EXIT_OK


def cmd_betti(args) -> int:
    g, h = _load_pair(args.G, args.H)
    b = complexes.betti_mod2(complexes.hom_complex(hom.enumerate_hom(g, h)))
    _emit(args, {"betti": list(b)}, str(b))
    return EXIT_OK


def cmd_verify_cert(args) -> int:
    cert = serialize.load_certificate(args.cert)
    check = hom.verify_certificate(cert)
    payload = {"valid": check.ok, "index": check.index, "reason": check.reason,
               "colorings": len(cert.colorings), "moves": cert.moves()}
    human = (f"valid: {len(cert.colorings)} colorings, {cert.moves()} moves"
             if check.ok else f"invalid at index {check.index}: {check.reason}")
    _emit(args, payload, human)
    return EXIT_OK if check.ok else EXIT_NEGATIVE


def cmd_find_path(args) -> int:
    g, h = _load_pair(args.G, args.H)
    phi = serialize.load_graph_map(args.start)
    psi = serialize.load_graph_map(args.end)
    cert = hom.find_path(g, h, phi, psi)
    if cert is None:
        _emit(args, {"found": False}, "no single-vertex-move path")
        return EXIT_NEGATIVE
    payload = {"found": True, "certificate": serialize.certificate_to_json(cert)}
    _emit(args, payload, f"path with {cert.moves()} moves")
    return EXIT_OK


def cmd_eqmap(args) -> int:
    t1 = serialize.load_graph(args.T1)
    z1 = serialize.load_involution(args.inv1, t1)
    t2 = serialize.load_graph(args.T2)
    z2 = serialize.load_involution(args.inv2, t2)
    phi = graphs.search_equivariant_map(z1, z2)
    if phi is None:
        _emit(args, {"found": False}, "no equivariant map")
        return EXIT_NEGATIVE
    payload = {"found": True,
               "map": {str(k): v for k, v in phi.as_dict().items()}}
    _emit(args, payload, str(phi.as_dict()))
    return EXIT_OK


def _report_exit(args, report) -> int:
    human = (f"{report.bound_kind}: chi(G)={report.chi_target} vs "
             f"{report.invariant_value} + chi(T)={report.chi_test} -> {report.status}")
    _emit(args, report.to_json(), human)
    return EXIT_NEGATIVE if report.status == "violated" else EXIT_OK


def cmd_check_swt(args) -> int:
    t = serialize.load_graph(args.T)
    z = serialize.load_involution(args.inv, t)
    g = serialize.load_graph(args.G)
    report = bounds.check_swt_bound(
        t=z, g=g, method=args.method,
        names=(str(args.T), str(args.inv), str(args.G)))
    return _report_exit(args, report)


def cmd_check_ht(args) -> int:
    t = serialize.load_graph(args.T)
    g = serialize.load_graph(args.G)
    report = bounds.check_ht_bound(t, g, names=(str(args.T), str(args.G)))
    return _report_exit(args, report)


def cmd_sweep(args) -> int:
    t = serialize.load_graph(args.T)
    z = serialize.load_involution(args.inv, t)
    if args.max_n < 1:
        raise InputError(f"--max-n must be at least 1, got {args.max_n}")
    # largest first: only it can trip the cap, and then before any work
    by_size = [graphs.connected_graphs(n) for n in range(args.max_n, 0, -1)]
    family = [g for same_size in reversed(by_size) for g in same_size]
    reports = bounds.bound_suite(z, family, names=(str(args.T), str(args.inv)))
    violations = [r for r in reports if r.status == "violated"]
    for r in reports:
        sys.stdout.write(serialize.dumps(r.to_json()))
    if args.summary:
        print(f"# {len(reports)} graphs, {len(violations)} violations",
              file=sys.stderr)
    return EXIT_NEGATIVE if violations else EXIT_OK


def cmd_paper(args) -> int:
    if args.which == "theorem2":
        report = bounds.theorem2_pipeline()
    else:
        t = serialize.load_graph(args.graph)
        report = bounds.theorem1_pipeline(t)
    if args.json:
        sys.stdout.write(serialize.dumps(report.to_json()))
    else:
        for s in report.stages:
            print(f"[{'PASS' if s.passed else 'FAIL'}] {s.name}: {s.detail}")
        print(f"{report.pipeline}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homlab",
        description="Hom complexes, mod-2 equivariant topology, and "
                    "chromatic-number test-graph checks",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subparser from clobbering a --json given before it
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("chrom", help="chromatic number of a graph")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_chrom)

    sp = add_parser("maps", help="all graph maps G -> H")
    sp.add_argument("G")
    sp.add_argument("H")
    sp.add_argument("--count", action="store_true")
    sp.set_defaults(fn=cmd_maps)

    sp = add_parser("hom", help="the Hom(G, H) poset")
    sp.add_argument("G")
    sp.add_argument("H")
    sp.add_argument("--components", action="store_true")
    sp.add_argument("--export", metavar="PATH",
                    help="write the cells of the Hom complex, with their face "
                         "lists, as JSON")
    sp.set_defaults(fn=cmd_hom)

    sp = add_parser("height", help="Stiefel-Whitney height of Hom(T, G)")
    sp.add_argument("T")
    sp.add_argument("inv")
    sp.add_argument("G")
    sp.add_argument("--method", choices=["full", "component"], default="full")
    sp.add_argument("--export", metavar="PATH",
                    help="write the quotient cells of the Hom complex, with their "
                         "face lists, and the w1 cocycle as JSON")
    sp.set_defaults(fn=cmd_height)

    sp = add_parser("betti", help="mod-2 Betti numbers of Hom(G, H)")
    sp.add_argument("G")
    sp.add_argument("H")
    sp.set_defaults(fn=cmd_betti)

    sp = add_parser("verify-cert", help="validate a path certificate file")
    sp.add_argument("cert")
    sp.set_defaults(fn=cmd_verify_cert)

    sp = add_parser("find-path", help="shortest recoloring path between colorings")
    sp.add_argument("G")
    sp.add_argument("H")
    sp.add_argument("start")
    sp.add_argument("end")
    sp.set_defaults(fn=cmd_find_path)

    sp = add_parser("eqmap", help="equivariant map search between Z2-graphs")
    sp.add_argument("T1")
    sp.add_argument("inv1")
    sp.add_argument("T2")
    sp.add_argument("inv2")
    sp.set_defaults(fn=cmd_eqmap)

    sp = add_parser("check-swt", help="chi(G) >= height + chi(T) on one instance")
    sp.add_argument("T")
    sp.add_argument("inv")
    sp.add_argument("G")
    sp.add_argument("--method", choices=["full", "component"], default="full")
    sp.set_defaults(fn=cmd_check_swt)

    sp = add_parser("check-ht", help="chi(G) >= conn + chi(T) + 1 on one instance")
    sp.add_argument("T")
    sp.add_argument("G")
    sp.set_defaults(fn=cmd_check_ht)

    sp = add_parser("sweep", help="bound sweep over small connected graphs")
    sp.add_argument("T")
    sp.add_argument("inv")
    sp.add_argument("--max-n", type=int, default=5)
    sp.add_argument("--summary", action="store_true")
    sp.set_defaults(fn=cmd_sweep)

    sp = add_parser("paper", help="bundled reproduction pipelines")
    psub = sp.add_subparsers(dest="which", required=True)
    t1 = psub.add_parser("theorem1", parents=[common])
    t1.add_argument("graph")
    t1.set_defaults(fn=cmd_paper, which="theorem1")
    t2 = psub.add_parser("theorem2", parents=[common])
    t2.set_defaults(fn=cmd_paper, which="theorem2")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (InvariantError, FreenessError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
