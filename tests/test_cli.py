import json
import time
from pathlib import Path

import numpy as np
import pytest

from homlab import (FreenessError, InputError, InvariantError, bounds, complete,
                    complete_flip, complexes, cycle, cycle_reflection, hom,
                    paper_T, paper_gamma1, paper_gamma2)
from homlab.cli import main
from homlab.serialize import (bundled_fig3_certificate, certificate_from_json,
                              certificate_to_json, dumps, graph_from_json,
                              graph_signature, graph_to_json, load_certificate,
                              load_graph, load_graph_map, load_involution)

from conftest import generic_quotient


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialize:
    def test_graph_round_trip(self, T):
        assert graph_from_json(graph_to_json(T)) == T

    def test_dumps_deterministic(self, T):
        a = dumps(graph_to_json(T))
        b = dumps(graph_to_json(paper_T()))
        assert a == b and a.endswith("\n")
        assert json.loads(a)["vertices"][0] == "a"

    def test_certificate_round_trip(self):
        cert = bundled_fig3_certificate()
        again = certificate_from_json(certificate_to_json(cert))
        assert again.colorings == cert.colorings

    def test_load_graph_builtin_and_file(self, tmp_path, K3):
        assert load_graph("K3") == K3
        p = tmp_path / "g.json"
        p.write_text(dumps(graph_to_json(K3)))
        assert load_graph(str(p)) == K3

    def test_load_graph_bad_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            load_graph(str(p))

    def test_load_involution_relative_names(self, K3, C5):
        z = load_involution("swap", K3)
        assert z.graph == K3 and z.involution(1) == 2
        z = load_involution("reflection", C5)
        assert z.involution(1) == 1 and z.involution(2) == 5

    @pytest.mark.parametrize("graph", [complete(1), cycle(4)])
    def test_swap_needs_an_exchangeable_pair(self, graph):
        # K1 has no second vertex; on C4 exchanging 1 and 2 breaks edge 2-3
        with pytest.raises(InputError):
            load_involution("swap", graph)

    def test_load_involution_mismatch(self, K3):
        with pytest.raises(InputError):
            load_involution("gamma1", K3)

    def test_string_keys_coerced_to_int_vertices(self, K3):
        z = load_involution({"graph": "K3", "map": {"1": "2", "2": "1", "3": "3"}})
        assert z.involution(1) == 2

    def test_data_samples_load_from_any_directory(self, tmp_path, monkeypatch):
        """A path inside a file is read from that file's directory, so the
        samples in ``data/`` load from any working directory."""
        data = Path(__file__).resolve().parents[1] / "data"
        monkeypatch.chdir(tmp_path)
        assert load_graph(str(data / "K3.json")) == complete(3)
        assert load_graph(str(data / "paper_T.json")) == paper_T()
        assert load_involution(str(data / "gamma1.json")) == paper_gamma1()
        assert load_involution(str(data / "gamma2.json")) == paper_gamma2()

    def test_map_and_certificate_paths_are_file_relative(self, tmp_path, monkeypatch, K2):
        (tmp_path / "k2.json").write_text(dumps(graph_to_json(K2)))
        m, c = tmp_path / "m.json", tmp_path / "c.json"
        m.write_text(dumps({"source": "k2.json", "target": "K3",
                            "assignment": {"1": 1, "2": 2}}))
        c.write_text(dumps({"source": "k2.json", "target": "K3",
                            "colorings": [{"1": 1, "2": 2}]}))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert load_graph_map(str(m)).source == K2
        assert load_certificate(str(c)).source == K2

    def test_load_graph_map_inline(self, K2, K3):
        phi = load_graph_map({"source": "K2", "target": "K3",
                              "assignment": {"1": 2, "2": 3}})
        assert phi.assignment == (2, 3)

    def test_graph_signature_stable(self, K3):
        sig = graph_signature(K3)
        assert sig.startswith("g3e3-") and sig == graph_signature(complete(3))
        # the signature ignores declaration order of the same labeling
        from homlab import Graph
        reordered = Graph.build((3, 1, 2), [(1, 2), (2, 3), (3, 1)])
        assert graph_signature(reordered) == sig


class TestCliBasics:
    def test_chrom(self, capsys):
        code, out, _ = run(capsys, "chrom", "paper_T")
        assert code == 0 and out.strip() == "3"

    def test_chrom_json(self, capsys):
        code, out, _ = run(capsys, "--json", "chrom", "K4")
        assert code == 0 and json.loads(out) == {"chromatic_number": 4}

    def test_json_flag_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "chrom", "K4", "--json")
        assert code == 0 and json.loads(out) == {"chromatic_number": 4}

    def test_maps_count(self, capsys):
        code, out, _ = run(capsys, "maps", "K2", "K3", "--count")
        assert code == 0 and out.strip() == "6"

    def test_maps_none_exit_one(self, capsys):
        code, out, _ = run(capsys, "maps", "K3", "K2", "--count")
        assert code == 1 and out.strip() == "0"

    def test_hom_builds_no_tuples(self, capsys, monkeypatch):
        """Without --components or --export, ``hom`` counts elements and
        atoms on the mask array and never builds the element tuples."""
        made = []
        enumerate_hom = hom.enumerate_hom

        def recorded(*args, **kwargs):
            made.append(enumerate_hom(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(hom, "enumerate_hom", recorded)
        code, out, _ = run(capsys, "hom", "K2", "K5", "--json")
        assert code == 0 and json.loads(out) == {"size": 180, "atoms": 20}
        assert len(made) == 1
        assert "elements" not in vars(made[0]._rows)

    @pytest.mark.parametrize("argv", [
        ("betti", "K2", "K5"),
        ("check-ht", "K2", "K4"),
        ("height", "C5", "reflection", "K4"),
        ("hom", "K2", "K5", "--export", "{out}"),
        ("height", "K2", "swap", "K5", "--export", "{out}"),
    ])
    def test_cell_routes_build_no_tuples(self, capsys, monkeypatch, tmp_path, argv):
        """The Hom complex, its quotient and the full height run on the
        mask array: no poset on these routes builds its element tuples."""
        made, init = [], hom._Rows.__init__

        def recorded(self, *args):
            init(self, *args)
            made.append(self)
        monkeypatch.setattr(hom._Rows, "__init__", recorded)
        out = tmp_path / "cells.json"
        code, _, _ = run(capsys, *(a.format(out=out) for a in argv))
        assert code == 0 and made
        assert not any("elements" in vars(rows) for rows in made)

    @pytest.mark.parametrize("argv", [
        ("height", "C5", "reflection", "K4"),
        ("height", "K2", "swap", "K5", "--export", "{out}"),
    ], ids=["sw_height", "export"])
    def test_cell_routes_keep_index_arrays(self, capsys, monkeypatch, tmp_path, argv):
        """On the full height and ``height --export``, the involution, the
        atoms, the component labels and every level of the quotient are
        numpy arrays."""
        made = {"poset": [], "complex": []}

        def recorded(kind, fn):
            def wrapper(*args, **kwargs):
                made[kind].append(fn(*args, **kwargs))
                return made[kind][-1]
            return wrapper
        monkeypatch.setattr(hom, "induced_involution",
                            recorded("poset", hom.induced_involution))
        monkeypatch.setattr(complexes, "quotient_with_w1",
                            recorded("complex", complexes.quotient_with_w1))
        code, _, _ = run(capsys, *(a.format(out=tmp_path / "q.json") for a in argv))
        assert code == 0 and made["poset"] and made["complex"]
        for poset in made["poset"]:
            for view in (poset.involution, poset.atoms, poset.component_labels):
                assert isinstance(view, np.ndarray)
        for x, _ in made["complex"]:
            assert x.cells and all(isinstance(level, np.ndarray) for level in x.cells)

    def test_hom_components(self, capsys):
        code, out, _ = run(capsys, "--json", "hom", "paper_T", "K3",
                           "--components")
        data = json.loads(out)
        assert code == 0
        assert data["size"] == 2160 and data["atoms"] == 600
        assert len(data["components"]) == 4

    def test_hom_export(self, capsys, tmp_path):
        out_path = tmp_path / "hom.json"
        code, _, _ = run(capsys, "hom", "K2", "K3", "--export", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        # Hom(K2, K3) is a hexagon: its 6 atoms and the 6 elements with one
        # set of two colors, named by their canonical indices.  Edge 1 =
        # ({1}, {2, 3}) has the atoms 2 = ({1}, {3}) and 0 = ({1}, {2}) as
        # faces, positions 1 and 0 in cells[0].
        assert data["cells"] == [[0, 2, 5, 7, 9, 11], [1, 3, 4, 6, 8, 10]]
        assert data["faces"] == [[[1, 0], [3, 1], [5, 0], [3, 2], [4, 2], [5, 4]]]

    def test_betti(self, capsys):
        code, out, _ = run(capsys, "--json", "betti", "K2", "K4")
        assert code == 0 and json.loads(out)["betti"] == [1, 0, 1]

    def test_height_full(self, capsys):
        code, out, _ = run(capsys, "--json", "height", "K2", "swap", "K4")
        data = json.loads(out)
        assert code == 0 and data["height"] == 2 and data["exact"] is True

    def test_height_component(self, capsys):
        code, out, _ = run(capsys, "--json", "height", "paper_T", "gamma2",
                           "K3", "--method", "component")
        data = json.loads(out)
        assert code == 0 and data["height"] == 1 and data["exact"] is False

    def test_height_export(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, _, _ = run(capsys, "height", "K2", "swap", "K3",
                         "--export", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        # Hom(K2, K3) is a hexagon: 6 atoms and 6 edges, halved to a
        # triangle whose cells are named by their lifts, the lower element
        # of each orbit.  Only edge 4 = ({0, 2}, {1}) joins a lift (atom 0)
        # to a non-lift (atom 11 = ({2}, {1})), so w1 is 1 there alone.
        assert data["quotient"]["cells"] == [[0, 2, 7], [1, 3, 4]]
        assert data["quotient"]["faces"] == [[[0, 1], [1, 2], [0, 2]]]
        assert data["w1"] == {"degree": 1, "support": [2]}

    def test_height_export_needs_full_method(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, out, err = run(capsys, "height", "K2", "swap", "K3", "--method",
                             "component", "--export", str(out_path))
        assert code == 2 and out == "" and "--export" in err
        assert not out_path.exists()

    def test_height_export_builds_complex_once(self, capsys, tmp_path,
                                               monkeypatch):
        _, plain, _ = run(capsys, "--json", "height", "K2", "swap", "K4")
        calls = []
        original = complexes.quotient_with_w1

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(complexes, "quotient_with_w1", counted)
        code, out, _ = run(capsys, "--json", "height", "K2", "swap", "K4",
                           "--export", str(tmp_path / "q.json"))
        assert code == 0 and len(calls) == 1 and out == plain

    @pytest.mark.parametrize("argv, z, m", [
        (("K2", "swap", "K5"), complete_flip(2), 5),
        (("C5", "reflection", "K4"), cycle_reflection(5), 4),
    ], ids=["K2-K5", "C5-K4"])
    def test_height_export_matches_generic_quotient(self, capsys, tmp_path, argv, z, m):
        """``height --export`` writes, byte for byte, the generic quotient of
        the whole Hom complex."""
        out_path = tmp_path / "q.json"
        code, _, _ = run(capsys, "height", *argv, "--export", str(out_path))
        poset = hom.induced_involution(z, hom.enumerate_hom(z.graph, complete(m)))
        q, w1 = generic_quotient(complexes.hom_complex(poset), poset.involution)
        expected = {"quotient": {"cells": [level.tolist() for level in q.cells],
                                 "faces": [table.rows() for table in q.faces[1:]]},
                    "w1": w1.export()}
        assert code == 0 and out_path.read_text() == dumps(expected)

    def test_eqmap(self, capsys):
        code, out, _ = run(capsys, "--json", "eqmap", "C5", "c5_reflection",
                           "paper_T", "gamma1")
        data = json.loads(out)
        assert code == 0 and data["found"] is True
        assert data["map"]["1"] == "a"

    def test_eqmap_loop_needs_a_looped_image(self, capsys, tmp_path):
        loop = tmp_path / "loop.json"
        loop.write_text(dumps({"vertices": ["v"], "edges": [["v", "v"]]}))
        loop_id = tmp_path / "loop_id.json"
        loop_id.write_text(dumps({"map": {"v": "v"}}))
        pair = tmp_path / "pair.json"
        pair.write_text(dumps({"vertices": [1, 2], "edges": [[2, 2]]}))
        pair_id = tmp_path / "pair_id.json"
        pair_id.write_text(dumps({"map": {"1": 1, "2": 2}}))
        code, out, _ = run(capsys, "--json", "eqmap", str(loop), str(loop_id),
                           str(pair), str(pair_id))
        assert code == 0 and json.loads(out) == {"found": True, "map": {"v": 2}}

    def test_eqmap_none(self, capsys):
        code, out, _ = run(capsys, "eqmap", "C5", "c5_reflection",
                           "K2", "k2_swap")
        assert code == 1


class TestCliCertificates:
    def test_verify_bundled(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dumps(certificate_to_json(bundled_fig3_certificate())))
        code, out, _ = run(capsys, "--json", "verify-cert", str(cert_path))
        data = json.loads(out)
        assert code == 0 and data["valid"] is True and data["moves"] == 15

    def test_verify_invalid_exit_one(self, capsys, tmp_path):
        obj = certificate_to_json(bundled_fig3_certificate())
        del obj["colorings"][5]
        cert_path = tmp_path / "bad.json"
        cert_path.write_text(dumps(obj))
        code, out, _ = run(capsys, "--json", "verify-cert", str(cert_path))
        data = json.loads(out)
        assert code == 1 and data["valid"] is False

    def test_find_path(self, capsys, tmp_path):
        start = {"source": "K2", "target": "K3", "assignment": {"1": 1, "2": 2}}
        end = {"source": "K2", "target": "K3", "assignment": {"1": 3, "2": 2}}
        sp, ep = tmp_path / "s.json", tmp_path / "e.json"
        sp.write_text(dumps(start))
        ep.write_text(dumps(end))
        code, out, _ = run(capsys, "--json", "find-path", "K2", "K3",
                           str(sp), str(ep))
        data = json.loads(out)
        assert code == 0 and data["found"] is True
        cert = certificate_from_json(data["certificate"])
        from homlab import verify_certificate
        assert verify_certificate(cert).ok

    def test_find_path_none(self, capsys, tmp_path):
        start = {"source": "K3", "target": "K3",
                 "assignment": {"1": 1, "2": 2, "3": 3}}
        end = {"source": "K3", "target": "K3",
               "assignment": {"1": 2, "2": 1, "3": 3}}
        sp, ep = tmp_path / "s.json", tmp_path / "e.json"
        sp.write_text(dumps(start))
        ep.write_text(dumps(end))
        code, _, _ = run(capsys, "find-path", "K3", "K3", str(sp), str(ep))
        assert code == 1


class TestCliBounds:
    def test_check_swt_holds(self, capsys):
        code, out, _ = run(capsys, "--json", "check-swt", "K2", "swap", "K3")
        data = json.loads(out)
        assert code == 0 and data["status"] == "holds"

    def test_check_swt_violated_exit_one(self, capsys):
        code, out, _ = run(capsys, "--json", "check-swt", "paper_T", "gamma2",
                           "K3", "--method", "component")
        data = json.loads(out)
        assert code == 1 and data["status"] == "violated"

    def test_check_ht(self, capsys):
        code, out, _ = run(capsys, "--json", "check-ht", "K2", "K3")
        data = json.loads(out)
        assert code == 0 and data["status"] == "holds"

    def test_sweep(self, capsys):
        code, out, err = run(capsys, "sweep", "K2", "swap", "--max-n", "3",
                             "--summary")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 4  # 1 + 1 + 2 connected graphs
        assert all(r["status"] != "violated" for r in lines)
        assert "0 violations" in err

    def test_sweep_six_vertices(self, capsys):
        # 1 + 1 + 2 + 6 + 21 + 112 connected graphs, folded to 18 cores
        code, out, _ = run(capsys, "sweep", "K2", "swap", "--max-n", "6", "--json")
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(lines) == 143
        assert all(r["status"] == "holds" for r in lines)

    def test_paper_theorem2(self, capsys):
        code, out, _ = run(capsys, "paper", "theorem2")
        assert code == 0
        assert out.count("[PASS]") == 5 and "theorem2: PASS" in out

    def test_paper_theorem2_json(self, capsys):
        code, out, _ = run(capsys, "--json", "paper", "theorem2")
        data = json.loads(out)
        assert code == 0 and data["passed"] is True

    def test_paper_theorem1(self, capsys):
        code, out, _ = run(capsys, "paper", "theorem1", "C4")
        assert code == 0 and "theorem1: PASS" in out


class TestCliExitCodes:
    def test_unknown_builtin_exit_two(self, capsys):
        code, _, err = run(capsys, "chrom", "nonesuch")
        assert code == 2 and "error" in err

    def test_usage_error_exit_two(self, capsys):
        code, _, _ = run(capsys, "chrom")
        assert code == 2

    def test_unknown_subcommand_exit_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_heuristic_flag_gone(self, capsys):
        code, out, _ = run(capsys, "check-ht", "K2", "K4", "--heuristic")
        assert code == 2 and out == ""

    def test_resource_cap_exit_three(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "5")
        code, _, err = run(capsys, "hom", "K2", "K3")
        assert code == 3 and "resource limit" in err

    def test_sweep_past_the_cap_exit_three(self, capsys):
        # connected_graphs(8) would walk 2^28 edge masks; it is refused
        # before any smaller size is built
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", "K2", "swap", "--max-n", "8")
        assert code == 3 and out == "" and "resource limit" in err
        assert time.perf_counter() - start < 1

    def test_map_listing_cap_exit_three(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMLAB_MAX_ELEMENTS", "10")
        code, out, err = run(capsys, "maps", "C5", "K3", "--count")  # 30 maps
        assert code == 3 and out == "" and "resource limit" in err
        code, out, _ = run(capsys, "maps", "K2", "K3")
        assert code == 0 and len(out.splitlines()) == 6

    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_map_listing_streams(self, form):
        """``maps paper_T K4`` writes 43,200 maps (3.7 MB as text) while
        holding under 1 MB: the listing keeps no map it has written."""
        import contextlib
        import tracemalloc

        class Sink:
            def __init__(self):
                self.lines, self.head, self.tail = 0, "", ""

            def write(self, text):
                self.lines += text.count("\n")
                self.head = self.head or text
                self.tail = (self.tail + text)[-4:]
        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["maps", "paper_T", "K4", *form])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1_000_000
        if form:
            assert sink.lines == 1 and sink.head == '{"maps":['
            assert sink.tail == "}]}\n"
        else:
            assert sink.lines == 43_200

    def test_memory_error_exit_three(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(hom, "enumerate_hom", exhausted)
        code, out, err = run(capsys, "--json", "betti", "K2", "K3")
        assert code == 3 and out == "" and "out of memory" in err

    @pytest.mark.parametrize("error", [InvariantError, FreenessError])
    def test_internal_error_exit_four(self, capsys, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("simulated")
        monkeypatch.setattr(complexes, "sw_height", broken)
        code, out, err = run(capsys, "--json", "height", "K2", "swap", "K3")
        assert code == 4 and out == "" and "internal error" in err

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_sweep_needs_one_vertex(self, capsys, max_n):
        code, out, err = run(capsys, "sweep", "K2", "swap", f"--max-n={max_n}")
        assert code == 2 and out == "" and "--max-n" in err

    def test_sweep_internal_error_exit_four(self, capsys, monkeypatch):
        # a failed invariant inside one sweep item is a bug, not an item error
        def broken(*args, **kwargs):
            raise InvariantError("planted")
        monkeypatch.setattr(bounds, "sw_height", broken)
        code, out, err = run(capsys, "sweep", "K2", "swap", "--max-n", "2")
        assert code == 4 and out == "" and "InvariantError: planted" in err

    @pytest.mark.parametrize("argv, bad", [
        (("chrom", "{file}"), {"vertices": [1, 2, 3], "edges": [[1, 2, 3]]}),
        (("height", "K2", "{file}", "K3"), {"graph": "K2"}),
        (("height", "K2", "{file}", "K3"), {"map": [1, 2]}),
        (("find-path", "K2", "K3", "{file}", "{file}"),
         {"source": "K2", "assignment": {"1": 1, "2": 2}}),
        (("verify-cert", "{file}"),
         {"target": "K3", "colorings": [{"1": 1, "2": 2}]}),
    ], ids=["graph-edge-triple", "involution-no-map", "involution-map-list",
            "map-no-target", "certificate-no-source"])
    def test_malformed_file_exit_two(self, capsys, tmp_path, argv, bad):
        path = tmp_path / "bad.json"
        path.write_text(dumps(bad))
        code, out, err = run(capsys, *(a.format(file=path) for a in argv))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_theorem1_bad_input_exit_two(self, capsys):
        code, _, _ = run(capsys, "paper", "theorem1", "K3")
        assert code == 2

    def test_byte_identical_json(self, capsys):
        _, out1, _ = run(capsys, "--json", "check-swt", "K2", "swap", "K3")
        _, out2, _ = run(capsys, "--json", "check-swt", "K2", "swap", "K3")
        assert out1 == out2
