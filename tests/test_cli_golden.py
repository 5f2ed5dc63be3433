"""Golden replay of the CLI: stdout and exit code of each command in
``golden/cli.json``, run through ``cli.main`` from the ``golden`` directory
(the map files the commands name live there).

A deliberate change of output is recorded again with
``PYTHONPATH=src python tests/test_cli_golden.py``, which rewrites
``golden/cli.json`` from the current code; the diff of that file is then the
change to review.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from homlab.cli import main

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = [
    ["chrom", "paper_T"],
    ["chrom", "K4"],
    ["chrom", "K7"],
    ["maps", "K2", "K3", "--count"],
    ["maps", "C5", "K3", "--count"],
    ["maps", "K3", "K2", "--count"],
    ["maps", "C5", "K3"],
    ["maps", "K2", "K3"],
    ["hom", "paper_T", "K3", "--components"],
    ["hom", "C5", "K4", "--components"],
    ["hom", "K2", "K2", "--components"],
    ["height", "K2", "swap", "K4"],
    ["height", "C5", "reflection", "K4"],
    ["height", "paper_T", "gamma2", "K3", "--method", "component"],
    ["betti", "K2", "K4"],
    ["betti", "C5", "K3"],
    ["betti", "K2", "K1"],
    ["check-swt", "K2", "swap", "K3"],
    ["check-swt", "paper_T", "gamma2", "K3", "--method", "component"],
    ["check-ht", "K2", "K3"],
    ["check-ht", "K3", "K2"],
    ["sweep", "K2", "swap", "--max-n", "4"],
    ["find-path", "paper_T", "K3", "paper_f", "paper_f_gamma2"],
    ["find-path", "K2", "K3", "k2_k3_start.json", "k2_k3_end.json"],
    ["find-path", "K3", "K3", "k3_identity.json", "k3_transposed.json"],
    ["eqmap", "C5", "c5_reflection", "paper_T", "gamma1"],
    ["eqmap", "C5", "c5_reflection", "K2", "k2_swap"],
    ["eqmap", "K2", "k2_swap", "paper_T", "gamma2"],
    ["eqmap", "paper_T", "gamma2", "C5", "c5_reflection"],
    ["eqmap", "paper_T", "gamma1", "K2", "k2_swap"],
    ["paper", "theorem1", "C4"],
    ["paper", "theorem2"],
]


def replay(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--json"])
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def records():
    return {tuple(r["argv"]): r for r in json.loads((GOLDEN / "cli.json").read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_replay_matches_record(argv, records, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert replay(argv) == records[tuple(argv)]


if __name__ == "__main__":
    os.chdir(GOLDEN)
    records = [replay(argv) for argv in COMMANDS]
    (GOLDEN / "cli.json").write_text(json.dumps(records, indent=1) + "\n")
