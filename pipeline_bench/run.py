"""Layered benchmark for homlab's exact-height pipeline.

    python3 pipeline_bench/run.py --workload exact-heights --seed 1 --seconds 25 --trace 0
    python3 pipeline_bench/run.py            # every workload, one after another

Run from the root of a source checkout; homlab is imported from ./src.  A run
sets up its workload, then repeats whole rounds of its operations until
they have taken ``--seconds`` (at least one round), checking every answer.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json (the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``).  Inputs are fixed
graph families, so ``--seed`` changes nothing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import Tracer, peak_rss_mb

# Single-threaded numpy, in this process and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SIDE_SAMPLES = 5  # set-up probes, and runs of the CLI commands

# A fresh interpreter imports homlab and builds one workload's inputs.
PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
         "import homlab, workloads; workloads.WORKLOADS[sys.argv[3]][0](homlab); "
         "print(time.perf_counter() - t0)")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_names() -> list:
    return [w["name"] for w in load_spec()["workloads"]]


def import_homlab():
    if not (SRC / "homlab" / "__init__.py").is_file():
        sys.exit(f"error: no homlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import homlab
    return homlab


def run_round(homlab, ops, after_op=lambda i: None) -> dict:
    """One pass over the operations, checking every answer."""
    out = {"op_s": [], "failed": [], "wrong": [], "exact": 0, "attempted": len(ops)}
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = op.run()
        except homlab.HomlabError as exc:
            result = exc
        out["op_s"].append((op.name, time.perf_counter() - t0))
        if isinstance(result, homlab.HomlabError):
            out["failed"].append(f"{op.name}: {type(result).__name__}: {result}")
        else:
            try:
                out["exact"] += op.check(result)
            except checks.CheckFailed as exc:
                out["wrong"].append(f"{op.name}: {exc}")
        after_op(i)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def run_rounds(homlab, make_ops, inputs, seconds: float, after_op=lambda i: None) -> list:
    """Whole rounds until the operations have taken ``seconds``, at least one."""
    rounds = []
    while not rounds or sum(round_wall(r) for r in rounds) < seconds:
        rounds.append(run_round(homlab, make_ops(homlab, inputs), after_op))
    return rounds


def round_wall(r: dict) -> float:
    return sum(t for _, t in r["op_s"])


class SideRuns:
    """Set-up probes and CLI runs, spread over the gaps between the first
    round's operations.

    CPU speed on a shared machine drifts over seconds, so samples spread
    across the run give steadier medians than samples taken back to back.
    The CLI runs are not operations of the round and leave its counts
    alone."""

    def __init__(self, homlab, name: str, cli_ops: list, n_ops: int):
        self.setup_s, self.cli_s, self.wrong = [], [], []
        probe = [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR), name]

        def setup_probe():
            proc = subprocess.run(probe, capture_output=True, text=True, timeout=120,
                                  check=True)
            self.setup_s.append(float(proc.stdout))

        def cli_run():
            r = run_round(homlab, cli_ops)
            self.cli_s.append(round_wall(r))
            self.wrong += r["wrong"]

        self.jobs = [setup_probe, cli_run] * SIDE_SAMPLES
        self.per_op = len(self.jobs) / n_ops
        self.done = 0

    def after_op(self, i: int) -> None:
        """Catch up to the share of the jobs due after operation ``i``."""
        while self.done < min(len(self.jobs), math.ceil((i + 1) * self.per_op)):
            self.jobs[self.done]()
            self.done += 1


def end_to_end(rounds: list, side: SideRuns) -> dict:
    return {
        "setup_s": statistics.median(side.setup_s),
        "wall_s": statistics.median(round_wall(r) for r in rounds),
        "slowest_op_s": statistics.median(max(t for _, t in r["op_s"]) for r in rounds),
        # Later rounds reuse a fragmented heap; the peak is that of one pass.
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
        "exact_answers": min(r["exact"] for r in rounds),
    }


def report(name: str, rounds: list, side: SideRuns, wrong: list, metrics: dict,
           units: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"# {name}: {len(rounds)} round(s), operations attempted "
          f"{sum(r['attempted'] for r in rounds)}, failed "
          f"{sum(len(r['failed']) for r in rounds)}")
    for op_name, dt in rounds[0]["op_s"]:
        print(f"#   {dt:10.4f} s  {op_name}")
    print(f"#   {statistics.median(side.cli_s):10.4f} s  CLI commands, median of "
          f"{len(side.cli_s)} runs")
    for line in rounds[0]["failed"]:
        print(f"#   failed: {line}")
    for line in wrong:
        print(f"#   WRONG ANSWER: {line}")
    for key, unit in units.items():
        print(f"#   {key} = {metrics[key]:.6g} {unit}")


def run_workload(name: str, seconds: int, traced: bool) -> int:
    spec = load_spec()
    homlab = import_homlab()
    import workloads
    setup, make_ops, cli_ops = workloads.WORKLOADS[name]
    inputs = setup(homlab)
    side = SideRuns(homlab, name, cli_ops(), len(make_ops(homlab, inputs)))
    if traced:
        # The traced round comes first, in a fresh process, so that each
        # span's rise of the peak RSS shows; untraced rounds follow as the
        # reference for the overhead.
        tracer = Tracer(homlab)
        try:
            first = run_round(homlab, make_ops(homlab, inputs), side.after_op)
        finally:
            tracer.uninstall()
        tracer.dump(sys.stderr)
        rounds = [first] + run_rounds(homlab, make_ops, inputs, seconds)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (
            round_wall(first) - statistics.median(round_wall(r) for r in rounds[1:]))
        metrics["cli.commands_s"] = statistics.median(side.cli_s)
        declared = spec["per_layer"]
    else:
        rounds = run_rounds(homlab, make_ops, inputs, seconds, side.after_op)
        metrics = end_to_end(rounds, side)
        declared = spec["end_to_end"]
    wrong = sorted({w for r in rounds for w in r["wrong"]} | set(side.wrong))
    units = {m["name"]: m["unit"] for m in declared}
    report(name, rounds, side, wrong, metrics, units)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if wrong else 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    results = {}
    for name in workload_names():
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workload_names():
        p.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
