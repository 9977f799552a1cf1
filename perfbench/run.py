"""graphcrew benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload truth_gen --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, seed 7
    python3 perfbench/run.py --check-only         # correctness on held-out seed 8

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory, no install needed.  Each run sets the workload up
five times in fresh processes (interpreter start, imports and input
preparation); the third of those processes also runs the workload's
command sequence closed-loop for ``--seconds`` and checks its outputs,
so the set-ups are spread over the run.  With ``--trace 1`` that process
runs the workload untraced and then traced for ``--seconds`` each, and
the per-layer metrics come from the traced half.

Both timings report the run's slowest sample: ``setup_s`` is the slowest
of the five set-ups and ``instances_per_s`` the rate of the slowest pass
through the command sequence (instances in one pass / its wall time).
The shared 2-core host this was tuned on changes speed by up to 1.5x in
phases lasting seconds to minutes, and CPU time moves with it, so how
much of a run fell in fast phases decided mean and median figures: over
ten seeds, mean and median pass rates spread 18-27% (IQR/median) on the
CPU-bound workloads and the median set-up of truth_gen moved 43% between
three sets of ten runs.  The slowest samples, taken in the host's
busiest phase, spread 4-12% and moved 10-13%.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer ones when traced).
The lines before it name the machine, the source, the sample counts and
every figure by name and unit.  Exit status is 1 when a correctness check
fails and 2 when the checkout has no graphcrew sources.  Run records and
span files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("truth_gen", "stub_pipeline", "live_sim")
DEFAULT_SEED = 7  # the CLI's own default
CHECK_SEED = 8  # held out: confirm a claim on data not used while making it
SETUPS = 5
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "instances/s"),
    ("peak_rss_mb", "MB"),
    ("truth_exact_ratio", "ratio"),
)

# Every per-layer metric printed by a traced run.  Each one is measured on
# every workload; times that only some workloads produce are printed in the
# run's layer report and run record instead.
PER_LAYER = (
    *((f"{layer}.self_ms_per_instance", "ms")
      for layer in ("cli", "dataset", "solvers", "knowledge", "formats", "graph")),
    ("dataset.ground_truth.solver_calls_per_instance", "calls"),
    *((f"solvers.{aid}.calls_per_instance", "calls")
      for aid in ("held_karp", "nearest_neighbor_2opt", "exact_coloring", "dsatur",
                  "bnb_cover", "dijkstra")),
    ("solvers.exact_coloring.p50_ms", "ms"),
    ("solvers.dsatur.p50_ms", "ms"),
    ("solvers.verify_solution.calls_per_instance", "calls"),
    ("knowledge.select_algorithm.calls_per_instance", "calls"),
    ("knowledge.select_algorithm.p50_ms", "ms"),
    ("formats.parse_graph.calls_per_instance", "calls"),
    ("formats.read_edge_list_loose.calls_per_instance", "calls"),
    ("formats.serialize_graph.calls_per_instance", "calls"),
    ("formats.serialize_graph.p50_ms", "ms"),
    ("graph.build_graph.calls_per_instance", "calls"),
    ("graph.build_graph.p50_ms", "ms"),
    ("graph.graph_stats.calls_per_instance", "calls"),
    ("graph.graph_stats.p50_ms", "ms"),
    *((f"agents.stage.{stage}.{what}", unit)
      for stage in ("narrative", "classify", "extract_graph", "normalize", "select", "audit",
                    "direct")
      for what, unit in (("calls_per_instance", "calls"), ("tokens_per_instance", "tokens"))),
    ("agents.calls_per_instance", "calls"),
    ("agents.tokens_per_instance", "tokens"),
    ("agents.backend.errors", "count"),
    ("trace.overhead_instances_per_s", "instances/s"),
)


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform()}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, mode: str, workdir: Path, deadline: float):
    """Start the worker; return (process, set-up seconds, watchdog)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", str(workdir), "--trace-dir", str(OUT / "traces")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not line or not json.loads(line).get("ready"):
        finish(proc, watchdog)
        raise WorkerFailed(f"{args.workload} set-up failed (exit {proc.returncode})")
    return proc, setup_s, watchdog


def finish(proc, watchdog) -> dict | None:
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for line in reversed(out.splitlines()):
        if line.startswith('{"result"'):
            return json.loads(line)["result"]
    return None


def run_workload(args) -> dict:
    """Set up SETUPS times, measure in the middle process; returns its result."""
    deadline = time.monotonic() + DEADLINE_S
    setups, result = [], None
    count = 1 if args.check_only else SETUPS
    for i in range(count):
        workdir = OUT / "work" / f"{args.workload}-{os.getpid()}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        measured = i == count // 2
        try:
            proc, setup_s, watchdog = start_worker(args, "run" if measured else "setup",
                                                   workdir, deadline)
            setups.append(setup_s)
            outcome = finish(proc, watchdog)
            if outcome is None or proc.returncode:
                raise WorkerFailed(f"{args.workload} worker exited {proc.returncode}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if measured:
            result = outcome
    result["setups"] = setups
    return result


def report(args, result: dict) -> tuple[dict, dict]:
    """Print the run's figures; return the final JSON object and the run record."""
    rates = result["rates"]
    figures = result["figures"]
    values = {
        "setup_s": max(result["setups"]),
        "instances_per_s": result["instances_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "truth_exact_ratio": figures["truth_exact_ratio"],
    }
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "source": source_identity(),
        "samples": {"setups": len(result["setups"]), "repetitions": len(rates),
                    "instances": attempted},
        "setup_s_samples": result["setups"], "rates": rates,
        "end_to_end": values,
        "figures": {**figures, "failed_ratio": failed / attempted},
        "problems": result["problems"],
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print("source: " + " ".join(f"{k}={v}" for k, v in record["source"].items()))
    print("samples: " + " ".join(f"{k}={v}" for k, v in record["samples"].items())
          + f" (set-ups: median {statistics.median(result['setups']):.4g} s;"
          f" pass rates: median {statistics.median(rates):.4g}, slowest {min(rates):.4g})")
    units = dict(END_TO_END)
    units.update(acc_all="ratio", tokens_per_instance="tokens", calls_per_instance="calls",
                 failed_ratio="ratio")
    for name, value in {**values, **record["figures"]}.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        layers = result["layers"]
        traced = result["traced_rates"]
        record.update(layers=layers, spans=result["spans"], spans_file=result["spans_file"],
                      traced_rates=traced)
        record["samples"]["traced_repetitions"] = len(traced)
        record["samples"]["traced_instances"] = result["traced_attempted"]
        print(f"trace: untraced {values['instances_per_s']:.4g} instances/s, traced "
              f"{result['traced_instances_per_s']:.4g} instances/s over {len(traced)} repetitions; "
              f"spans in {result['spans_file']}")
        for name, value in sorted(layers.items()):
            print(f"  {name:<52} {value:>12.6g}")
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
        attempted += result["traced_attempted"]
        failed += result["traced_failed"]
    final = {"correct": not result["problems"], "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return final, record


def main() -> int:
    parser = argparse.ArgumentParser(description="graphcrew benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"workload seed; default {DEFAULT_SEED}, or {CHECK_SEED} with "
                             "--check-only")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long each measured phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true",
                        help="run each workload briefly and check its outputs, no metrics")
    args = parser.parse_args()
    if not (ROOT / "src" / "graphcrew" / "__init__.py").is_file():
        print(f"no graphcrew sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = CHECK_SEED if args.check_only else DEFAULT_SEED
    if args.check_only:
        args.seconds, args.trace = 0.0, 0
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        try:
            result = run_workload(args)
        except WorkerFailed as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        final, record = report(args, result)
        runs = OUT / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (runs / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        ok = ok and final["correct"]
        if args.check_only:
            print(f"{workload} seed={args.seed}: "
                  f"{'correct' if final['correct'] else 'INCORRECT'}")
        else:
            print(json.dumps(final), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
