"""The measured process: set up one workload, run it closed-loop, check it.

Started by ``run.py``, never by hand.  It prints JSON lines on stdout:
``{"ready": true}`` once set-up is done, then one result object.  The
graphcrew commands run in-process through the click entry point, exactly
as ``graphcrew <command> ...`` would run them, with their own output
sent to /dev/null.

Workloads (why each was chosen is recorded in BENCHMARK.json):

- truth_gen: ``generate`` of tsp and graph_coloring over the 8-25 sweep,
  one instance per size; ground-truth solvers dominate.
- stub_pipeline: ``solve`` with the oracle stub then ``evaluate`` for
  graph_coloring, vertex_cover and shortest_path, 10 instances per size
  over the 8-25 sweep, generated in set-up; CPU-bound offline path.
- live_sim: ``solve --concurrency 2`` then ``solve-direct`` over one
  instance per size of the same families, against the loopback replay
  endpoint; bound by waiting on the model.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import urllib.request
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics, summarize  # noqa: E402

# Fixed per-call delay of the replay endpoint.  A hosted model takes about
# a second per call, so this is ~50x shorter than a live run: the client's
# own overhead looks ~50x larger here than it would against a real model.
HTTP_DELAY_MS = 20.0
LIVE_CONCURRENCY = 2  # client threads; no more than the 2 cores measured on

FAMILIES = ("graph_coloring", "vertex_cover", "shortest_path")
SWEEP = "8-25"


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class Workload:
    """One closed-loop client: ``run_once`` is the timed command sequence."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.problems: list[str] = []
        self.usage = {"tokens": 0, "calls": 0, "instances": 0}

    def cli(self, command: str, *args) -> int:
        from graphcrew.cli import main

        span = (self.tracer.span(f"cli.{command.replace('-', '_')}") if self.tracer
                else contextlib.nullcontext())
        with span:
            try:
                main.main(args=[command, *map(str, args)], prog_name="graphcrew",
                          standalone_mode=False)
            except SystemExit as exc:
                return exc.code or 0
        return 0

    def instance_texts(self) -> dict[str, str]:
        return {}

    def count_usage(self, results: list[dict]) -> None:
        for record in results:
            for row in record.get("usage", ()):
                self.usage["tokens"] += row["input_tokens"] + row["output_tokens"]
                self.usage["calls"] += 1

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass


class TruthGen(Workload):
    per_size = 1

    def setup(self) -> None:
        import graphcrew.cli  # noqa: F401 - imports are part of set-up
        self.digests: list[str] = []

    def run_once(self, k: int) -> None:
        out = self.workdir / f"gen{k}"
        code = self.cli("generate", "--type", "tsp", "--type", "graph_coloring",
                        "--sizes", SWEEP, "--per-size", self.per_size, "--seed", self.seed,
                        "--workers", 1, "--out", out)
        if code:
            self.problems.append(f"generate exited {code}")

    def after(self, k: int) -> tuple[int, int]:
        out = self.workdir / f"gen{k}"
        self.digests.append(digest(sorted(out.iterdir())))
        n = sum(len(read_jsonl(out / f"{f}.jsonl")) for f in ("tsp", "graph_coloring"))
        if k:
            shutil.rmtree(out)
        return n, n if self.problems else 0

    def check(self) -> dict:
        from graphcrew.dataset import read_instances
        from graphcrew.solvers import verify_solution

        if len(set(self.digests)) != 1:
            self.problems.append("generate output differs between repetitions")
        instances = [inst for f in ("tsp", "graph_coloring")
                     for inst in read_instances(self.workdir / "gen0" / f"{f}.jsonl")]
        for inst in instances:
            for slot in ("optimal", "approximate"):
                report = verify_solution(inst.problem_type, inst.graph, getattr(inst.truth, slot),
                                         source=inst.source, target=inst.target)
                if not report.valid:
                    self.problems.append(f"{inst.instance_id}: stored {slot} truth is invalid")
        return {"truth_exact_ratio": exact_ratio(instances)}


def exact_ratio(instances) -> float:
    return sum(1 for inst in instances if inst.truth.optimal.exact) / len(instances)


class StubPipeline(Workload):
    per_size = 10

    def setup(self) -> None:
        self.data = self.workdir / "data"
        code = self.cli("generate", *(a for f in FAMILIES for a in ("--type", f)),
                        "--sizes", SWEEP, "--per-size", self.per_size, "--seed", self.seed,
                        "--out", self.data)
        if code:
            raise RuntimeError(f"set-up generate exited {code}")
        self.config = self.workdir / "stub.yaml"
        self.config.write_text("kind: stub\n")
        self.digests: list[str] = []
        self.scores: list[Fraction] = []

    def instance_texts(self) -> dict[str, str]:
        return {r["text"]: r["id"] for f in FAMILIES for r in read_jsonl(self.data / f"{f}.jsonl")}

    def run_once(self, k: int) -> None:
        for family in FAMILIES:
            dataset, results = self.data / f"{family}.jsonl", self.workdir / f"{family}.out.jsonl"
            code = self.cli("solve", "--dataset", dataset, "--backend-config", self.config,
                            "--concurrency", 1, "--out", results)
            if code:
                self.problems.append(f"solve {family} exited {code}")
            self.cli("evaluate", "--results", results, "--dataset", dataset,
                     "--out", self.workdir / f"{family}.eval")

    def after(self, k: int) -> tuple[int, int]:
        outputs = [self.workdir / f"{f}.out.jsonl" for f in FAMILIES]
        self.digests.append(digest(outputs))
        results = [r for path in outputs for r in read_jsonl(path)]
        self.count_usage(results)
        self.usage["instances"] += len(results)
        self.scores = [Fraction(s["acc_all"]) for f in FAMILIES
                       for s in read_jsonl(self.workdir / f"{f}.eval" / "scores.jsonl")]
        return len(results), sum(1 for r in results if r["status"] != "ok")

    def check(self) -> dict:
        from graphcrew.dataset import read_instances

        if len(set(self.digests)) != 1:
            self.problems.append("solve results differ between repetitions")
        if not self.scores or any(s != 1 for s in self.scores):
            self.problems.append("some stub answers did not score 1")
        instances = [i for f in FAMILIES for i in read_instances(self.data / f"{f}.jsonl")]
        return {"acc_all": float(sum(self.scores) / max(len(self.scores), 1)),
                "truth_exact_ratio": exact_ratio(instances)}


class LiveSim(StubPipeline):
    per_size = 1

    def setup(self) -> None:
        super().setup()
        fixtures = self.workdir / "fixtures.jsonl"
        record = self.workdir / "record.yaml"
        record.write_text(f"kind: record\nfixtures: {fixtures}\ninner:\n  kind: stub\n")
        for family in FAMILIES:
            dataset = self.data / f"{family}.jsonl"
            for command, out in (("solve", f"{family}.rec.jsonl"),
                                 ("solve-direct", f"{family}.recdirect.jsonl")):
                code = self.cli(command, "--dataset", dataset, "--backend-config", record,
                                "--concurrency", 1, "--out", self.workdir / out)
                if code:
                    raise RuntimeError(f"recording {command} {family} exited {code}")
        self.endpoint = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), "--fixtures", str(fixtures),
             "--delay-ms", str(HTTP_DELAY_MS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port = int(self.endpoint.stdout.readline())
        os.environ["PERFBENCH_API_KEY"] = "loopback"
        self.config = self.workdir / "live.yaml"
        self.config.write_text(
            f"kind: live\nendpoint: http://127.0.0.1:{self.port}/v1\nmodel: replay\n"
            "api_key_env: PERFBENCH_API_KEY\ntimeout_seconds: 30\n")

    def endpoint_counts(self) -> dict:
        url = f"http://127.0.0.1:{self.port}/stats"
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.load(response)

    def run_once(self, k: int) -> None:
        for family in FAMILIES:
            dataset = self.data / f"{family}.jsonl"
            for command, out, extra in (("solve", f"{family}.out.jsonl", ()),
                                        ("solve-direct", f"{family}.direct.jsonl",
                                         ("--mode", "direct"))):
                code = self.cli(command, "--dataset", dataset, "--backend-config", self.config,
                                "--concurrency", LIVE_CONCURRENCY, *extra,
                                "--out", self.workdir / out)
                if code:
                    self.problems.append(f"{command} {family} exited {code}")

    def after(self, k: int) -> tuple[int, int]:
        failed = set()
        for family in FAMILIES:
            live = self.workdir / f"{family}.out.jsonl"
            if live.read_bytes() != (self.workdir / f"{family}.rec.jsonl").read_bytes():
                self.problems.append(f"live {family} results differ from the recorded stub run")
            for path in (live, self.workdir / f"{family}.direct.jsonl"):
                results = read_jsonl(path)
                self.count_usage(results)
                failed.update(r["id"] for r in results if r["status"] != "ok")
        n = sum(len(read_jsonl(self.data / f"{f}.jsonl")) for f in FAMILIES)
        self.usage["instances"] += n
        return n, len(failed)

    def check(self) -> dict:
        from graphcrew.dataset import read_instances

        scores = {}
        for kind, suffix in (("pipeline", "out"), ("direct", "direct")):
            scores[kind] = []
            for family in FAMILIES:
                report = self.workdir / f"{family}.{suffix}.eval"
                self.cli("evaluate", "--results", self.workdir / f"{family}.{suffix}.jsonl",
                         "--dataset", self.data / f"{family}.jsonl", "--out", report)
                scores[kind] += [Fraction(s["acc_all"]) for s in read_jsonl(report / "scores.jsonl")]
        if not scores["direct"] or any(s != 1 for s in scores["direct"]):
            self.problems.append("some direct answers did not score 1")
        instances = [i for f in FAMILIES for i in read_instances(self.data / f"{f}.jsonl")]
        return {"acc_all": float(sum(scores["pipeline"]) / max(len(scores["pipeline"]), 1)),
                "truth_exact_ratio": exact_ratio(instances)}

    def close(self) -> None:
        endpoint = getattr(self, "endpoint", None)
        if endpoint is None:
            return
        endpoint.stdin.close()
        try:
            endpoint.wait(timeout=10)
        except subprocess.TimeoutExpired:
            endpoint.kill()
            endpoint.wait()


WORKLOADS = {"truth_gen": TruthGen, "stub_pipeline": StubPipeline, "live_sim": LiveSim}


def measure(workload: Workload, seconds: float, start_rep: int = 0) -> dict:
    """Repeat the timed command sequence until ``seconds`` have passed (at least twice)."""
    rates, attempted, failed = [], 0, 0
    begin = time.perf_counter()
    k = start_rep
    while k - start_rep < 2 or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        workload.run_once(k)
        wall = time.perf_counter() - t0
        n, bad = workload.after(k)
        rates.append(n / wall)
        attempted += n
        failed += bad
        k += 1
    # the slowest pass; run.py says why this is the figure reported
    return {"rates": rates, "instances_per_s": min(rates), "attempted": attempted,
            "failed": failed, "next_rep": k}


def run(args, emit) -> dict:
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    try:
        workload.setup()
        emit({"ready": True})
        if args.mode == "setup":
            return {}
        plain = measure(workload, args.seconds)
        result = {key: plain[key] for key in ("rates", "instances_per_s", "attempted", "failed")}
        if args.trace:
            result.update(traced_phase(workload, args, plain))
        usage = workload.usage
        figures = workload.check()
        figures["tokens_per_instance"] = usage["tokens"] / max(usage["instances"], 1)
        figures["calls_per_instance"] = usage["calls"] / max(usage["instances"], 1)
        result["figures"] = figures
        result["problems"] = workload.problems
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    finally:
        workload.close()


def traced_phase(workload: Workload, args, plain: dict) -> dict:
    counts_before = workload.endpoint_counts() if isinstance(workload, LiveSim) else None
    tracer = Tracer(workload.instance_texts())
    tracer.install()
    workload.tracer = tracer
    try:
        traced = measure(workload, args.seconds, plain["next_rep"])
    finally:
        workload.tracer = None
        tracer.uninstall()
    endpoint = None
    if counts_before is not None:
        after = workload.endpoint_counts()
        endpoint = {k: after[k] - counts_before[k] for k in after}
        endpoint["connections"] -= 1  # the second /stats query's own connection
    layers = layer_metrics(tracer.spans, traced["attempted"],
                           HTTP_DELAY_MS if endpoint else None, endpoint)
    layers["trace.overhead_instances_per_s"] = traced["instances_per_s"] - plain["instances_per_s"]
    spans_file = Path(args.trace_dir) / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with spans_file.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.instance, s.attrs])
                     + "\n")
    return {"layers": layers, "spans": summarize(tracer.spans), "spans_file": str(spans_file),
            "traced_rates": traced["rates"], "traced_instances_per_s": traced["instances_per_s"],
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args()

    channel = sys.stdout
    sys.stdout = open(os.devnull, "w")  # the commands' own output

    def emit(doc: dict) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    emit({"result": run(args, emit)})


if __name__ == "__main__":
    main()
