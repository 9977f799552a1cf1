"""In-memory span tracing from outside the package, and the arithmetic on it.

The tracer replaces public graphcrew functions at every module binding
that refers to them (``from .x import f`` makes one binding per
importing module) with a wrapper that records a span: name, start, end,
parent span, instance id and a few attributes.  Nothing under ``src/``
changes, and the originals are put back by :meth:`Tracer.uninstall`.

Only names that a refactor is expected to keep are wrapped; per-edge
helpers such as ``coerce_weight`` are not, so their cost shows up as
self time of ``parse_graph`` and ``build_graph``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (span name, module that defines the function, attribute name)
FUNCTIONS = (
    ("dataset.generate_dataset", "graphcrew.dataset.generate", "generate_dataset"),
    ("dataset.build_instance", "graphcrew.dataset.generate", "build_instance"),
    ("dataset.ground_truth", "graphcrew.dataset.generate", "ground_truth"),
    ("dataset.render_problem_text", "graphcrew.dataset.text", "render_problem_text"),
    ("dataset.generate_names", "graphcrew.dataset.names", "generate_names"),
    ("dataset.write_instances", "graphcrew.dataset.records", "write_instances"),
    ("dataset.write_text_only", "graphcrew.dataset.records", "write_text_only"),
    ("dataset.read_instances", "graphcrew.dataset.records", "read_instances"),
    ("dataset.dataset_manifest", "graphcrew.dataset.records", "dataset_manifest"),
    ("solvers.run_algorithm", "graphcrew.execute", "run_algorithm"),
    ("solvers.verify_solution", "graphcrew.solvers.solution", "verify_solution"),
    ("knowledge.select_algorithm", "graphcrew.knowledge", "select_algorithm"),
    ("formats.parse_graph", "graphcrew.formats", "parse_graph"),
    ("formats.read_edge_list_loose", "graphcrew.formats", "read_edge_list_loose"),
    ("formats.serialize_graph", "graphcrew.formats", "serialize_graph"),
    ("graph.build_graph", "graphcrew.graph", "build_graph"),
    ("graph.graph_stats", "graphcrew.graph", "graph_stats"),
    ("graph.merge_edge_triples", "graphcrew.graph", "merge_edge_triples"),
    ("agents.run_pipeline", "graphcrew.agents.pipeline", "run_pipeline"),
    ("agents.run_direct", "graphcrew.agents.direct", "run_direct"),
    ("evaluation.score_prediction", "graphcrew.evaluation.scoring", "score_prediction"),
    ("evaluation.score_failure", "graphcrew.evaluation.scoring", "score_failure"),
    ("evaluation.aggregate_scores", "graphcrew.evaluation.scoring", "aggregate_scores"),
    ("evaluation.overall_summary", "graphcrew.evaluation.scoring", "overall_summary"),
    ("evaluation.cost_report", "graphcrew.evaluation.costs", "cost_report"),
    ("evaluation.render_accuracy_table", "graphcrew.evaluation.reports", "render_accuracy_table"),
    ("evaluation.render_cost_table", "graphcrew.evaluation.reports", "render_cost_table"),
    ("evaluation.scores_to_records", "graphcrew.evaluation.reports", "scores_to_records"),
)

# backend classes whose ``complete`` method is wrapped as ``agents.complete``
BACKENDS = ("OracleStubBackend", "LiveChatBackend", "ReplayBackend", "RecordingBackend")

STAGES = ("narrative", "classify", "extract_graph", "normalize", "select", "audit", "direct")
SOLVERS = (
    "held_karp", "nearest_neighbor_2opt", "exact_coloring", "dsatur",
    "matching_cover", "bnb_cover", "dijkstra",
)
LAYERS = ("cli", "dataset", "solvers", "knowledge", "formats", "graph", "agents", "evaluation")
COMMANDS = ("generate", "solve", "solve_direct", "evaluate")


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    instance: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads may overlap each other; the union of their
    intervals is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end) for s in spans
    }


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile that leaves at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n * (1000 - round(p * 10)) >= 10 * 1000:  # in tenths of a percent, exactly
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Records spans in memory; install() wraps, uninstall() restores."""

    def __init__(self, instance_of_text: dict[str, str] | None = None):
        self.spans: list[Span] = []
        self.instance_of_text = instance_of_text or {}
        self._local = threading.local()
        self._home = self._stack()
        self._ids = iter(range(1, sys.maxsize))
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, instance: str | None = None, **attrs) -> Span:
        stack = self._stack()
        # a pool thread's first span belongs to whatever the home thread has open
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        if instance is None and parent is not None:
            instance = parent.instance
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, name, time.perf_counter(), parent=parent.sid if parent else None,
                    instance=instance, attrs=attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name: str, fn, describe):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            instance, attrs = None, {}
            if describe is not None:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    arguments = {}
                instance, attrs = describe(arguments)
            span = tracer.open(name, instance, **attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                tracer.close(span)
            if name == "agents.complete":
                span.attrs["tokens"] = result.usage.input_tokens + result.usage.output_tokens
            return result

        return wrapper

    def _describe(self, name: str):
        """Instance id and attributes of a call, from its arguments by name;
        None for spans that need neither.

        A missing argument leaves the span without them rather than
        breaking the traced program.
        """
        if name == "dataset.build_instance":
            def describe(a):
                if {"problem_type", "node_count", "index"} <= a.keys():
                    return f"{a['problem_type']}-n{a['node_count']:02d}-i{a['index']:02d}", {}
                return None, {}
        elif name in ("agents.run_pipeline", "agents.run_direct"):
            def describe(a):
                return self.instance_of_text.get(a.get("problem_text")), {}
        elif name == "solvers.run_algorithm":
            def describe(a):
                record = getattr(a.get("record"), "record", a.get("record"))
                graph = a.get("graph")
                return None, {"algorithm": getattr(record, "algorithm_id", "unknown"),
                              "n": getattr(graph, "node_count", 0)}
        elif name == "agents.complete":
            from graphcrew.agents.prompts import stage_of_prompt

            def describe(a):
                return None, {"stage": stage_of_prompt(a.get("system_prompt", "")) or "",
                              "backend": type(a.get("self")).__name__}
        else:
            describe = None
        return describe

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded graphcrew modules."""
        modules = {k: m for k, m in list(sys.modules.items())
                   if k == "graphcrew" or k.startswith("graphcrew.")}
        for name, home, attr in FUNCTIONS:
            original = getattr(modules[home], attr, None) if home in modules else None
            if original is None:
                continue
            wrapper = self._wrap(name, original, self._describe(name))
            for module in modules.values():
                if module is not None and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        from graphcrew.agents import backends

        for cls_name in BACKENDS:
            cls = getattr(backends, cls_name, None)
            if cls is not None and "complete" in vars(cls):
                self._patch(cls, "complete", self._wrap("agents.complete", cls.complete,
                                                        self._describe("agents.complete")))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- per-layer metrics --------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: sample count, p50 and tail percentile of duration in ms."""
    by_name: dict[str, list[float]] = {}
    for span in spans:
        key = span.name
        if span.name == "solvers.run_algorithm":
            key = f"solvers.{span.attrs['algorithm']}"
        elif span.name == "agents.complete":
            key = f"agents.complete.{span.attrs['stage']}"
        by_name.setdefault(key, []).append(_ms(span.duration))
    out = {}
    for key, values in sorted(by_name.items()):
        tail = tail_percentile(len(values))
        out[key] = {
            "n": len(values),
            "p50_ms": statistics.median(values),
            "tail": None if tail is None else {"p": tail, "ms": percentile(values, tail)},
        }
    return out


def layer_metrics(spans: list[Span], instances: int, http_delay_ms: float | None = None,
                  endpoint_counts: dict | None = None) -> dict[str, float]:
    """Every per-layer metric the spans support, by name.

    ``instances`` is the number of instances that went through the traced
    phase; per-instance figures divide by it.  Counts are always present
    (zero when nothing ran); timings whose spans are absent are left out.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    m: dict[str, float] = {}

    def named(name):
        return [s for s in spans if s.name == name]

    def p50(values):
        return statistics.median(values) if values else None

    def put(key, value):
        if value is not None:
            m[key] = value

    per = max(instances, 1)

    for layer in LAYERS:
        total = sum(selfs[s.sid] for s in spans if s.layer == layer)
        if any(s.layer == layer for s in spans):
            m[f"{layer}.self_ms_per_instance"] = _ms(total) / per

    for cmd in COMMANDS:
        put(f"cli.{cmd}.self_ms", p50([_ms(selfs[s.sid]) for s in named(f"cli.{cmd}")]))

    # dataset
    for fn in ("build_instance", "ground_truth", "render_problem_text"):
        put(f"dataset.{fn}.p50_ms", p50([_ms(s.duration) for s in named(f"dataset.{fn}")]))
    for fn in ("write_instances", "read_instances"):
        put(f"dataset.{fn}.ms", p50([_ms(s.duration) for s in named(f"dataset.{fn}")]))
    truths = named("dataset.ground_truth")
    truth_ids = {s.sid for s in truths}
    solver_spans = named("solvers.run_algorithm")
    m["dataset.ground_truth.solver_calls_per_instance"] = (
        sum(1 for s in solver_spans if s.parent in truth_ids) / len(truths) if truths else 0.0
    )

    # solvers
    for aid in SOLVERS:
        runs = [s for s in solver_spans if s.attrs["algorithm"] == aid]
        m[f"solvers.{aid}.calls_per_instance"] = len(runs) / per
        put(f"solvers.{aid}.p50_ms", p50([_ms(s.duration) for s in runs]))
    for aid, n in (("held_karp", 16), ("exact_coloring", 22)):
        put(f"solvers.{aid}.n{n}_ms", p50([_ms(s.duration) for s in solver_spans
                                           if s.attrs["algorithm"] == aid and s.attrs["n"] == n]))

    # counted functions of solvers, knowledge, formats, graph
    for name in ("solvers.verify_solution", "knowledge.select_algorithm", "formats.parse_graph",
                 "formats.read_edge_list_loose", "formats.serialize_graph", "graph.build_graph",
                 "graph.graph_stats"):
        calls = named(name)
        m[f"{name}.calls_per_instance"] = len(calls) / per
        put(f"{name}.p50_ms", p50([_ms(s.duration) for s in calls]))

    # agents: model calls by stage
    model_calls = [s for s in named("agents.complete")
                   if by_id.get(s.parent) is None or by_id[s.parent].name != "agents.complete"]
    for stage in STAGES:
        calls = [s for s in model_calls if s.attrs["stage"] == stage]
        m[f"agents.stage.{stage}.calls_per_instance"] = len(calls) / per
        m[f"agents.stage.{stage}.tokens_per_instance"] = sum(
            s.attrs.get("tokens", 0) for s in calls) / per
        put(f"agents.stage.{stage}.wait_p50_ms", p50([_ms(s.duration) for s in calls]))
    m["agents.calls_per_instance"] = len(model_calls) / per
    m["agents.tokens_per_instance"] = sum(s.attrs.get("tokens", 0) for s in model_calls) / per
    m["agents.backend.errors"] = float(sum(1 for s in model_calls if s.attrs.get("error")))
    put("agents.backend.stub_p50_us", p50([s.duration * 1e6 for s in model_calls
                                           if s.attrs["backend"] == "OracleStubBackend"]))
    live = [_ms(s.duration) for s in model_calls if s.attrs["backend"] == "LiveChatBackend"]
    if live and http_delay_ms is not None:
        m["agents.http.client_overhead_p50_ms"] = statistics.median(live) - http_delay_ms
    if endpoint_counts and endpoint_counts.get("requests"):
        m["agents.http.connections_per_call"] = (
            endpoint_counts["connections"] / endpoint_counts["requests"])

    pipelines = named("agents.run_pipeline")
    if pipelines:
        walls = [_ms(s.duration) for s in pipelines]
        m["agents.pipeline.run_pipeline.p50_ms"] = statistics.median(walls)
        m["agents.pipeline.run_pipeline.p90_ms"] = percentile(walls, 90.0)
        m["agents.pipeline.self_p50_ms"] = statistics.median(
            _pipeline_self_ms(pipelines, spans, by_id))
        if model_calls:
            m["agents.pipeline.serial_calls"] = statistics.median(walls) / statistics.median(
                [_ms(s.duration) for s in model_calls])
    put("agents.direct.run_direct.p50_ms",
        p50([_ms(s.duration) for s in named("agents.run_direct")]))

    # evaluation
    put("evaluation.score_prediction.p50_us",
        p50([s.duration * 1e6 for s in named("evaluation.score_prediction")]))
    for fn in ("cost_report", "aggregate_scores"):
        put(f"evaluation.{fn}.ms", p50([_ms(s.duration) for s in named(f"evaluation.{fn}")]))
    return m


_EXTERNAL = ("agents.complete", "solvers.run_algorithm", "solvers.verify_solution")


def _pipeline_self_ms(pipelines: list[Span], spans: list[Span], by_id: dict[int, Span]) -> list[float]:
    """Per run_pipeline span: its wall minus backend, solver and verify time."""
    pipeline_ids = {s.sid for s in pipelines}
    outside = {sid: 0.0 for sid in pipeline_ids}
    for span in spans:
        if span.name not in _EXTERNAL:
            continue
        # count only the outermost external span below a pipeline
        node = by_id.get(span.parent)
        while node is not None and node.sid not in pipeline_ids and node.name not in _EXTERNAL:
            node = by_id.get(node.parent)
        if node is not None and node.sid in pipeline_ids:
            outside[node.sid] += span.duration
    return [_ms(s.duration - outside[s.sid]) for s in pipelines]
