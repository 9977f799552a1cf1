"""Tests of the benchmark's own arithmetic and of its declared metric names."""

from __future__ import annotations

import json
import threading
import time
from argparse import Namespace
from pathlib import Path

import pytest

import run
import worker
from tracing import Span, Tracer, covered, percentile, self_times, tail_percentile

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span(1, "cli.solve", 0.0, 10.0),
        Span(2, "agents.run_pipeline", 2.0, 5.0, parent=1),
        Span(3, "agents.complete", 3.0, 4.0, parent=2),
        Span(4, "dataset.read_instances", 6.0, 7.0, parent=1),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_subtracts_the_union_of_overlapping_thread_children():
    spans = [
        Span(1, "cli.solve", 0.0, 10.0),
        Span(2, "agents.run_pipeline", 1.0, 6.0, parent=1),  # pool thread A
        Span(3, "agents.run_pipeline", 4.0, 9.0, parent=1),  # pool thread B
        Span(4, "agents.run_pipeline", 9.5, 12.0, parent=1),  # runs past its parent
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 8.0 - 0.5)


def test_covered_merges_and_clips():
    assert covered([], 0, 1) == 0
    assert covered([(0, 2), (1, 3), (5, 6), (7, 20)], 1, 10) == pytest.approx(2 + 1 + 3)


def test_pool_thread_spans_are_children_of_the_home_threads_open_span():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def job():
        with tracer.span("agents.run_pipeline"):
            barrier.wait(timeout=5)
            time.sleep(0.01)

    with tracer.span("cli.solve") as root:
        threads = [threading.Thread(target=job) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
    children = [s for s in tracer.spans if s.name == "agents.run_pipeline"]
    assert [s.parent for s in children] == [root.sid, root.sid]
    # both ran at once, so the root's self time is well under its duration
    # minus the children's summed durations would suggest
    own = self_times(tracer.spans)[root.sid]
    union = covered([(s.start, s.end) for s in children], root.start, root.end)
    assert own == pytest.approx(root.duration - union)
    assert union < sum(s.duration for s in children)


def test_wrapped_calls_are_described_by_argument_name_not_position():
    from types import SimpleNamespace

    def run_algorithm(record, graph, *, source=None, target=None, parameters=None):
        return "solution"

    def build_instance(problem_type, node_count, index, master_seed=7):
        return "instance"

    tracer = Tracer()
    solve = tracer._wrap("solvers.run_algorithm", run_algorithm,
                         tracer._describe("solvers.run_algorithm"))
    build = tracer._wrap("dataset.build_instance", build_instance,
                         tracer._describe("dataset.build_instance"))
    choice = SimpleNamespace(record=SimpleNamespace(algorithm_id="dsatur"))
    assert solve(graph=SimpleNamespace(node_count=9), record=choice) == "solution"
    assert build(index=3, node_count=12, problem_type="tsp") == "instance"
    with pytest.raises(TypeError):
        build("tsp", 12)  # the traced function's own error still reaches the caller
    solver_span, build_span, failed_span = tracer.spans
    assert solver_span.attrs == {"algorithm": "dsatur", "n": 9}
    assert build_span.instance == "tsp-n12-i03"
    assert failed_span.instance is None and failed_span.attrs == {"error": True}


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (1000 - round(expected * 10)) >= 10000


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_live_sim_reason_states_the_endpoint_delay():
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}["live_sim"]
    assert f"{worker.HTTP_DELAY_MS:g} ms" in why


def _fake_result(trace: int) -> dict:
    result = {
        "setups": [0.5, 0.4, 0.6], "rates": [10.0, 12.0, 11.0], "instances_per_s": 10.0,
        "attempted": 30, "failed": 0,
        "figures": {"truth_exact_ratio": 1.0, "tokens_per_instance": 0.0,
                    "calls_per_instance": 0.0},
        "problems": [], "peak_rss_mb": 50.0,
    }
    if trace:
        result.update(layers={"graph.build_graph.p50_ms": 0.1}, spans={}, spans_file="x",
                      traced_rates=[9.0, 9.5], traced_instances_per_s=9.2,
                      traced_attempted=20, traced_failed=0)
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_the_declared_ones(trace, section, capsys):
    args = Namespace(workload="truth_gen", seed=7, seconds=1.0, trace=trace)
    final, _record = run.report(args, _fake_result(trace))
    assert list(final["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert final["correct"] is True
    if not trace:
        assert final["metrics"]["setup_s"]["value"] == 0.6  # the slowest set-up
        assert final["metrics"]["instances_per_s"]["value"] == 10.0
    assert "instances/s" in capsys.readouterr().out
