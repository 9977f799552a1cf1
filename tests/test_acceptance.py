"""Acceptance gate: eight criteria, one verdict line each.

Each test prints `ACCEPTANCE <n> (<label>): PASS` or `: FAIL` so a run
log shows the whole gate at a glance (use `pytest -s` to watch live).
The checks themselves are ordinary assertions; nothing here is advisory.
"""

import functools
import random
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from graphcrew.cli import main as cli_main
from graphcrew.dataset import (
    DatasetSpec,
    build_instance,
    generate_dataset,
    read_instances,
    write_instances,
)
from graphcrew.dataset.extract import reference_extract
from graphcrew.evaluation import (
    PriceConfig,
    cost_report,
    overall_summary,
    price_of,
    score_prediction,
)
from graphcrew.agents import OracleStubBackend, run_pipeline
from graphcrew.problems import (
    GRAPH_COLORING,
    NOISE_LEVELS,
    PROBLEM_TYPES,
    SHORTEST_PATH,
    TSP,
    VERTEX_COVER,
)
from graphcrew.solvers import tsp, verify_solution

from oracles import (
    bellman_ford_cost,
    brute_chromatic_number,
    brute_min_cover_size,
    brute_tour_cost,
    exact_price,
)
from util import complete_graph, gnp_graph, solve

REPO_ROOT = Path(__file__).resolve().parent.parent
NODE_BEARING = (TSP, GRAPH_COLORING, VERTEX_COVER, SHORTEST_PATH)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")
        return wrapper
    return decorate


@criterion(1, "solver-oracle equivalence")
def test_criterion_1_solver_oracle_equivalence():
    started = time.monotonic()

    for i in range(200):
        n = 5 + i % 5  # n in [5, 9]
        graph = complete_graph(n, seed=1000 + i)
        assert solve("held_karp", graph).objective == brute_tour_cost(graph), i

    for i in range(200):
        n = 4 + i % 9  # n <= 12
        graph = gnp_graph(n, 0.4, seed=2000 + i)
        assert solve("exact_coloring", graph).objective == brute_chromatic_number(graph), i

    for i in range(200):
        n = 4 + i % 11  # n <= 14
        graph = gnp_graph(n, 0.35, seed=3000 + i)
        assert solve("bnb_cover", graph).objective == brute_min_cover_size(graph), i

    for i in range(200):
        n = 5 + i % 16  # n <= 20
        graph = gnp_graph(n, 0.35, seed=4000 + i, weighted=True, connected=True)
        rng = random.Random(5000 + i)
        src, dst = rng.sample(graph.node_names, 2)
        found = solve("dijkstra", graph, src, dst)
        assert found.objective == bellman_ford_cost(graph, src, dst), i

    assert time.monotonic() - started <= 300


@criterion(2, "heuristic bounds")
def test_criterion_2_heuristic_bounds():
    for i in range(500):
        n = 4 + i % 9
        graph = gnp_graph(n, 0.4, seed=6000 + i)
        greedy = solve("dsatur", graph)
        assert greedy.objective >= solve("exact_coloring", graph).objective, i
        assert verify_solution(GRAPH_COLORING, graph, greedy).valid, i

    for i in range(500):
        n = 4 + i % 13
        graph = gnp_graph(n, 0.35, seed=7000 + i)
        approx = solve("matching_cover", graph)
        assert approx.objective <= 2 * solve("bnb_cover", graph).objective, i
        assert verify_solution(VERTEX_COVER, graph, approx).valid, i

    for i in range(500):
        n = 4 + i % 17
        graph = complete_graph(n, seed=8000 + i)
        m = tsp._matrix(graph)
        plain = tsp._nearest_neighbor(m, 0)
        improved = solve("nearest_neighbor_2opt", graph)
        assert sorted(plain) == list(range(n)), i
        assert improved.objective <= tsp._cycle_cost(m, plain), i
        assert verify_solution(TSP, graph, improved).valid, i


@criterion(3, "dataset statistics")
def test_criterion_3_dataset_statistics(tmp_path):
    out = tmp_path / "default"
    result = CliRunner().invoke(cli_main, ["generate", "--out", str(out)])
    assert result.exit_code == 0, result.output

    for problem_type in NODE_BEARING:
        instances = read_instances(out / f"{problem_type}.jsonl")
        assert len(instances) == 900, problem_type
        by_size = {}
        for instance in instances:
            by_size.setdefault(instance.node_count, []).append(instance)
        assert sorted(by_size) == list(range(8, 26)), problem_type
        assert all(len(group) == 50 for group in by_size.values()), problem_type

        # regeneration from the same master seed, in two worker processes,
        # is byte-identical to the serial run
        regenerated = tmp_path / f"{problem_type}_again.jsonl"
        statements = tmp_path / f"{problem_type}_again.text.jsonl"
        write_instances(generate_dataset(DatasetSpec(problem_type), workers=2), regenerated,
                        statements)
        assert regenerated.read_bytes() == (out / f"{problem_type}.jsonl").read_bytes()
        assert statements.read_bytes() == (out / f"{problem_type}.text.jsonl").read_bytes()

        # every stored optimum was proven by an exact route
        assert all(instance.truth.optimal.exact for instance in instances), problem_type

        # the reference extractor recovers every hidden graph
        for instance in instances:
            got = reference_extract(instance.text)
            assert got.graph == instance.graph, instance.instance_id
            assert got.source == instance.source, instance.instance_id
            assert got.target == instance.target, instance.instance_id

    # every noise level, every family (cycle detection included)
    for noise in NOISE_LEVELS:
        for problem_type in PROBLEM_TYPES:
            for index in range(3):
                instance = build_instance(problem_type, 10, index, noise_level=noise)
                assert reference_extract(instance.text).graph == instance.graph


@criterion(4, "offline pipeline correctness")
def test_criterion_4_offline_pipeline_correctness():
    started = time.monotonic()
    scores = []
    backend = OracleStubBackend()
    for problem_type in NODE_BEARING:
        for n in range(8, 26):
            instance = build_instance(problem_type, n, 0)
            outcome = run_pipeline(backend, instance.text)
            scores.append(score_prediction(
                outcome.solution,
                instance.truth.optimal,
                problem_type,
                instance.graph,
                source=instance.source,
                target=instance.target,
                instance_id=instance.instance_id,
            ))
    assert len(scores) == 72
    overall = overall_summary(scores)
    assert overall.mean_acc_all == 1
    assert overall.error_rate == 0
    assert time.monotonic() - started <= 120


@criterion(5, "scoring formula")
def test_criterion_5_scoring_formula():
    from dataclasses import replace

    instance = build_instance(TSP, 8, 0)
    truth = instance.truth.optimal

    both_right = score_prediction(truth, truth, TSP, instance.graph)
    assert both_right.acc_all == 1

    value_only = replace(truth, payload=truth.payload[:-1])
    half = score_prediction(value_only, truth, TSP, instance.graph)
    assert (half.acc_nodes, half.acc_result) == (0, 1)
    assert half.acc_all == Fraction(1, 2)

    neither = replace(truth, payload=truth.payload[:-1], objective=truth.objective + 1)
    zero = score_prediction(neither, truth, TSP, instance.graph)
    assert zero.acc_all == 0

    mixed = overall_summary([both_right, half, zero])
    assert mixed.mean_acc_all == Fraction(1, 2)


@criterion(6, "cost accounting")
def test_criterion_6_cost_accounting():
    rates = PriceConfig(Fraction("0.15"), Fraction("0.60"))

    # hand-checked: 100 in and 50 out is 45 millionths of a dollar
    assert price_of(100, 50, rates) == Fraction(45, 1_000_000)
    # published-rate example: 13.32k in, 4.56k out costs $0.004734
    assert price_of(13_320, 4_560, rates) == Fraction(2367, 500_000)

    calls = [("extract_graph", 120, 30), ("select", 80, 10), ("extract_graph", 200, 40)]
    report = cost_report(calls, rates)
    assert report.total.price == exact_price(400, 80, Fraction("0.15"), Fraction("0.60"))
    assert report.total.price == sum((s.price for s in report.stages), Fraction(0))
    assert report.total.input_tokens == sum(s.input_tokens for s in report.stages) == 400
    assert report.total.output_tokens == sum(s.output_tokens for s in report.stages) == 80


@criterion(7, "large-instance heuristics")
def test_criterion_7_scale_check():
    graph = complete_graph(40, seed=424242)
    started = time.monotonic()
    tour = solve("nearest_neighbor_2opt", graph)
    assert time.monotonic() - started <= 10
    assert verify_solution(TSP, graph, tour).valid

    sparse = gnp_graph(40, 0.3, seed=515151, connected=True)
    started = time.monotonic()
    coloring = solve("dsatur", sparse)
    assert time.monotonic() - started <= 10
    assert verify_solution(GRAPH_COLORING, sparse, coloring).valid


@criterion(8, "live-run recipe documented")
def test_criterion_8_live_run_recipe():
    recipe = REPO_ROOT / "docs" / "live_run.md"
    assert recipe.exists(), "docs/live_run.md is missing"
    text = recipe.read_text(encoding="utf-8")

    # the documented output format carries the accuracy-table columns
    for column in ("acc_all", "acc_nodes", "acc_result", "error_rate"):
        assert column in text, column
    # key handling is environment-only, stated explicitly
    assert "api_key_env" in text
    assert "environment variable" in text
    # honesty about what a live run is (ignore markdown wrapping)
    flat = " ".join(text.lower().replace("*", "").split())
    assert "not reproducible" in flat
