"""Seeded construction of benchmark instances.

Each instance is fully determined by (master seed, problem type, node
count, index): a per-instance seed is derived by hashing that tuple, so
regenerating any slice of a dataset reproduces it byte for byte and
workers can build instances in any order.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from ..graph import Graph, build_graph, is_connected
from ..knowledge import NoApplicableAlgorithmError, select_algorithm
from ..execute import run_algorithm
from ..problems import (
    CYCLE_DETECTION,
    DEFAULT_SCENARIO,
    GRAPH_COLORING,
    NOISE_LEVELS,
    SHORTEST_PATH,
    TSP,
    VERTEX_COVER,
    check_problem_type,
)
from ..solvers import Solution
from .names import generate_names
from .text import SCENARIO_STYLES, render_problem_text


@dataclass(frozen=True)
class GroundTruth:
    """Proven optimum plus the heuristic answer for the same graph.

    ``approximate`` holds the selector's heuristic route's answer, or the
    optimum again when no heuristic row of the family fits the graph.
    """

    optimal: Solution
    approximate: Solution


@dataclass(frozen=True)
class ProblemInstance:
    instance_id: str
    problem_type: str
    scenario: str
    noise_level: str
    node_count: int
    seed: int
    text: str
    graph: Graph | None
    source: str | None
    target: str | None
    truth: GroundTruth | None


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate: one problem family across a size sweep."""

    problem_type: str
    master_seed: int = 7
    min_nodes: int = 8
    max_nodes: int = 25
    instances_per_size: int = 50
    noise_level: str = "standard"
    scenario: str | None = None

    def __post_init__(self) -> None:
        check_problem_type(self.problem_type)
        if self.noise_level not in NOISE_LEVELS:
            raise ValueError(f"unknown noise level {self.noise_level!r}")
        if self.scenario is not None and self.scenario not in SCENARIO_STYLES:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.min_nodes < 3:
            raise ValueError("min_nodes must be at least 3")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must not be below min_nodes")
        if self.instances_per_size < 1:
            raise ValueError("instances_per_size must be positive")

    @property
    def resolved_scenario(self) -> str:
        return self.scenario or DEFAULT_SCENARIO[self.problem_type]

    @property
    def instance_count(self) -> int:
        sizes = self.max_nodes - self.min_nodes + 1
        return sizes * self.instances_per_size


def instance_seed(master_seed: int, problem_type: str, node_count: int, index: int) -> int:
    """Derive the per-instance seed; stable across platforms and runs."""
    key = f"{master_seed}:{problem_type}:{node_count}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _complete_graph(names: list[str], rng: random.Random) -> Graph:
    edges = []
    ordered = sorted(names)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            edges.append((u, v, rng.randint(1, 100)))
    return build_graph(names, weighted=True, edges=edges)


def _gnp_connected(names: list[str], rng: random.Random, weighted: bool) -> Graph:
    """Sparse random graph, redrawn until connected."""
    ordered = sorted(names)
    n = len(ordered)
    p = rng.uniform(0.25, 0.5)
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    weight = rng.randint(1, 100) if weighted else 1
                    edges.append((ordered[i], ordered[j], weight))
        graph = build_graph(names, weighted=weighted, edges=edges)
        if is_connected(graph):
            return graph


def _near_tree(names: list[str], rng: random.Random) -> Graph:
    """A random tree, with one extra edge added half the time."""
    ordered = sorted(names)
    n = len(ordered)
    present = set()
    for i in range(1, n):
        j = rng.randrange(i)
        present.add((min(i, j), max(i, j)))
    if rng.random() < 0.5:
        absent = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in present
        ]
        present.add(rng.choice(absent))
    edges = [(ordered[i], ordered[j], 1) for i, j in sorted(present)]
    return build_graph(names, weighted=False, edges=edges)


def _make_graph(
    problem_type: str, names: list[str], rng: random.Random
) -> tuple[Graph, str | None, str | None]:
    if problem_type == TSP:
        return _complete_graph(names, rng), None, None
    if problem_type in (GRAPH_COLORING, VERTEX_COVER):
        return _gnp_connected(names, rng, weighted=False), None, None
    if problem_type == SHORTEST_PATH:
        graph = _gnp_connected(names, rng, weighted=True)
        source, target = rng.sample(sorted(names), 2)
        return graph, source, target
    if problem_type == CYCLE_DETECTION:
        return _near_tree(names, rng), None, None
    raise AssertionError(problem_type)


def ground_truth(
    problem_type: str,
    graph: Graph,
    source: str | None = None,
    target: str | None = None,
) -> GroundTruth:
    """Proven optimum, by the selector's exact route, plus the answer of
    its heuristic route, or the optimum again when no heuristic row fits.

    Raises :class:`~graphcrew.knowledge.NoApplicableAlgorithmError` when
    no exact row fits, for example past every exact route's node limit,
    because a heuristic answer stored as the truth would grade answers
    against itself, and ValueError naming the route when its answer
    fails the check :func:`run_algorithm` makes.
    """
    best = run_algorithm(select_algorithm(problem_type, graph, exact=True), graph,
                         source=source, target=target)
    try:
        heuristic = select_algorithm(problem_type, graph, exact=False)
    except NoApplicableAlgorithmError:
        return GroundTruth(optimal=best, approximate=best)
    approximate = run_algorithm(heuristic, graph, source=source, target=target)
    return GroundTruth(optimal=best, approximate=approximate)


def build_instance(
    problem_type: str,
    node_count: int,
    index: int,
    master_seed: int = DatasetSpec.master_seed,
    noise_level: str = DatasetSpec.noise_level,
    scenario: str | None = None,
) -> ProblemInstance:
    """One instance of a :class:`DatasetSpec`'s sweep; a ``scenario`` of
    None is the family's default, as in the spec."""
    scenario = DatasetSpec(problem_type, scenario=scenario).resolved_scenario
    seed = instance_seed(master_seed, problem_type, node_count, index)
    rng = random.Random(seed)

    names = generate_names(node_count, rng)
    graph, source, target = _make_graph(problem_type, names, rng)
    text = render_problem_text(
        graph, problem_type, scenario, noise_level, rng, source, target
    )
    truth = ground_truth(problem_type, graph, source, target)
    return ProblemInstance(
        instance_id=f"{problem_type}-n{node_count:02d}-i{index:02d}",
        problem_type=problem_type,
        scenario=scenario,
        noise_level=noise_level,
        node_count=node_count,
        seed=seed,
        text=text,
        graph=graph,
        source=source,
        target=target,
        truth=truth,
    )


def generate_dataset(spec: DatasetSpec, workers: int | None = None) -> Iterator[ProblemInstance]:
    """Yield the full sweep, ordered by (node_count, index), an instance
    at a time as it is built.

    With `workers` > 1 instances are built in parallel processes; the
    per-instance seeding makes the result identical either way.
    """
    cells = [
        (spec.problem_type, n, i, spec.master_seed, spec.noise_level, spec.scenario)
        for n in range(spec.min_nodes, spec.max_nodes + 1)
        for i in range(spec.instances_per_size)
    ]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(build_instance, *zip(*cells), chunksize=8)
    else:
        yield from itertools.starmap(build_instance, cells)
