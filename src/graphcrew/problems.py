"""Shared vocabulary: problem families, answer kinds, scenario themes,
and the shape of a problem read back from its statement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import Graph

TSP = "tsp"
GRAPH_COLORING = "graph_coloring"
VERTEX_COVER = "vertex_cover"
SHORTEST_PATH = "shortest_path"
CYCLE_DETECTION = "cycle_detection"

PROBLEM_TYPES: tuple[str, ...] = (
    TSP,
    GRAPH_COLORING,
    VERTEX_COVER,
    SHORTEST_PATH,
    CYCLE_DETECTION,
)

# Answer kinds: the shape of a solution payload.
TOUR = "tour"
COLORING = "coloring"
NODE_SET = "node_set"
PATH = "path"
BOOLEAN = "boolean"

KIND_BY_PROBLEM: dict[str, str] = {
    TSP: TOUR,
    GRAPH_COLORING: COLORING,
    VERTEX_COVER: NODE_SET,
    SHORTEST_PATH: PATH,
    CYCLE_DETECTION: BOOLEAN,
}

# Cover-story themes for generated problem text.
DELIVERY = "delivery"
NETWORK = "network"
SCHEDULING = "scheduling"
PATROL = "patrol"

SCENARIOS: tuple[str, ...] = (DELIVERY, NETWORK, SCHEDULING, PATROL)

DEFAULT_SCENARIO: dict[str, str] = {
    TSP: DELIVERY,
    GRAPH_COLORING: SCHEDULING,
    VERTEX_COVER: NETWORK,
    SHORTEST_PATH: DELIVERY,
    CYCLE_DETECTION: PATROL,
}

NOISE_LEVELS: tuple[str, ...] = ("none", "standard", "heavy")


@dataclass(frozen=True)
class ExtractedProblem:
    """What a reading of a problem statement recovered: its family, its
    graph and any route endpoints."""

    problem_type: str
    graph: Graph
    source: str | None
    target: str | None


def check_problem_type(problem_type: str) -> str:
    if problem_type not in PROBLEM_TYPES:
        known = ", ".join(PROBLEM_TYPES)
        raise ValueError(f"unknown problem type {problem_type!r} (known: {known})")
    return problem_type
