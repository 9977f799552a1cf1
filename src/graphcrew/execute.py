"""Bridge from catalogue records to native solver calls.

Node limits live in the catalogue's applicability blocks and are passed
through to the solvers here, so a custom catalogue with tighter or wider
limits changes runtime behavior without touching solver code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .graph import Graph, GraphError
from .solvers import (
    Solution,
    coloring_dsatur,
    coloring_exact,
    detect_cycle,
    shortest_path_dijkstra,
    tsp_exact_held_karp,
    tsp_nearest_neighbor_two_opt,
    vertex_cover_approx,
    vertex_cover_exact,
)

if TYPE_CHECKING:
    from .knowledge import AlgorithmRecord


class UnknownAlgorithmError(ValueError):
    pass


def _dijkstra(graph: Graph, limit: int, source: str | None, target: str | None) -> Solution:
    if source is None or target is None:
        raise GraphError("dijkstra needs a source and a target node")
    return shortest_path_dijkstra(graph, source, target)


# every catalogue id, and its solver called as (graph, node limit, source, target);
# the catalogue loader refuses an id that is not here
RUNNERS: dict[str, Callable[[Graph, int, str | None, str | None], Solution]] = {
    "held_karp": lambda graph, limit, *_: tsp_exact_held_karp(graph, max_nodes=limit),
    "nearest_neighbor_2opt": lambda graph, *_: tsp_nearest_neighbor_two_opt(graph),
    "exact_coloring": lambda graph, limit, *_: coloring_exact(graph, max_nodes=limit),
    "dsatur": lambda graph, *_: coloring_dsatur(graph),
    "bnb_cover": lambda graph, limit, *_: vertex_cover_exact(graph, max_nodes=limit),
    "matching_cover": lambda graph, *_: vertex_cover_approx(graph),
    "dijkstra": _dijkstra,
    "cycle_check": lambda graph, *_: detect_cycle(graph),
}


def run_algorithm(
    record: AlgorithmRecord,
    graph: Graph,
    *,
    source: str | None = None,
    target: str | None = None,
) -> Solution:
    """Run the solver a catalogue record points at.

    Shortest-path records additionally need ``source`` and ``target``.
    """
    runner = RUNNERS.get(record.algorithm_id)
    if runner is None:
        raise UnknownAlgorithmError(f"no runner for algorithm {record.algorithm_id!r}")
    return runner(graph, record.applicability.max_nodes, source, target)
