"""Bridge from catalogue records to native solver calls.

Node limits live only in the catalogue's applicability blocks.  The
selector picks a record only for a graph within its limit, and a record
reaches this bridge only once judged applicable to its graph, so the
solvers take no limit of their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .graph import Graph, GraphError
from .problems import CYCLE_DETECTION, GRAPH_COLORING, SHORTEST_PATH, TSP, VERTEX_COVER
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


def _dijkstra(graph: Graph, source: str | None, target: str | None) -> Solution:
    if source is None or target is None:
        raise GraphError("dijkstra needs a source and a target node")
    return shortest_path_dijkstra(graph, source, target)


# every catalogue id: the problem family its solver answers, and the solver,
# called as (graph, source, target); the catalogue loader refuses an id that
# is not here, or that is filed under another family
RUNNERS: dict[str, tuple[str, Callable[[Graph, str | None, str | None], Solution]]] = {
    "held_karp": (TSP, lambda graph, *_: tsp_exact_held_karp(graph)),
    "nearest_neighbor_2opt": (TSP, lambda graph, *_: tsp_nearest_neighbor_two_opt(graph)),
    "exact_coloring": (GRAPH_COLORING, lambda graph, *_: coloring_exact(graph)),
    "dsatur": (GRAPH_COLORING, lambda graph, *_: coloring_dsatur(graph)),
    "bnb_cover": (VERTEX_COVER, lambda graph, *_: vertex_cover_exact(graph)),
    "matching_cover": (VERTEX_COVER, lambda graph, *_: vertex_cover_approx(graph)),
    "dijkstra": (SHORTEST_PATH, _dijkstra),
    "cycle_check": (CYCLE_DETECTION, lambda graph, *_: detect_cycle(graph)),
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
    _, runner = RUNNERS[record.algorithm_id]
    return runner(graph, source, target)
