"""The route table and the deterministic selector.

:data:`ROUTES` lists every solving route: its problem family, whether it
proves an optimum, the graphs it applies to and the solver it runs.
Every graph is undirected, so a row limits only size (a tour needs at
least 3 nodes), completeness and weightedness; a graph a row admits is
one its solver can take, so the solvers check no preconditions of their
own.
Selection is a pure function of the table, the graph and the exactness
asked for, so the same graph always yields the same route; the pipeline,
the stored truth and the offline stub all take their routes from it.
Raising a node limit is a one-line edit of its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .graph import Graph
from .problems import CYCLE_DETECTION, GRAPH_COLORING, SHORTEST_PATH, TSP, VERTEX_COVER
from .solvers import (
    coloring_dsatur,
    coloring_exact,
    detect_cycle,
    shortest_path_dijkstra,
    tsp_exact_held_karp,
    tsp_nearest_neighbor_two_opt,
    vertex_cover_approx,
    vertex_cover_exact,
)


class NoApplicableAlgorithmError(ValueError):
    pass


@dataclass(frozen=True)
class Route:
    """One row of the table.  ``solve`` takes the graph alone, or for
    ``shortest_path`` the graph, source and target, and returns only its
    canonical payload: :func:`~graphcrew.execute.run_algorithm` names
    the answer by ``algorithm_id``, marks it ``exact`` as the row says
    and checks it, so the row is the one place these are stated."""

    algorithm_id: str
    problem_type: str
    exact: bool
    max_nodes: int
    solve: Callable[..., Any]
    min_nodes: int = 0
    requires_complete: bool = False
    requires_weighted: bool = False


# every route, in selection order: within a family, the first route that
# fits a graph is the one that runs, so each family lists its exact route first
ROUTES: tuple[Route, ...] = (
    Route("held_karp", TSP, exact=True, max_nodes=25, solve=tsp_exact_held_karp,
          min_nodes=3, requires_complete=True, requires_weighted=True),
    Route("nearest_neighbor_2opt", TSP, exact=False, max_nodes=1000,
          solve=tsp_nearest_neighbor_two_opt,
          min_nodes=3, requires_complete=True, requires_weighted=True),
    Route("exact_coloring", GRAPH_COLORING, exact=True, max_nodes=25, solve=coloring_exact),
    Route("dsatur", GRAPH_COLORING, exact=False, max_nodes=1000, solve=coloring_dsatur),
    Route("bnb_cover", VERTEX_COVER, exact=True, max_nodes=30, solve=vertex_cover_exact),
    Route("matching_cover", VERTEX_COVER, exact=False, max_nodes=1000,
          solve=vertex_cover_approx),
    Route("dijkstra", SHORTEST_PATH, exact=True, max_nodes=100000,
          solve=shortest_path_dijkstra),
    Route("cycle_check", CYCLE_DETECTION, exact=True, max_nodes=100000, solve=detect_cycle),
)


def applicability_reason(route: Route, graph: Graph) -> str | None:
    """Why this route cannot run on this graph, or None if it can."""
    if graph.node_count > route.max_nodes:
        return f"{graph.node_count} nodes exceeds its limit of {route.max_nodes}"
    if graph.node_count < route.min_nodes:
        return f"{graph.node_count} nodes is below its minimum of {route.min_nodes}"
    if route.requires_complete and not graph.is_complete:
        return "the graph is not complete"
    if route.requires_weighted and not graph.weighted:
        return "the graph is unweighted"
    return None


def select_algorithm(problem_type: str, graph: Graph, exact: bool | None = None) -> Route:
    """Pick the one route for a graph: the family's first applicable row
    of :data:`ROUTES`, so an exact one when any fits, else a heuristic.
    With ``exact`` set, only rows of that exactness are candidates, so
    ``exact=True`` picks the route that proves an optimum.

    The choice is final; no caller runs a second route in its place.
    Raises :class:`NoApplicableAlgorithmError` when nothing fits, naming
    every candidate row of the family and why it was passed over.
    """
    rejections: list[str] = []
    for route in ROUTES:
        if route.problem_type != problem_type or exact not in (None, route.exact):
            continue
        reason = applicability_reason(route, graph)
        if reason is None:
            return route
        rejections.append(f"{route.algorithm_id}: {reason}")
    if exact is None:
        refusal = f"no applicable algorithm for {problem_type} on {graph.node_count} nodes"
    else:
        refusal = (f"no {'exact' if exact else 'heuristic'} {problem_type} route fits "
                   f"a graph of {graph.node_count} nodes")
    raise NoApplicableAlgorithmError(
        f"{refusal} ({'; '.join(rejections) or 'no route listed'})"
    )
