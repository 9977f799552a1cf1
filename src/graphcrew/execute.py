"""Bridge from a route of :data:`~graphcrew.knowledge.ROUTES` to its solver call.

Node limits live only in the route table.  The selector picks a route
only for a graph within its limit, and a route reaches this bridge only
once judged applicable to its graph, so the solvers take no limit of
their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import Graph
from .problems import SHORTEST_PATH
from .solvers import Solution

if TYPE_CHECKING:
    from .knowledge import Route


def run_algorithm(
    record: Route,
    graph: Graph,
    *,
    source: str | None = None,
    target: str | None = None,
) -> Solution:
    """Run the solver a route points at.

    Shortest-path routes additionally take ``source`` and ``target``.
    """
    if record.problem_type == SHORTEST_PATH:
        return record.solve(graph, source, target)
    return record.solve(graph)
