"""Bridge from a route of :data:`~graphcrew.knowledge.ROUTES` to its solver call.

Node limits live only in the route table.  The selector picks a route
only for a graph within its limit, and a route reaches this bridge only
once judged applicable to its graph, so the solvers take no limit of
their own.  A solver returns only its canonical payload, and
:func:`run_algorithm` is the one place it becomes a :class:`Solution`,
so no solver answer, stored truth included, goes unchecked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import Graph
from .problems import KIND_BY_PROBLEM, SHORTEST_PATH
from .solvers import Solution, measure

if TYPE_CHECKING:
    from .knowledge import Route


class AnswerCheckError(ValueError):
    """A solver's answer failed its check: a defect in the program, not in
    what it was given."""


def run_algorithm(
    record: Route,
    graph: Graph,
    *,
    source: str | None = None,
    target: str | None = None,
) -> Solution:
    """Run the solver a route points at; the row names its answer and
    states its exactness, and :func:`measure` checks it and gives its
    objective.  Shortest-path routes additionally take ``source`` and
    ``target``.  Raises :class:`AnswerCheckError` naming the route when
    the answer fails the check, and :class:`~graphcrew.solvers.NoPathError`
    when no path joins the endpoints.
    """
    args = (graph, source, target) if record.problem_type == SHORTEST_PATH else (graph,)
    payload = record.solve(*args)
    violations, objective = measure(record.problem_type, graph, payload, source, target)
    if violations:
        raise AnswerCheckError(f"{record.algorithm_id} answer failed verification "
                               f"({'; '.join(violations)})")
    return Solution(KIND_BY_PROBLEM[record.problem_type], payload, objective,
                    record.algorithm_id, record.exact)
