"""The staged solving flow: prose in, verified solution out.

One model stage, ``extract_graph``, reads the problem statement and
replies with the problem family and route endpoints, plus an edge-list
transcription of the statement, in one reply.  Everything after it is
deterministic: the route table's selector chooses one route and
:func:`~graphcrew.execute.run_algorithm` runs its native solver, then
stamps and checks the answer; no model reply can change these
decisions, and a solver that finds no answer (no path between the
endpoints) or an answer that fails verification fails the instance as
``solve``.

One ask loop (:func:`_ask`) makes every model call, here and in the
direct baseline.  A reply that lacks one of the stage's fenced blocks
(``TAGS`` in :mod:`.prompts`), or that its validator rejects, is
retried with a reason that names the block, up to ``MAX_ATTEMPTS``
attempts.  The problem block's family is read case-insensitively, with
spaces and hyphens read as ``_`` (``Graph coloring`` is
``graph_coloring``); a family outside ``PROBLEM_TYPES`` is retried with
the allowed list.  The edge list is read by
:func:`~graphcrew.formats.parse_graph`, which also merges an edge stated
twice; an unreadable line, a conflicting weight, an endpoint outside
the roster, a graph declared one-way (every connection a statement
gives runs both ways), an empty list, a ``shortest_path`` block without
both route endpoints, a route endpoint the list does not hold or a
graph that no route fits (a tour's graph with a pair left out, or of
fewer than 3 nodes, say) is retried with the reader's or the selector's
own message.  Every failure of an instance is a
:class:`PipelineError` named after the failing stage, which
:func:`run_pipeline` returns as data in its :class:`Outcome`, beside
every call made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..execute import run_algorithm
from ..formats import parse_graph
from ..graph import Graph, GraphError
from ..knowledge import NoApplicableAlgorithmError, Route, select_algorithm
from ..problems import PROBLEM_TYPES, SHORTEST_PATH, ExtractedProblem
from ..solvers import Solution
from .backends import BackendError, ChatBackend
from .blocks import RejectReply, extract_block, parse_fields
from .prompts import TAGS, render_stage

MAX_ATTEMPTS = 3


class PipelineError(RuntimeError):
    """The failure of one instance, named after the stage that failed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


class CallRecord(NamedTuple):
    """One model call, as the results file's usage row records it."""

    stage: str
    attempt: int
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class Outcome:
    """What answering one instance came to: a solution, or a failure
    named after its stage, and every model call made, in order.  A
    pipeline outcome also keeps what the extract call read and the
    route chosen for it, once they are known."""

    calls: tuple[CallRecord, ...]
    solution: Solution | None = None
    failure: str | None = None
    stage: str | None = None
    extracted: ExtractedProblem | None = None
    route: Route | None = None


def _ask(backend: ChatBackend, stage: str, slots: dict[str, str],
         calls: list[CallRecord], validate: Callable[..., Any]):
    """``validate`` applied to the bodies of the stage's fenced blocks, in
    ``TAGS`` order; every reply is kept in ``calls``."""
    tags = TAGS[stage]
    system, prompt = render_stage(stage, slots)
    feedback: str | None = None  # why the last reply was rejected
    backend_error: BackendError | None = None  # what the last attempt raised, if it raised
    for attempt in range(1, MAX_ATTEMPTS + 1):
        user = prompt
        if feedback:
            user = (
                f"{prompt}\n\nYour previous reply was rejected: {feedback}. "
                "Reply again, following the required format exactly."
            )
        try:
            completion = backend.complete(system, user)
        except BackendError as exc:
            backend_error = exc
            continue
        backend_error = None
        calls.append(CallRecord(stage, attempt, completion.input_tokens,
                                completion.output_tokens))
        bodies = [extract_block(completion.text, tag) for tag in tags]
        if None in bodies:
            feedback = f"the reply has no ```result:{tags[bodies.index(None)]}``` fenced block"
            continue
        try:
            return validate(*bodies)
        except RejectReply as rej:
            feedback = str(rej)
    if feedback is None:
        raise PipelineError(
            stage, f"backend failed {MAX_ATTEMPTS} times: {backend_error}"
        ) from backend_error
    last = feedback if backend_error is None else f"the backend failed: {backend_error}"
    raise PipelineError(
        stage, f"no usable reply in {MAX_ATTEMPTS} attempts (last problem: {last})"
    ) from backend_error


# -- reply validators --------------------------------------------------


def _problem_type(fields: dict[str, str]) -> str:
    """The problem block's family."""
    if "problem_type" not in fields:
        raise RejectReply("the problem block is missing a problem_type line")
    stated = fields["problem_type"]
    problem_type = stated.lower().replace(" ", "_").replace("-", "_")
    if problem_type not in PROBLEM_TYPES:
        raise RejectReply(f"problem type {stated!r} is not one of {', '.join(PROBLEM_TYPES)}")
    return problem_type


def _endpoint(fields: dict[str, str], role: str, problem_type: str, graph: Graph) -> str | None:
    """The route endpoint the problem block names for ``role``: a node of
    the edge list, or None for an empty value, ``none`` or ``n/a`` in any
    case, or no line at all, unless a node of the list has that name."""
    name = fields.get(role, "")
    if name in graph.node_names:
        return name
    if name.lower() not in ("", "none", "n/a"):
        raise RejectReply(f"the problem block names {role} {name!r}, "
                          "which is not a node of the edge list")
    if problem_type == SHORTEST_PATH:
        raise RejectReply(f"the {SHORTEST_PATH} problem block names no {role}")
    return None


def _extract(problem_body: str, graph_body: str) -> tuple[ExtractedProblem, Route]:
    """The problem block with the edge list as :func:`parse_graph` reads
    and merges it, and the route :func:`select_algorithm` picks for them;
    a graph that no route fits is refused."""
    fields = parse_fields(problem_body)
    problem_type = _problem_type(fields)
    try:
        graph = parse_graph(graph_body)
    except GraphError as exc:
        raise RejectReply(f"the edge list could not be read ({exc})") from None
    if not graph.node_count:
        raise RejectReply("the edge list contained no nodes or edges")
    source, target = (_endpoint(fields, role, problem_type, graph)
                      for role in ("source", "target"))
    try:
        route = select_algorithm(problem_type, graph)
    except NoApplicableAlgorithmError as exc:
        raise RejectReply(f"no route can solve the edge list ({exc})") from None
    return ExtractedProblem(problem_type, graph, source, target), route


# -- the deterministic steps after the extract call ---------------------


def _solve(route: Route, problem: ExtractedProblem) -> Solution:
    """The chosen route's answer, checked by :func:`run_algorithm`.  The
    route table has already judged the graph fit for the route, so the
    solver is not asked to judge it again; no path between the route
    endpoints, or an answer that fails verification, fails the instance
    as ``solve``, with no other route in its place."""
    try:
        return run_algorithm(route, problem.graph, source=problem.source, target=problem.target)
    except ValueError as exc:
        raise PipelineError("solve", str(exc)) from exc


def run_pipeline(backend: ChatBackend, problem_text: str) -> Outcome:
    """Run all stages on one problem statement: one ``extract_graph``
    call, which also selects the route, then solving and verification
    with no model.  A failed stage is returned, not raised."""
    calls: list[CallRecord] = []
    extracted = route = None
    try:
        extracted, route = _ask(backend, "extract_graph", {"problem": problem_text},
                                calls, _extract)
        solution = _solve(route, extracted)
    except PipelineError as exc:
        solution, failure, stage = None, str(exc), exc.stage
    else:
        failure = stage = None
    return Outcome(tuple(calls), solution, failure, stage, extracted, route)
