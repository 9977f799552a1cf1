"""The staged solving flow: prose in, verified solution out.

Two model stages, each a separate backend conversation with its own
narrow input:

1. ``extract_graph``: the problem family and route endpoints, plus an
   edge-list transcription of the statement, in one reply.
2. ``audit``: rounds that vote on the answer which the catalogue's
   selector, the native solver and :func:`verify_solution` produced
   from the extracted graph.

Each model call is one row (:class:`_Row`): the stage name, its prompt
slots and its reply validator.  One ask loop (:func:`_ask`) runs every
row.  A reply that lacks one of the stage's fenced blocks (``TAGS`` in
:mod:`.prompts`), or that its validator rejects, is retried with a
reason that names the block, up to ``MAX_ATTEMPTS`` attempts.  The edge
list is read by :func:`~graphcrew.formats.parse_graph`, which also
merges an edge stated twice; an unreadable line, a conflicting weight,
an endpoint outside the roster, an empty list or a route endpoint the
list does not hold is retried with the reader's own message.

:func:`run_pipeline` runs the rows in two waves, so an instance waits
out two model round trips, not ``1 + n_check``.  Wave 1 is the one
``extract_graph`` call, the only one that reads the problem text.  From
its reply the code selects one route, solves and verifies its answer;
no model reply can change these decisions, and an answer that fails
verification fails the instance as ``solve``.  Wave 2 (the
``n_check`` audit rounds) goes out only once both steps have succeeded,
and its verdicts can only add notes.  A backend that waits on the
network (``io_bound = True``) gets a thread per row of a wave that has
more than one; any other runs the rows one after another.  Calls and
notes are joined in stage order whatever order the replies came in.
Every failure of an instance is one :class:`PipelineError`, named after
the failing stage, whose ``partial_calls`` lists every call made.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple

from ..execute import run_algorithm
from ..formats import parse_graph, serialize_graph
from ..graph import Graph, GraphError
from ..knowledge import (
    AlgorithmChoice,
    KnowledgeBase,
    KnowledgeBaseError,
    default_knowledge_base,
    select_algorithm,
)
from ..problems import PROBLEM_TYPES
from ..solvers import Solution, SolverInputError, verify_solution
from .backends import BackendError, ChatBackend
from .blocks import RejectReply, extract_block, parse_fields
from .prompts import TAGS, render_stage

MAX_ATTEMPTS = 3


class PipelineError(RuntimeError):
    """The failure of one instance, named after the stage that failed."""

    # the calls made before the failure, in stage order; set by run_pipeline
    partial_calls: tuple[CallRecord, ...] = ()

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class ProblemSpec:
    problem_type: str
    source: str | None
    target: str | None


class CallRecord(NamedTuple):
    """One model call, as the results file's usage row records it."""

    stage: str
    attempt: int
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class SolveOutcome:
    solution: Solution
    explanation: str
    problem_spec: ProblemSpec
    graph: Graph
    choice: AlgorithmChoice
    audit_verdicts: tuple[str, ...]
    calls: tuple[CallRecord, ...]
    notes: tuple[str, ...]


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
            completion = backend.complete(system, user, {"temperature": 0.0})
        except BackendError as exc:
            backend_error = exc
            continue
        backend_error = None
        usage = completion.usage
        calls.append(CallRecord(stage, attempt, usage.input_tokens, usage.output_tokens))
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


def _problem_spec(body: str) -> ProblemSpec:
    fields = parse_fields(body)
    if "problem_type" not in fields:
        raise RejectReply("the problem block is missing a problem_type line")
    problem_type = fields["problem_type"]
    if problem_type not in PROBLEM_TYPES:
        raise PipelineError(
            "extract_graph",
            f"problem type {problem_type!r} is not supported "
            f"(known: {', '.join(PROBLEM_TYPES)})",
        )
    source = fields.get("source", "none")
    target = fields.get("target", "none")
    return ProblemSpec(
        problem_type=problem_type,
        source=None if source in ("", "none") else source,
        target=None if target in ("", "none") else target,
    )


def _extract(problem_body: str, graph_body: str) -> tuple[ProblemSpec, Graph]:
    """The problem block, and the edge list as :func:`parse_graph` reads
    and merges it; a route endpoint the problem block names must be a
    node of the edge list."""
    spec = _problem_spec(problem_body)
    try:
        graph = parse_graph(graph_body)
    except GraphError as exc:
        raise RejectReply(f"the edge list could not be read ({exc})") from None
    if not graph.node_count:
        raise RejectReply("the edge list contained no nodes or edges")
    for role, name in (("source", spec.source), ("target", spec.target)):
        if name is not None and name not in graph.node_names:
            raise RejectReply(f"the problem block names {role} {name!r}, "
                              "which is not a node of the edge list")
    return spec, graph


def _verdict(body: str) -> str:
    verdict = parse_fields(body).get("verdict", "")
    if verdict not in ("pass", "fail"):
        raise RejectReply("the verdict line must say pass or fail")
    return verdict


# -- the deterministic steps between the waves --------------------------


def _explain(solution: Solution, graph: Graph, problem_type: str) -> str:
    n, m = graph.node_count, graph.edge_count
    head = f"Algorithm {solution.algorithm_id} ran on {n} nodes and {m} edges."
    if solution.kind == "tour":
        route = " -> ".join(solution.payload) + f" -> {solution.payload[0]}"
        return f"{head} Best found tour: {route}, total cost {solution.objective}."
    if solution.kind == "coloring":
        assignment = ", ".join(f"{name}={c}" for name, c in solution.payload.items())
        return f"{head} Coloring with {solution.objective} colors: {assignment}."
    if solution.kind == "node_set":
        listing = ", ".join(solution.payload) if solution.payload else "(empty)"
        return f"{head} Cover of size {solution.objective}: {listing}."
    if solution.kind == "path":
        route = " -> ".join(solution.payload)
        return f"{head} Route {route}, total cost {solution.objective}."
    answer = "yes, a cycle exists" if solution.payload else "no cycle exists"
    return f"{head} Answer: {answer}."


def _solve(choice: AlgorithmChoice, graph: Graph, spec: ProblemSpec) -> Solution:
    """The chosen route's answer, verified; an answer that fails
    verification fails the instance, with no other route in its place."""
    chosen = choice.record.algorithm_id
    try:
        solution = run_algorithm(choice.record, graph, source=spec.source, target=spec.target)
    except SolverInputError as exc:
        raise PipelineError(
            "solve",
            f"{chosen} rejected the graph ({exc}); choice rationale was: {choice.rationale}",
        ) from exc
    report = verify_solution(spec.problem_type, graph, solution,
                             source=spec.source, target=spec.target)
    if not report.valid:
        raise PipelineError(
            "solve", f"{chosen} answer failed verification ({'; '.join(report.violations)})"
        )
    return solution


# -- rows and waves ------------------------------------------------------


@dataclass
class _Row:
    """One model call to make (an extract or an audit round) and its own trail."""

    stage: str
    slots: dict[str, str]
    validate: Callable[..., Any]  # takes the bodies of the stage's blocks
    calls: list[CallRecord] = field(default_factory=list)
    value: Any = None
    error: Exception | None = None


def _run(backend: ChatBackend, row: _Row) -> None:
    """Ask the row's question, keeping its value or its error; never raises."""
    try:
        row.value = _ask(backend, row.stage, row.slots, row.calls, row.validate)
    except Exception as exc:
        row.error = exc


def _calls(rows: list[_Row]) -> tuple[CallRecord, ...]:
    return tuple(call for row in rows for call in row.calls)


def _wave(backend: ChatBackend, rows: list[_Row]) -> None:
    """Run every row of a wave, each on its own thread when the backend is
    io-bound and the wave has more than one row, then raise the earliest
    row's error."""
    run = partial(_run, backend)
    if len(rows) > 1 and getattr(backend, "io_bound", False):
        with ThreadPoolExecutor(len(rows)) as pool:
            list(pool.map(run, rows))
    else:
        for row in rows:
            run(row)
    error = next((row.error for row in rows if row.error is not None), None)
    if error is not None:
        raise error


@contextmanager
def _step(stage: str):
    """A deterministic step: its failure is raised as a
    :class:`PipelineError` named after ``stage``; other exceptions pass
    through unchanged."""
    try:
        yield
    except (GraphError, KnowledgeBaseError, SolverInputError) as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(
    backend: ChatBackend, problem_text: str, *, kb: KnowledgeBase | None = None,
    n_check: int = 2,
) -> SolveOutcome:
    """Run all stages on one problem statement, issuing calls in two waves.

    ``kb`` is the catalogue to select from (default: the bundled one) and
    ``n_check`` the number of audit rounds, wave 2; at 0 the extract call
    is the only call.  A failed row is raised once
    the rest of its wave is back, as the earliest stage's error (see
    :func:`_wave`); a failed deterministic step is raised at once, and no
    wave-2 call is made.  Either way the :class:`PipelineError` carries
    every call made as ``partial_calls``.
    """
    kb = kb or default_knowledge_base()
    extract = _Row("extract_graph", {"problem": problem_text}, _extract)
    rows = [extract]  # every row asked so far, in stage order
    try:
        _wave(backend, [extract])
        spec, graph = extract.value
        problem_type = spec.problem_type
        with _step("select"):
            choice = select_algorithm(kb, problem_type, graph)
        with _step("solve"):
            solution = _solve(choice, graph, spec)
        explanation = _explain(solution, graph, problem_type)
        audit = {"problem_type": problem_type, "graph": serialize_graph(graph),
                 "solution": explanation, "report": "valid"}
        audits = [_Row("audit", audit, _verdict) for _ in range(n_check)]
        rows += audits
        _wave(backend, audits)
    except PipelineError as exc:
        exc.partial_calls = _calls(rows)
        raise
    verdicts = tuple(row.value for row in audits)
    notes = ["audit: backend voted fail; mechanical verification is authoritative "
             f"and reported: {audit['report']}" for verdict in verdicts if verdict == "fail"]
    return SolveOutcome(
        solution=solution,
        explanation=explanation,
        problem_spec=spec,
        graph=graph,
        choice=choice,
        audit_verdicts=verdicts,
        calls=_calls(rows),
        notes=tuple(notes),
    )
