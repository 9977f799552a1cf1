"""The staged solving flow: prose in, verified solution out.

Five stages, each a separate backend conversation with its own narrow
input:

1. ``classify``: problem family plus the asked question.
2. ``extract_graph``: raw edge-list transcription of the statement.
3. ``normalize``: cleaned edge list, compared with the merged graph.
4. ``select``: algorithm choice, compared with the catalogue's selector.
5. solve natively, then ``audit`` rounds on the computed answer.

Each model stage is one row (:class:`_Row`): the stage name, its prompt
slots, its reply validator and, for the stages that only compare, the
function that turns the reply into an override note.  One ask loop
(:func:`_ask`) runs every row.  A reply that does not carry the stage's
fenced block (``TAGS`` in :mod:`.prompts`), or that its validator
rejects, is retried with the rejection reason appended, up to
``MAX_ATTEMPTS`` attempts.

:func:`run_pipeline` runs the rows in two waves, so an instance waits
out two model round trips, not ``4 + n_check``.  Wave 1 (``classify``,
``extract_graph``) reads only the problem text.  From its replies the
code merges the graph, selects the algorithm and solves and verifies
the answer; no model reply can change these decisions.  Wave 2
(``normalize``, ``select``, every ``audit`` round) goes out only once
all three steps have succeeded, and its replies can only add notes.  A
backend that waits on the network (``io_bound = True``) gets a thread
per row of a wave; any other runs the rows one after another.  Calls
and notes are joined in stage order whatever order the replies came in.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ..execute import run_algorithm
from ..formats import LooseEdgeList, read_edge_list_loose, serialize_graph
from ..graph import Graph, GraphError, GraphStats, build_graph, graph_stats, merge_edge_triples
from ..knowledge import (
    AlgorithmChoice,
    KnowledgeBase,
    KnowledgeBaseError,
    default_knowledge_base,
    lookup_algorithms,
    select_algorithm,
)
from ..problems import PROBLEM_TYPES
from ..solvers import Solution, SolverInputError, verify_solution
from .backends import BackendError, ChatBackend
from .blocks import extract_block, parse_fields
from .prompts import TAGS, render_stage

MAX_ATTEMPTS = 3


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.partial_calls = ()  # the calls made before the failure, in stage order


class ParseFailureError(PipelineError):
    pass


class UnsupportedProblemTypeError(PipelineError):
    pass


class EmptyGraphError(PipelineError):
    pass


class SolverError(PipelineError):
    pass


class VerificationFailedError(PipelineError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    problem_type: str
    source: str | None
    target: str | None


@dataclass(frozen=True)
class CallRecord:
    stage: str
    attempt: int
    system_prompt: str
    user_prompt: str
    response_text: str
    input_tokens: int
    output_tokens: int


@dataclass
class PipelineConfig:
    kb: KnowledgeBase | None = None
    n_check: int = 2

    def knowledge_base(self) -> KnowledgeBase:
        return self.kb if self.kb is not None else default_knowledge_base()


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


class _RejectReply(Exception):
    """Internal: this reply must be retried, with the given feedback."""


def _ask(backend: ChatBackend, stage: str, slots: dict[str, str],
         calls: list[CallRecord], validate: Callable[[str], Any]):
    """The validated body of the stage's fenced block; every reply is kept in ``calls``."""
    tag = TAGS[stage]
    system, prompt = render_stage(stage, slots)
    feedback: str | None = None
    last_backend_error: BackendError | None = None
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
            last_backend_error = exc
            continue
        calls.append(
            CallRecord(
                stage=stage,
                attempt=attempt,
                system_prompt=system,
                user_prompt=user,
                response_text=completion.text,
                input_tokens=completion.usage.input_tokens,
                output_tokens=completion.usage.output_tokens,
            )
        )
        body = extract_block(completion.text, tag)
        if body is None:
            feedback = f"the reply did not end with a ```result:{tag}``` fenced block"
            continue
        try:
            return validate(body)
        except _RejectReply as rej:
            feedback = str(rej)
    if last_backend_error is not None and feedback is None:
        raise PipelineError(
            stage, f"backend failed {MAX_ATTEMPTS} times: {last_backend_error}"
        ) from last_backend_error
    raise ParseFailureError(
        stage, f"no usable reply in {MAX_ATTEMPTS} attempts (last problem: {feedback})"
    )


# -- reply validators, one per stage ------------------------------------


def _problem_spec(body: str) -> ProblemSpec:
    fields = parse_fields(body)
    if "problem_type" not in fields:
        raise _RejectReply("the block is missing a problem_type line")
    problem_type = fields["problem_type"]
    if problem_type not in PROBLEM_TYPES:
        raise UnsupportedProblemTypeError(
            "classify",
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


def _raw_graph(body: str) -> tuple[str, LooseEdgeList]:
    """The raw edge list as text and as read; an empty one is not retried."""
    loose = read_edge_list_loose(body)
    if not loose.triples and not loose.names:
        raise EmptyGraphError("extract_graph", "the statement yielded no nodes or edges")
    return body, loose


def _cleaned_graph(body: str) -> Graph:
    proposal = read_edge_list_loose(body)
    if not proposal.triples and not proposal.names:
        raise _RejectReply("the cleaned list contained no nodes or edges")
    try:
        return _merge(proposal)
    except GraphError as exc:
        raise _RejectReply(f"the cleaned list was not a valid edge list ({exc})")


def _algorithm_id(body: str) -> str:
    fields = parse_fields(body)
    if not fields.get("algorithm"):
        raise _RejectReply("the block is missing an algorithm line")
    return fields["algorithm"]


def _verdict(body: str) -> str:
    verdict = parse_fields(body).get("verdict", "")
    if verdict not in ("pass", "fail"):
        raise _RejectReply("the verdict line must say pass or fail")
    return verdict


# -- the deterministic steps between the waves --------------------------


def _merge(loose: LooseEdgeList) -> Graph:
    """The deterministic merge of a loosely read edge list into one graph."""
    directed = bool(loose.directed)
    triples = merge_edge_triples(loose.triples, directed)
    return build_graph(loose.roster(), directed, bool(loose.weighted), triples)


def _catalogue_text(kb: KnowledgeBase, problem_type: str) -> str:
    lines = []
    for record in lookup_algorithms(kb, problem_type):
        app = record.applicability
        needs = []
        if app.requires_complete:
            needs.append("complete graphs only")
        if app.requires_weighted:
            needs.append("weighted graphs only")
        if app.directedness != "any":
            needs.append(f"{app.directedness} graphs only")
        needs.append(f"up to {app.max_nodes} nodes")
        lines.append(
            f"- {record.algorithm_id} ({'exact' if record.exact else 'heuristic'}, "
            f"{record.complexity}; {', '.join(needs)}): {record.description}"
        )
    return "\n".join(lines)


def _stats_text(graph: Graph, stats: GraphStats) -> str:
    return (
        f"{stats.node_count} nodes, {stats.edge_count} edges, "
        f"density {stats.density}, "
        f"{'connected' if stats.is_connected else 'not connected'}, "
        f"{'complete' if stats.is_complete else 'not complete'}, "
        f"{'weighted' if graph.weighted else 'unweighted'}, "
        f"{'directed' if graph.directed else 'undirected'}"
    )


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


def _solve_with_fallback(
    choice: AlgorithmChoice,
    graph: Graph,
    problem_spec: ProblemSpec,
    notes: list[str],
) -> Solution:
    """The chosen route's answer, or the next applicable route's; always verified."""
    chosen = choice.record.algorithm_id
    for route in (choice.record, *choice.fallbacks):
        try:
            solution = run_algorithm(
                route, graph, source=problem_spec.source, target=problem_spec.target
            )
        except SolverInputError as exc:
            if route is not choice.record:
                raise
            raise SolverError(
                "solve",
                f"{chosen} rejected the graph ({exc}); choice rationale was: {choice.rationale}",
            ) from exc
        report = verify_solution(
            problem_spec.problem_type,
            graph,
            solution,
            source=problem_spec.source,
            target=problem_spec.target,
        )
        if report.valid:
            return solution
        if route is choice.record:
            notes.append(
                f"solve: {chosen} answer failed verification "
                f"({'; '.join(report.violations)}); trying the next applicable route"
            )
    raise VerificationFailedError(
        "solve", "no applicable algorithm produced a verifiable answer"
    )


# -- rows and waves ------------------------------------------------------


@dataclass
class _Row:
    """One model stage (or audit round): what to ask, and its own trail."""

    stage: str
    slots: dict[str, str]
    validate: Callable[[str], Any]
    note: Callable[[Any], str | None] | None = None  # the override note a reply earns
    calls: list[CallRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    value: Any = None
    error: Exception | None = None


def _run(backend: ChatBackend, row: _Row) -> None:
    """Ask the row's question, keeping its value and note or its error; never raises."""
    try:
        row.value = _ask(backend, row.stage, row.slots, row.calls, row.validate)
    except Exception as exc:
        row.error = exc
        return
    note = row.note(row.value) if row.note is not None else None
    if note:
        row.notes.append(note)


def _calls(rows: list[_Row]) -> tuple[CallRecord, ...]:
    return tuple(call for row in rows for call in row.calls)


def _wave(pool: ThreadPoolExecutor | None, backend: ChatBackend, rows: list[_Row],
          trail: list[_Row]) -> None:
    """Run every row of a wave, on the pool's threads if there is a pool, then
    raise the earliest row's error; a :class:`PipelineError` carries the
    calls of every row in ``trail`` as ``partial_calls``."""
    list((map if pool is None else pool.map)(partial(_run, backend), rows))
    error = next((row.error for row in rows if row.error is not None), None)
    if error is not None:
        if isinstance(error, PipelineError):
            error.partial_calls = _calls(trail)
        raise error


@contextmanager
def _step(stage: str, trail: list[_Row]):
    """A deterministic step: its failure is raised at once as a
    :class:`PipelineError` named after ``stage``, carrying the calls of
    every row in ``trail``; other exceptions pass through unchanged."""
    try:
        yield
    except PipelineError as exc:
        exc.partial_calls = _calls(trail)
        raise
    except (GraphError, KnowledgeBaseError, SolverInputError) as exc:
        error = PipelineError(stage, str(exc))
        error.partial_calls = _calls(trail)
        raise error from exc


def run_pipeline(
    backend: ChatBackend, problem_text: str, config: PipelineConfig | None = None
) -> SolveOutcome:
    """Run all stages on one problem statement, issuing calls in two waves.

    A failed row is raised once the rest of its wave is back, as the
    earliest stage's error (see :func:`_wave`); a failed deterministic
    step is raised at once, and no wave-2 call is made.
    """
    config = config or PipelineConfig()
    kb = config.knowledge_base()
    text = {"problem": problem_text}
    wave1 = [_Row("classify", text, _problem_spec), _Row("extract_graph", text, _raw_graph)]
    io_bound = getattr(backend, "io_bound", False)
    with ThreadPoolExecutor(2 + config.n_check) if io_bound else nullcontext() as pool:
        _wave(pool, backend, wave1, wave1)
        spec, (raw_text, raw) = wave1[0].value, wave1[1].value
        problem_type = spec.problem_type
        solve_notes: list[str] = []
        with _step("normalize", wave1):
            graph = _merge(raw)
        with _step("select", wave1):
            stats = graph_stats(graph)
            choice = select_algorithm(
                kb, problem_type, stats, weighted=graph.weighted, directed=graph.directed
            )
        with _step("solve", wave1):
            solution = _solve_with_fallback(choice, graph, spec, solve_notes)
        explanation = _explain(solution, graph, problem_type)
        chosen = choice.record.algorithm_id
        audit = {"problem_type": problem_type, "graph": serialize_graph(graph),
                 "solution": explanation, "report": "valid"}
        normalize = _Row(
            "normalize", {"graph": raw_text}, _cleaned_graph,
            lambda proposal: None if proposal == graph else (
                "normalize: backend proposal differed from the deterministic merge; "
                "deterministic result kept"),
        )
        select = _Row(
            "select",
            {"problem_type": problem_type, "stats": _stats_text(graph, stats),
             "catalogue": _catalogue_text(kb, problem_type)},
            _algorithm_id,
            lambda proposed: None if proposed == chosen else (
                f"select: backend proposed {proposed!r}, selector chose {chosen!r}; "
                "selector wins"),
        )
        audit_note = ("audit: backend voted fail; mechanical verification is authoritative "
                      f"and reported: {audit['report']}")
        audits = [
            _Row("audit", audit, _verdict, lambda verdict: None if verdict == "pass" else audit_note)
            for _ in range(config.n_check)
        ]
        wave2 = [normalize, select, *audits]
        _wave(pool, backend, wave2, wave1 + wave2)
    return SolveOutcome(
        solution=solution,
        explanation=explanation,
        problem_spec=spec,
        graph=graph,
        choice=choice,
        audit_verdicts=tuple(row.value for row in audits),
        calls=_calls(wave1 + wave2),
        notes=(*normalize.notes, *select.notes, *solve_notes,
               *(note for row in audits for note in row.notes)),
    )
