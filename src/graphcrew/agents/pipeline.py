"""The staged solving flow: prose in, verified solution out.

Six stages, each a separate backend conversation with its own narrow
input:

1. ``narrative``: background prose, no structure.
2. ``classify``: problem family plus the asked question.
3. ``extract_graph``: raw edge-list transcription of the statement.
4. ``normalize``: cleaned edge list, folded into a canonical graph.
5. ``select``: algorithm choice against the catalogue.
6. solve natively, then ``audit`` rounds on the computed answer.

Model replies steer the flow, but every decision a model proposes is
recomputed deterministically (graph merge, algorithm choice) and the
deterministic result wins on disagreement, with a note in the outcome.
Replies that do not carry the required fenced block are retried with the
rejection reason appended, up to the configured attempt budget.

:func:`run_pipeline` issues the calls by data dependency, in two waves,
so an instance waits out two model round trips, not ``5 + n_check``.
Wave 1 (``narrative``, ``classify``, ``extract_graph``) reads only the
problem text.  The merged graph, the selector's choice and the verified
answer follow from its replies; wave 2 (``normalize``, ``select``, every
``audit`` round) compares its replies with those.  A backend that waits
on the network (``io_bound = True``) gets a thread per call in flight;
any other runs each call at once.  Calls and notes are joined in stage
order whatever order the replies came in.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from ..execute import run_algorithm
from ..formats import LooseEdgeList, read_edge_list_loose, serialize_graph
from ..graph import Graph, GraphError, GraphStats, build_graph, graph_stats, merge_edge_triples
from ..knowledge import (
    AlgorithmChoice,
    KnowledgeBase,
    KnowledgeBaseError,
    applicability_reason,
    default_knowledge_base,
    lookup_algorithms,
    select_algorithm,
)
from ..problems import PROBLEM_TYPES
from ..solvers import Solution, SolverInputError, verify_solution
from .backends import BackendError, ChatBackend
from .blocks import extract_block, parse_fields
from .prompts import render_stage


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


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
    objective: str
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
    max_attempts: int = 3
    template_dir: str | None = None

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
    self_check_rounds: int
    calls: tuple[CallRecord, ...]
    notes: tuple[str, ...]


class _RejectReply(Exception):
    """Internal: this reply must be retried, with the given feedback."""


def _ask(
    backend: ChatBackend,
    stage: str,
    slots: dict[str, str],
    config: PipelineConfig,
    calls: list[CallRecord],
    tag: str,
    validate=lambda body: body,
):
    feedback: str | None = None
    last_backend_error: BackendError | None = None
    for attempt in range(1, config.max_attempts + 1):
        system, user = render_stage(stage, slots, config.template_dir)
        if feedback:
            user = (
                f"{user}\n\nYour previous reply was rejected: {feedback}. "
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
            stage, f"backend failed {config.max_attempts} times: {last_backend_error}"
        ) from last_backend_error
    raise ParseFailureError(
        stage, f"no usable reply in {config.max_attempts} attempts (last problem: {feedback})"
    )


def extract_narrative(
    backend: ChatBackend,
    problem_text: str,
    config: PipelineConfig | None = None,
    calls: list[CallRecord] | None = None,
) -> str:
    """Stage 1: background prose for the statement, structure excluded."""
    config = config or PipelineConfig()
    calls = calls if calls is not None else []

    def validate(body: str) -> str:
        if not body.strip():
            raise _RejectReply("the narrative block was empty")
        return body.strip()

    return _ask(backend, "narrative", {"problem": problem_text}, config, calls, "narrative", validate)


def classify_problem(
    backend: ChatBackend,
    problem_text: str,
    config: PipelineConfig | None = None,
    calls: list[CallRecord] | None = None,
) -> ProblemSpec:
    """Stage 2: problem family, question, and endpoints if any."""
    config = config or PipelineConfig()
    calls = calls if calls is not None else []

    def validate(body: str) -> ProblemSpec:
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
            objective=fields.get("objective", ""),
            source=None if source in ("", "none") else source,
            target=None if target in ("", "none") else target,
        )

    return _ask(backend, "classify", {"problem": problem_text}, config, calls, "problem", validate)


def _extract_graph(
    backend: ChatBackend, problem_text: str, config: PipelineConfig, calls: list[CallRecord]
) -> tuple[str, LooseEdgeList]:
    def validate(body: str) -> tuple[str, LooseEdgeList]:
        loose = read_edge_list_loose(body)
        if not loose.triples and not loose.names:
            raise EmptyGraphError("extract_graph", "the statement yielded no nodes or edges")
        return body, loose

    return _ask(backend, "extract_graph", {"problem": problem_text}, config, calls, "graph", validate)


def extract_raw_graph(
    backend: ChatBackend,
    problem_text: str,
    config: PipelineConfig | None = None,
    calls: list[CallRecord] | None = None,
) -> str:
    """Stage 3: the statement's structure as raw edge-list text.

    Raises :class:`EmptyGraphError` when the reply parses but contains no
    nodes or edges at all, which retrying will not fix.
    """
    config = config or PipelineConfig()
    calls = calls if calls is not None else []
    return _extract_graph(backend, problem_text, config, calls)[0]


def _merge(loose: LooseEdgeList) -> Graph:
    """The deterministic merge of a loosely read edge list into one graph."""
    directed = bool(loose.directed)
    triples = merge_edge_triples(loose.triples, directed)
    return build_graph(loose.roster(), directed, bool(loose.weighted), triples)


def _ask_normalize(backend: ChatBackend, raw_graph_text: str, reference: Graph,
                   config: PipelineConfig, calls: list[CallRecord], notes: list[str]) -> None:
    def validate(body: str) -> Graph:
        proposal = read_edge_list_loose(body)
        if not proposal.triples and not proposal.names:
            raise _RejectReply("the cleaned list contained no nodes or edges")
        try:
            return _merge(proposal)
        except GraphError as exc:
            raise _RejectReply(f"the cleaned list was not a valid edge list ({exc})")

    candidate = _ask(backend, "normalize", {"graph": raw_graph_text}, config, calls, "graph", validate)
    if candidate != reference:
        notes.append(
            "normalize: backend proposal differed from the deterministic merge; "
            "deterministic result kept"
        )


def normalize_graph(
    backend: ChatBackend,
    raw_graph_text: str,
    config: PipelineConfig | None = None,
    calls: list[CallRecord] | None = None,
    notes: list[str] | None = None,
) -> Graph:
    """Stage 4: canonical graph from raw edge-list text.

    The backend proposes a cleaned list, but the graph returned is always
    the deterministic merge of the raw text: duplicate statements fold,
    conflicting weights raise
    :class:`~graphcrew.graph.ConflictingWeightsError`, and a differing
    backend proposal is recorded in ``notes`` and overridden.
    """
    config = config or PipelineConfig()
    calls = calls if calls is not None else []
    notes = notes if notes is not None else []
    raw = read_edge_list_loose(raw_graph_text)
    if not raw.triples and not raw.names:
        raise EmptyGraphError("normalize", "raw graph text contains no nodes or edges")
    reference = _merge(raw)
    _ask_normalize(backend, raw_graph_text, reference, config, calls, notes)
    return reference


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


def _select(kb: KnowledgeBase, problem_type: str, graph: Graph) -> tuple[GraphStats, AlgorithmChoice]:
    """The selector's choice for a graph, with the stats it was made from."""
    stats = graph_stats(graph)
    choice = select_algorithm(kb, problem_type, stats, weighted=graph.weighted, directed=graph.directed)
    return stats, choice


def _ask_select(backend: ChatBackend, problem_type: str, graph: Graph, stats: GraphStats,
                choice: AlgorithmChoice, config: PipelineConfig, calls: list[CallRecord],
                notes: list[str]) -> None:
    def validate(body: str) -> str:
        fields = parse_fields(body)
        if not fields.get("algorithm"):
            raise _RejectReply("the block is missing an algorithm line")
        return fields["algorithm"]

    slots = {"problem_type": problem_type, "stats": _stats_text(graph, stats),
             "catalogue": _catalogue_text(config.knowledge_base(), problem_type)}
    proposed = _ask(backend, "select", slots, config, calls, "choice", validate)
    if proposed != choice.record.algorithm_id:
        notes.append(
            f"select: backend proposed {proposed!r}, selector chose "
            f"{choice.record.algorithm_id!r}; selector wins"
        )


def choose_algorithm(
    backend: ChatBackend,
    problem_spec: ProblemSpec,
    graph: Graph,
    config: PipelineConfig | None = None,
    calls: list[CallRecord] | None = None,
    notes: list[str] | None = None,
) -> AlgorithmChoice:
    """Stage 5: algorithm choice, deterministic selector authoritative."""
    config = config or PipelineConfig()
    calls = calls if calls is not None else []
    notes = notes if notes is not None else []
    stats, choice = _select(config.knowledge_base(), problem_spec.problem_type, graph)
    _ask_select(backend, problem_spec.problem_type, graph, stats, choice, config, calls, notes)
    return choice


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
    stats: GraphStats,
    problem_spec: ProblemSpec,
    kb: KnowledgeBase,
    notes: list[str],
) -> Solution:
    """The chosen route's answer, or the next applicable route's; always verified."""
    try:
        solution = run_algorithm(
            choice, graph, source=problem_spec.source, target=problem_spec.target
        )
    except SolverInputError as exc:
        raise SolverError(
            "solve",
            f"{choice.record.algorithm_id} rejected the graph ({exc}); "
            f"choice rationale was: {choice.rationale}",
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
    notes.append(
        f"solve: {choice.record.algorithm_id} answer failed verification "
        f"({'; '.join(report.violations)}); trying the next applicable route"
    )
    for record in lookup_algorithms(kb, problem_spec.problem_type):
        if record.algorithm_id == choice.record.algorithm_id:
            continue
        if applicability_reason(
            record, stats, weighted=graph.weighted, directed=graph.directed
        ):
            continue
        retry_choice = AlgorithmChoice(
            record=record,
            bound_parameters={name: p.default for name, p in record.parameters.items()},
            rationale=f"fallback after {choice.record.algorithm_id} failed verification",
        )
        solution = run_algorithm(
            retry_choice, graph, source=problem_spec.source, target=problem_spec.target
        )
        report = verify_solution(
            problem_spec.problem_type,
            graph,
            solution,
            source=problem_spec.source,
            target=problem_spec.target,
        )
        if report.valid:
            return solution
    raise VerificationFailedError(
        "solve", "no applicable algorithm produced a verifiable answer"
    )


def _audit_verdict(body: str) -> str:
    verdict = parse_fields(body).get("verdict", "")
    if verdict not in ("pass", "fail"):
        raise _RejectReply("the verdict line must say pass or fail")
    return verdict


def _audit(backend: ChatBackend, slots: dict[str, str], config: PipelineConfig,
           calls: list[CallRecord], notes: list[str]) -> str:
    """One advisory audit round; the mechanical verifier is authoritative."""
    verdict = _ask(backend, "audit", slots, config, calls, "verdict", _audit_verdict)
    if verdict == "fail":
        notes.append(
            "audit: backend voted fail; mechanical verification is authoritative "
            f"and reported: {slots['report']}"
        )
    return verdict


_STAGE_WRAP = (
    (GraphError, "normalize"),
    (KnowledgeBaseError, "select"),
    (SolverInputError, "solve"),
)


@dataclass
class _Stage:
    """One stage's (or audit round's) own trail, and its outcome once issued."""

    calls: list[CallRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    future: Future | None = None


class _Inline(Executor):
    """Runs each submitted call at once, on the caller's thread."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _settle(stages: list[_Stage]) -> None:
    """Wait for every stage issued, then raise the earliest stage's error as a
    :class:`PipelineError` carrying every call made, in stage order, as ``partial_calls``."""
    errors = [stage.future.exception() for stage in stages if stage.future is not None]
    error = next((error for error in errors if error is not None), None)
    if error is None:
        return
    calls = tuple(call for stage in stages for call in stage.calls)
    if isinstance(error, PipelineError):
        error.partial_calls = calls
        raise error
    if isinstance(error, (GraphError, KnowledgeBaseError, SolverInputError, BackendError)):
        name = next((name for kind, name in _STAGE_WRAP if isinstance(error, kind)), "pipeline")
        wrapped = PipelineError(name, str(error))
        wrapped.partial_calls = calls
        raise wrapped from error
    raise error


def run_pipeline(
    backend: ChatBackend, problem_text: str, config: PipelineConfig | None = None
) -> SolveOutcome:
    """Run all stages on one problem statement, issuing calls in two waves.

    When a stage fails, the calls in flight are waited for and the
    earliest stage's error is raised (see :func:`_settle`).
    """
    config = config or PipelineConfig()
    kb = config.knowledge_base()
    # in stage order: the order calls and notes are joined in
    stages = [_Stage() for _ in range(6 + config.n_check)]
    narrative, classify, extract, normalize, select, solve, *audits = stages
    io_bound = getattr(backend, "io_bound", False)
    with ThreadPoolExecutor(3 + config.n_check) if io_bound else _Inline() as executor:
        for stage, ask in zip(stages, (extract_narrative, classify_problem, _extract_graph)):
            stage.future = executor.submit(ask, backend, problem_text, config, stage.calls)
        _settle(stages)
        problem_spec = classify.future.result()
        raw_text, raw = extract.future.result()
        problem_type = problem_spec.problem_type
        step = normalize  # the stage a deterministic failure belongs to
        try:
            graph = _merge(raw)
            normalize.future = executor.submit(
                _ask_normalize, backend, raw_text, graph, config, normalize.calls, normalize.notes
            )
            step = select
            stats, choice = _select(kb, problem_type, graph)
            select.future = executor.submit(_ask_select, backend, problem_type, graph, stats,
                                            choice, config, select.calls, select.notes)
            step = solve
            solution = _solve_with_fallback(choice, graph, stats, problem_spec, kb, solve.notes)
            explanation = _explain(solution, graph, problem_type)
            slots = {"problem_type": problem_type, "graph": serialize_graph(graph),
                     "solution": explanation, "report": "valid"}
            for audit in audits:
                audit.future = executor.submit(_audit, backend, slots, config, audit.calls,
                                               audit.notes)
        except Exception as exc:  # raised by _settle once the calls in flight are back
            step.future = Future()
            step.future.set_exception(exc)
        _settle(stages)
    return SolveOutcome(
        solution=solution,
        explanation=explanation,
        problem_spec=problem_spec,
        graph=graph,
        choice=choice,
        audit_verdicts=tuple(audit.future.result() for audit in audits),
        self_check_rounds=config.n_check,
        calls=tuple(call for stage in stages for call in stage.calls),
        notes=tuple(note for stage in stages for note in stage.notes),
    )
