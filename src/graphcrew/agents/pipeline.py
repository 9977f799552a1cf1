"""The staged solving flow: prose in, verified solution out.

Six stages, each a separate backend conversation with its own narrow
input, run in a fixed order:

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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..execute import run_algorithm
from ..formats import EDGE_LIST, read_edge_list_loose, serialize_graph
from ..graph import Graph, GraphError, build_graph, graph_stats, merge_edge_triples
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

    def validate(body: str) -> str:
        loose = read_edge_list_loose(body)
        if not loose.triples and not loose.names:
            raise EmptyGraphError(
                "extract_graph", "the statement yielded no nodes or edges"
            )
        return body

    return _ask(backend, "extract_graph", {"problem": problem_text}, config, calls, "graph", validate)


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

    loose = read_edge_list_loose(raw_graph_text)
    if not loose.triples and not loose.names:
        raise EmptyGraphError("normalize", "raw graph text contains no nodes or edges")
    directed = bool(loose.directed)
    weighted = bool(loose.weighted)
    merged = merge_edge_triples(loose.triples, directed)
    names = loose.names or sorted({n for u, v, _ in merged for n in (u, v)})
    reference = build_graph(names, directed, weighted, merged)

    def validate(body: str) -> Graph:
        proposal = read_edge_list_loose(body)
        if not proposal.triples and not proposal.names:
            raise _RejectReply("the cleaned list contained no nodes or edges")
        try:
            candidate_names = proposal.names or sorted(
                {n for u, v, _ in proposal.triples for n in (u, v)}
            )
            return build_graph(
                candidate_names,
                bool(proposal.directed),
                bool(proposal.weighted),
                merge_edge_triples(proposal.triples, bool(proposal.directed)),
            )
        except GraphError as exc:
            raise _RejectReply(f"the cleaned list was not a valid edge list ({exc})")

    candidate = _ask(backend, "normalize", {"graph": raw_graph_text}, config, calls, "graph", validate)
    if candidate != reference:
        notes.append(
            "normalize: backend proposal differed from the deterministic merge; "
            "deterministic result kept"
        )
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


def _stats_text(graph: Graph) -> str:
    stats = graph_stats(graph)
    return (
        f"{stats.node_count} nodes, {stats.edge_count} edges, "
        f"density {stats.density}, "
        f"{'connected' if stats.is_connected else 'not connected'}, "
        f"{'complete' if stats.is_complete else 'not complete'}, "
        f"{'weighted' if graph.weighted else 'unweighted'}, "
        f"{'directed' if graph.directed else 'undirected'}"
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
    kb = config.knowledge_base()
    choice = select_algorithm(
        kb,
        problem_spec.problem_type,
        graph_stats(graph),
        weighted=graph.weighted,
        directed=graph.directed,
    )

    def validate(body: str) -> str:
        fields = parse_fields(body)
        if not fields.get("algorithm"):
            raise _RejectReply("the block is missing an algorithm line")
        return fields["algorithm"]

    proposed = _ask(
        backend,
        "select",
        {
            "problem_type": problem_spec.problem_type,
            "stats": _stats_text(graph),
            "catalogue": _catalogue_text(kb, problem_spec.problem_type),
        },
        config,
        calls,
        "choice",
        validate,
    )
    if proposed != choice.record.algorithm_id:
        notes.append(
            f"select: backend proposed {proposed!r}, selector chose "
            f"{choice.record.algorithm_id!r}; selector wins"
        )
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
    problem_spec: ProblemSpec,
    kb: KnowledgeBase,
    notes: list[str],
) -> tuple[Solution, AlgorithmChoice]:
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
        return solution, choice
    notes.append(
        f"solve: {choice.record.algorithm_id} answer failed verification "
        f"({'; '.join(report.violations)}); trying the next applicable route"
    )
    stats = graph_stats(graph)
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
            return solution, retry_choice
    raise VerificationFailedError(
        "solve", "no applicable algorithm produced a verifiable answer"
    )


def execute_and_check(
    backend: ChatBackend,
    choice: AlgorithmChoice,
    graph: Graph,
    problem_spec: ProblemSpec,
    config: PipelineConfig | None = None,
    calls: list[CallRecord] | None = None,
    notes: list[str] | None = None,
) -> tuple[Solution, str, tuple[str, ...]]:
    """Stage 6: run the chosen solver, then audit the answer ``n_check`` times.

    The mechanical verifier is authoritative; audit verdicts are advisory
    and recorded.  Returns (solution, explanation, verdicts).
    """
    config = config or PipelineConfig()
    calls = calls if calls is not None else []
    notes = notes if notes is not None else []
    kb = config.knowledge_base()
    # _solve_with_fallback returns only answers that passed verification.
    solution, _used = _solve_with_fallback(choice, graph, problem_spec, kb, notes)
    explanation = _explain(solution, graph, problem_spec.problem_type)
    report_text = "valid"

    def validate(body: str) -> str:
        fields = parse_fields(body)
        verdict = fields.get("verdict", "")
        if verdict not in ("pass", "fail"):
            raise _RejectReply("the verdict line must say pass or fail")
        return verdict

    verdicts: list[str] = []
    for _ in range(config.n_check):
        verdict = _ask(
            backend,
            "audit",
            {
                "problem_type": problem_spec.problem_type,
                "graph": serialize_graph(graph, EDGE_LIST),
                "solution": explanation,
                "report": report_text,
            },
            config,
            calls,
            "verdict",
            validate,
        )
        verdicts.append(verdict)
        if verdict == "fail":
            notes.append(
                "audit: backend voted fail; mechanical verification is authoritative "
                f"and reported: {report_text}"
            )
    return solution, explanation, tuple(verdicts)


_STAGE_WRAP = (
    (GraphError, "normalize"),
    (KnowledgeBaseError, "select"),
    (SolverInputError, "solve"),
)


def run_pipeline(
    backend: ChatBackend, problem_text: str, config: PipelineConfig | None = None
) -> SolveOutcome:
    """Run all stages on one problem statement.

    Domain errors raised mid-flight are re-raised as
    :class:`PipelineError` subclasses carrying the stage name; the call
    trail up to the failure stays attached to the exception as
    ``partial_calls``.
    """
    config = config or PipelineConfig()
    calls: list[CallRecord] = []
    notes: list[str] = []
    try:
        extract_narrative(backend, problem_text, config, calls)
        problem_spec = classify_problem(backend, problem_text, config, calls)
        raw = extract_raw_graph(backend, problem_text, config, calls)
        graph = normalize_graph(backend, raw, config, calls, notes)
        choice = choose_algorithm(backend, problem_spec, graph, config, calls, notes)
        solution, explanation, verdicts = execute_and_check(
            backend, choice, graph, problem_spec, config, calls, notes
        )
    except PipelineError as exc:
        exc.partial_calls = tuple(calls)
        raise
    except (GraphError, KnowledgeBaseError, SolverInputError, BackendError) as exc:
        stage = next((name for kind, name in _STAGE_WRAP if isinstance(exc, kind)), "pipeline")
        wrapped = PipelineError(stage, str(exc))
        wrapped.partial_calls = tuple(calls)
        raise wrapped from exc
    return SolveOutcome(
        solution=solution,
        explanation=explanation,
        problem_spec=problem_spec,
        graph=graph,
        choice=choice,
        audit_verdicts=verdicts,
        self_check_rounds=config.n_check,
        calls=tuple(calls),
        notes=tuple(notes),
    )
