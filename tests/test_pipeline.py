import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

from graphcrew.agents import (
    Completion,
    OracleStubBackend,
    run_direct,
    run_pipeline,
    whitespace_token_count,
)
from graphcrew import knowledge
from graphcrew.agents.backends import BackendError
from graphcrew.agents.prompts import (
    TAGS,
    TemplateError,
    load_template,
    render_stage,
    stage_of_prompt,
)
from graphcrew.dataset import build_instance
from graphcrew.evaluation import score_prediction
from graphcrew.formats import parse_graph, serialize_graph
from graphcrew.graph import build_graph, format_weight
from graphcrew.knowledge import ROUTES
from graphcrew.problems import ExtractedProblem
from graphcrew.solvers import measure, verify_solution

from test_backends import TSP_TEXT, problem_text, tsp_graph


class StageScripted:
    """Scripted replies for chosen stages; everything else goes to a stub."""

    def __init__(self, scripts: dict[str, list]):
        self.scripts = {stage: list(replies) for stage, replies in scripts.items()}
        self.fallback = OracleStubBackend()
        self.seen: list[tuple[str, str]] = []

    def complete(self, system_prompt, user_prompt):
        stage = stage_of_prompt(system_prompt)
        self.seen.append((stage, user_prompt))
        if stage in self.scripts and self.scripts[stage]:
            reply = self.scripts[stage].pop(0)
            if isinstance(reply, Exception):
                raise reply
            return Completion(reply, 7, whitespace_token_count(reply))
        return self.fallback.complete(system_prompt, user_prompt)


def test_full_run_with_stub():
    out = run_pipeline(OracleStubBackend(), TSP_TEXT)
    assert out.solution.algorithm_id == "held_karp"
    assert out.solution.objective == 14
    assert out.solution.exact
    assert out.extracted.problem_type == "tsp"
    assert out.extracted.graph.node_names == ("Depot", "Mill", "Quay", "Yard")
    assert out.route.algorithm_id == "held_karp"
    assert [(c.stage, c.attempt) for c in out.calls] == [("extract_graph", 1)]
    assert all(c.input_tokens > 0 and c.output_tokens > 0 for c in out.calls)
    assert (out.failure, out.stage) == (None, None)


def test_repeat_runs_are_identical():
    first = run_pipeline(OracleStubBackend(), TSP_TEXT)
    second = run_pipeline(OracleStubBackend(), TSP_TEXT)
    assert first.solution == second.solution
    assert first.calls == second.calls


def test_stage_inputs_stay_narrow():
    prose = "UNIQUE_PROSE_MARKER " + TSP_TEXT
    backend = StageScripted({})
    run_pipeline(backend, prose)
    by_stage = {}
    for stage, user in backend.seen:
        by_stage.setdefault(stage, []).append(user)
    # The statement goes to the reading stage, the only stage that calls the model.
    assert set(by_stage) == {"extract_graph"}
    assert all("UNIQUE_PROSE_MARKER" in u for u in by_stage["extract_graph"])


TSP_GRAPH = serialize_graph(tsp_graph())


def graph_reply(text, problem="problem_type: tsp\nsource: none\ntarget: none"):
    """A scripted extract reply: ``problem`` in its problem block, then
    ``text`` in its graph block."""
    return f"```result:problem\n{problem}\n```\n```result:graph\n{text}```"


def extract_prompts(backend):
    return [user for stage, user in backend.seen if stage == "extract_graph"]


def test_retry_appends_feedback_and_counts_attempts():
    backend = StageScripted({"extract_graph": ["no block at all"]})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.extracted.problem_type == "tsp"
    extract_calls = extract_prompts(backend)
    assert len(extract_calls) == 2
    assert "rejected" in extract_calls[1] and "fenced block" in extract_calls[1]


def test_retry_feedback_names_the_missing_block():
    graph_only = f"```result:graph\n{TSP_GRAPH}```"
    problem_only = graph_reply(TSP_GRAPH).split("```result:graph")[0]
    for reply, tag in ((graph_only, "problem"), (problem_only, "graph")):
        backend = StageScripted({"extract_graph": [reply]})
        assert run_pipeline(backend, TSP_TEXT).solution.objective == 14
        retry = extract_prompts(backend)[1]
        assert f"rejected: the reply has no ```result:{tag}``` fenced block" in retry


def test_crlf_extract_reply_reads_in_one_call():
    lf = graph_reply(TSP_GRAPH)
    expected = run_pipeline(StageScripted({"extract_graph": [lf]}), TSP_TEXT)
    backend = StageScripted({"extract_graph": [lf.replace("\n", "\r\n")]})
    out = run_pipeline(backend, TSP_TEXT)
    assert len(extract_prompts(backend)) == 1
    assert (out.solution, out.extracted) == (expected.solution, expected.extracted)


def test_retry_budget_exhaustion():
    backend = StageScripted({"extract_graph": ["junk", "junk", "junk"]})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.solution is None and out.stage == "extract_graph"
    assert "no usable reply in 3 attempts" in out.failure
    assert len(extract_prompts(backend)) == 3


FAMILIES = "tsp, graph_coloring, vertex_cover, shortest_path, cycle_detection"


def test_missing_field_and_unknown_family_are_retried():
    backend = StageScripted(
        {
            "extract_graph": [
                graph_reply(TSP_GRAPH, "source: none"),
                graph_reply(TSP_GRAPH, "problem_type: tsp"),
            ]
        }
    )
    assert run_pipeline(backend, TSP_TEXT).extracted.problem_type == "tsp"
    assert "rejected: the problem block is missing a problem_type line" in (
        extract_prompts(backend)[1])

    # a family outside the allowed list is asked again, naming the list
    for stated in ("minimum_spanning_tree", "tsp."):
        unknown = graph_reply(TSP_GRAPH, f"problem_type: {stated}")
        problem = f"problem type {stated!r} is not one of {FAMILIES}"
        backend = StageScripted({"extract_graph": [unknown]})
        assert run_pipeline(backend, TSP_TEXT).solution.objective == 14
        assert f"rejected: {problem}." in extract_prompts(backend)[1]

        backend = StageScripted({"extract_graph": [unknown] * 3})
        out = run_pipeline(backend, TSP_TEXT)
        assert out.stage == "extract_graph"
        assert out.failure == (
            f"stage extract_graph: no usable reply in 3 attempts (last problem: {problem})")
        assert len(extract_prompts(backend)) == 3


@pytest.mark.parametrize("stated, family", [
    ("TSP", "tsp"),
    ("Tsp", "tsp"),
    ("graph coloring", "graph_coloring"),
    ("Graph-Coloring", "graph_coloring"),
])
def test_family_reads_case_and_spacing_blind(stated, family):
    text = TSP_TEXT if family == "tsp" else problem_text(tsp_graph(), family)
    backend = StageScripted({"extract_graph": [graph_reply(
        TSP_GRAPH, f"problem_type: {stated}\nsource: none\ntarget: none")]})
    out = run_pipeline(backend, text)
    assert out.extracted.problem_type == family
    assert out.solution is not None
    assert len(extract_prompts(backend)) == 1


def test_backend_errors_retry_then_surface():
    backend = StageScripted(
        {"extract_graph": [BackendError("down"), BackendError("down"), BackendError("down")]}
    )
    out = run_pipeline(backend, TSP_TEXT)
    assert out.stage == "extract_graph"
    assert out.failure == "stage extract_graph: backend failed 3 times: down"
    assert out.calls == ()


def test_failure_names_a_backend_error_on_the_last_attempt():
    # a rejected reply, then an outage: the failure names the outage, and
    # each retry prompt carries only the rejected reply's reason
    outage = ["junk", BackendError("HTTP 503"), BackendError("HTTP 503")]
    backend = StageScripted({"extract_graph": list(outage)})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.failure == ("stage extract_graph: no usable reply in 3 attempts "
                           "(last problem: the backend failed: HTTP 503)")
    retries = extract_prompts(backend)[1:]
    assert len(retries) == 2
    assert all("rejected: the reply has no ```result:problem``` fenced block" in user
               and "503" not in user for user in retries)
    assert [c.attempt for c in out.calls] == [1]

    outcome = run_direct(StageScripted({"direct": list(outage)}), TSP_TEXT)
    assert outcome.failure == ("stage direct: no usable reply in 3 attempts "
                               "(last problem: the backend failed: HTTP 503)")
    assert outcome.stage == "direct"

    # an outage followed by rejected replies still names the last rejection
    backend = StageScripted({"extract_graph": [BackendError("HTTP 503"), "junk", "junk"]})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.failure.endswith(
        "(last problem: the reply has no ```result:problem``` fenced block)")


EXTRACT_ONLY = ["extract_graph"]


def test_extract_empty_graph():
    # an empty block is retried like any other reply the reader refuses
    empty = graph_reply("")
    backend = StageScripted({"extract_graph": [empty]})
    assert run_pipeline(backend, TSP_TEXT).solution.objective == 14
    retry = extract_prompts(backend)[1]
    assert "rejected: the edge list contained no nodes or edges" in retry

    backend = StageScripted({"extract_graph": [empty] * 3})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.stage == "extract_graph"
    assert "no usable reply in 3 attempts" in out.failure
    assert "no nodes or edges" in out.failure
    assert [stage for stage, _ in backend.seen] == ["extract_graph"] * 3


# in the form written before every graph was undirected, which still reads
ROUTE = (
    "# nodes: A B C D\n# directed: false\n# weighted: true\n"
    "A B 3\nA C 1\nB D 4\nC D 1\n"
)

ROUTE_TEXT = problem_text(parse_graph(ROUTE), "shortest_path", "A", "D")


def route_reply(graph=ROUTE, source="A", target="D"):
    return graph_reply(graph, f"problem_type: shortest_path\nsource: {source}\ntarget: {target}")


# per statement, its answer
ANSWERS = {ROUTE_TEXT: (("A", "C", "D"), 2), TSP_TEXT: (("Depot", "Mill", "Quay", "Yard"), 14)}
# the tour's graph with its weights left out
UNWEIGHTED_TOUR = ("# nodes: Depot Mill Quay Yard\n# weighted: false\n"
                   "Depot Mill\nDepot Quay\nDepot Yard\nMill Quay\nMill Yard\nQuay Yard\n")

# A transcription fault in each reply, the feedback it earns, and the
# statement it was read from; a reader that drops the row, or a merge, a
# route check or a selection that fails without asking again, loses the
# statement's answer.
FAULTY_REPLIES = {
    "unit-after-weight": (
        ROUTE_TEXT,
        route_reply(ROUTE.replace("C D 1\n", "C D 1 minutes\n")),
        "the edge list could not be read "
        "(line 7, column 1: expected 'U V' or 'U V W', got 'C D 1 minutes')",
    ),
    "dash-between-names": (
        ROUTE_TEXT,
        route_reply(ROUTE.replace("A C 1", "A - C 1")),
        "the edge list could not be read "
        "(line 5, column 1: expected 'U V' or 'U V W', got 'A - C 1')",
    ),
    "conflicting-weight": (
        ROUTE_TEXT,
        route_reply(ROUTE.replace("A B 3\n", "A B 3\nB A 9\n")),
        "the edge list could not be read (edge A-B stated with weights 3 and 9)",
    ),
    "outside-roster": (
        ROUTE_TEXT,
        route_reply(ROUTE + "C E 1\n"),
        "the edge list could not be read (line 8, column 3: endpoint 'E' missing from roster)",
    ),
    "source-outside-graph": (
        ROUTE_TEXT,
        route_reply(source="E"),
        "the problem block names source 'E', which is not a node of the edge list",
    ),
    "target-outside-graph": (
        ROUTE_TEXT,
        route_reply(target="Nowhere"),
        "the problem block names target 'Nowhere', which is not a node of the edge list",
    ),
    "source-missing": (
        ROUTE_TEXT,
        route_reply(source="none"),
        "the shortest_path problem block names no source",
    ),
    "source-n/a": (
        ROUTE_TEXT,
        route_reply(source="N/A"),
        "the shortest_path problem block names no source",
    ),
    "target-missing": (
        ROUTE_TEXT,
        graph_reply(ROUTE, "problem_type: shortest_path\nsource: A"),
        "the shortest_path problem block names no target",
    ),
    # every connection a statement gives runs both ways
    "declared-directed": (
        ROUTE_TEXT,
        route_reply(ROUTE.replace("# directed: false", "# directed: true")),
        "the edge list could not be read (line 2, column 13: every connection a statement "
        "gives runs both ways, so the graph cannot be directed (got 'true'))",
    ),
    "pair-dropped": (
        TSP_TEXT,
        graph_reply(TSP_GRAPH.replace("Depot Mill 3\n", "")),
        "no route can solve the edge list (no applicable algorithm for tsp on 4 nodes "
        "(held_karp: the graph is not complete; nearest_neighbor_2opt: the graph is not "
        "complete))",
    ),
    "two-node-tour": (
        TSP_TEXT,
        graph_reply("# nodes: Depot Mill\n# weighted: true\nDepot Mill 3\n"),
        "no route can solve the edge list (no applicable algorithm for tsp on 2 nodes "
        "(held_karp: 2 nodes is below its minimum of 3; nearest_neighbor_2opt: 2 nodes is "
        "below its minimum of 3))",
    ),
    "weights-dropped": (
        TSP_TEXT,
        graph_reply(UNWEIGHTED_TOUR),
        "no route can solve the edge list (no applicable algorithm for tsp on 4 nodes "
        "(held_karp: the graph is unweighted; nearest_neighbor_2opt: the graph is "
        "unweighted))",
    ),
}


@pytest.mark.parametrize("text, faulty, problem", FAULTY_REPLIES.values(), ids=FAULTY_REPLIES)
def test_faulty_extract_reply_is_retried_with_its_problem(text, faulty, problem):
    backend = StageScripted({"extract_graph": [faulty]})
    out = run_pipeline(backend, text)
    assert (out.solution.payload, out.solution.objective) == ANSWERS[text]
    first, retry = extract_prompts(backend)
    assert problem not in first and f"rejected: {problem}." in retry


@pytest.mark.parametrize("text, faulty, problem", FAULTY_REPLIES.values(), ids=FAULTY_REPLIES)
def test_three_faulty_extract_replies_fail_as_extract_graph(text, faulty, problem):
    backend = StageScripted({"extract_graph": [faulty] * 3})
    out = run_pipeline(backend, text)
    assert out.stage == "extract_graph"
    assert out.failure == (
        f"stage extract_graph: no usable reply in 3 attempts (last problem: {problem})")
    assert [c.stage for c in out.calls] == ["extract_graph"] * 3
    assert [stage for stage, _ in backend.seen] == ["extract_graph"] * 3


def test_endpoint_named_none_is_that_node():
    # a generated roster can hold a node named None: an endpoint that names
    # a node of the edge list is that node before it is read as absent
    graph = ROUTE.replace("A", "None")
    backend = StageScripted({"extract_graph": [route_reply(graph, source="None")]})
    out = run_pipeline(backend, problem_text(parse_graph(graph), "shortest_path", "None", "D"))
    assert out.extracted.source == "None"
    assert (out.solution.payload, out.solution.objective) == (("None", "C", "D"), 2)
    assert len(extract_prompts(backend)) == 1


def test_normalize_merges_duplicates():
    k3 = build_graph(["A", "B", "C"], True, [("A", "B", 3), ("A", "C", 5), ("B", "C", 4)])
    raw = (
        "# nodes: A B C\n# directed: false\n# weighted: true\n"
        "A B 3\nB A 3\nB C 4\nA C 5\n"
    )
    backend = StageScripted({"extract_graph": [graph_reply(raw)]})
    out = run_pipeline(backend, problem_text(k3, "tsp"))
    assert out.extracted.graph.edges == ((0, 1, 3), (0, 2, 5), (1, 2, 4))
    assert out.solution.objective == 12


def test_normalize_conflicting_weights():
    # a conflict is a fault of the extract reply, so that reply is asked again
    raw = "# weighted: true\nA B 3\nB A 5\n"
    backend = StageScripted({"extract_graph": [graph_reply(raw)]})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.solution.objective == 14
    assert "edge A-B stated with weights 3 and 5" in extract_prompts(backend)[1]

    backend = StageScripted({"extract_graph": [graph_reply(raw)] * 3})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.stage == "extract_graph"
    assert "no usable reply in 3 attempts" in out.failure
    assert "edge A-B stated with weights 3 and 5" in out.failure
    assert [c.stage for c in out.calls] == ["extract_graph"] * 3


def patch_route(monkeypatch, algorithm_id, **changes):
    """Replace the row ``algorithm_id`` of ``ROUTES`` by a copy with ``changes``."""
    monkeypatch.setattr(knowledge, "ROUTES", tuple(
        replace(r, **changes) if r.algorithm_id == algorithm_id else r for r in ROUTES))


def test_route_without_its_completeness_condition_fails_verification(monkeypatch):
    # The route table alone judges a graph: a row that forgets the
    # completeness requirement sends an incomplete graph into the exact
    # tour solver, whose tour then fails verification.
    incomplete = build_graph(
        ["Depot", "Mill", "Quay", "Yard"],
        True,
        [("Depot", "Mill", 3), ("Mill", "Quay", 5), ("Quay", "Yard", 2)],
    )
    patch_route(monkeypatch, "held_karp", requires_complete=False)
    out = run_pipeline(OracleStubBackend(), problem_text(incomplete, "tsp"))
    assert (out.solution, out.stage) == (None, "solve")
    assert out.failure == ("stage solve: held_karp answer failed verification "
                           "(no edge Mill-Yard; no edge Quay-Depot)")
    assert [c.stage for c in out.calls] == EXTRACT_ONLY


def test_unverifiable_answer_fails_as_solve(monkeypatch):
    # the chosen route answers alone: no other route stands in for a wrong answer
    inst = build_instance("graph_coloring", 8, 0)
    one_color = {name: 0 for name in inst.graph.node_names}
    patch_route(monkeypatch, "exact_coloring", solve=lambda *_: one_color)
    out = run_pipeline(OracleStubBackend(), inst.text)
    violations = measure("graph_coloring", inst.graph, one_color)[0]
    assert violations
    assert out.stage == "solve"
    assert out.failure == ("stage solve: exact_coloring answer failed verification "
                           f"({'; '.join(violations)})")
    assert [c.stage for c in out.calls] == EXTRACT_ONLY


def test_catalogue_limit_sends_a_larger_tour_to_the_heuristic(monkeypatch):
    # the route table's limit is the only one: held_karp itself would solve 12 nodes
    inst = build_instance("tsp", 12, 0)
    patch_route(monkeypatch, "held_karp", max_nodes=10)
    out = run_pipeline(OracleStubBackend(), inst.text)
    assert out.extracted.graph == inst.graph
    assert out.route.algorithm_id == "nearest_neighbor_2opt"
    assert out.solution == inst.truth.approximate


def test_pipeline_error_carries_partial_trail():
    backend = StageScripted({"extract_graph": ["junk", "junk", "junk"]})
    out = run_pipeline(backend, TSP_TEXT)
    assert out.stage == "extract_graph"
    assert "no usable reply" in out.failure
    assert [(c.stage, c.attempt) for c in out.calls] == [
        ("extract_graph", 1), ("extract_graph", 2), ("extract_graph", 3)]
    assert (out.extracted, out.route) == (None, None)


# two components: Ash and Birch, and Cedar alone
SPLIT = build_graph(["Ash", "Birch", "Cedar"], True, [("Ash", "Birch", 2)])


def test_solver_failure_is_named_solve():
    # both route endpoints are nodes, but no edge leads from Cedar to Ash
    problem = "problem_type: shortest_path\nsource: Cedar\ntarget: Ash"
    backend = StageScripted({"extract_graph": [graph_reply(serialize_graph(SPLIT), problem)]})
    out = run_pipeline(backend, problem_text(SPLIT, "shortest_path", "Cedar", "Ash"))
    assert out.stage == "solve"
    assert out.failure == "stage solve: no path from Cedar to Ash"
    assert [c.stage for c in out.calls] == EXTRACT_ONLY
    assert [stage for stage, _ in backend.seen] == EXTRACT_ONLY
    # a failure after the extract call keeps what the call read
    assert out.extracted == ExtractedProblem("shortest_path", SPLIT, "Cedar", "Ash")
    assert out.route.algorithm_id == "dijkstra"


def test_every_template_asks_for_its_stage_tag():
    for stage, tags in TAGS.items():
        system, user = load_template(stage)
        assert system.startswith(f"[stage:{stage}]")
        for tag in tags:
            assert f"```result:{tag}\n" in user


def test_every_template_belongs_to_a_stage():
    # a deleted stage must not leave its template shipped as package data
    templates = resources.files("graphcrew").joinpath("agents/templates")
    names = {path.name for path in templates.iterdir()}
    assert names == {f"{stage}.txt" for stage in (*TAGS, "cot_directive")}


def test_render_stage_never_reads_a_slot_value_as_a_slot():
    _, user = render_stage("extract_graph", {"problem": "drive {route}, then {problem}"})
    assert "drive {route}, then {problem}" in user
    with pytest.raises(TemplateError, match="has no slot {route}"):
        render_stage("extract_graph", {"problem": "p", "route": "r"})
    with pytest.raises(TemplateError, match="slot {problem} of 'extract_graph' was not filled"):
        render_stage("extract_graph", {})


def test_run_direct_modes():
    outcome = run_direct(OracleStubBackend(), TSP_TEXT, mode="direct")
    assert outcome.failure is None
    assert outcome.solution.kind == "tour"
    assert outcome.solution.payload == ("Depot", "Mill", "Quay", "Yard")
    assert outcome.solution.objective == 14
    assert outcome.solution.algorithm_id == "direct"
    assert not outcome.solution.exact

    spy = StageScripted({})
    cot = run_direct(spy, TSP_TEXT, mode="cot")
    assert cot.solution.algorithm_id == "direct_cot"
    assert [stage for stage, _ in spy.seen] == ["direct"]
    assert "step by step" in spy.seen[0][1]

    with pytest.raises(ValueError):
        run_direct(OracleStubBackend(), TSP_TEXT, mode="telepathy")


def test_run_direct_failure_is_data_not_exception():
    backend = StageScripted({"direct": ["word salad", "more salad", "still salad"]})
    outcome = run_direct(backend, TSP_TEXT)
    assert outcome.solution is None
    assert outcome.stage == "direct"
    assert "no usable reply" in outcome.failure
    assert len(outcome.calls) == 3


STARS = build_graph(["A", "B", "C", "D", "E", "F"], False,
                    [("A", "C"), ("A", "D"), ("B", "E"), ("B", "F")])
HOP = build_graph(["A", "B", "C"], True,
                  [("A", "B", Fraction(7, 2)), ("B", "C", 1), ("A", "C", 5)])
TRIANGLE = build_graph(["A", "B", "C"], False, [("A", "B"), ("B", "C"), ("A", "C")])
# per answer kind: a statement asking for that kind, and the stub's direct answer
DIRECT_CASES = {
    "tour": (TSP_TEXT, ("Depot", "Mill", "Quay", "Yard"), 14),
    "coloring": (problem_text(TRIANGLE, "graph_coloring"), {"A": 0, "B": 1, "C": 2}, 3),
    "node_set": (problem_text(STARS, "vertex_cover"), ("A", "B"), 2),
    "path": (problem_text(HOP, "shortest_path", "A", "B"), ("A", "B"), Fraction(7, 2)),
    "boolean": (problem_text(TRIANGLE, "cycle_detection"), True, 1),
}


def test_run_direct_parses_each_kind():
    for kind, (text, payload, objective) in DIRECT_CASES.items():
        outcome = run_direct(OracleStubBackend(), text)
        assert outcome.solution.kind == kind
        assert outcome.solution.payload == payload
        assert outcome.solution.objective == objective

    # a node set stated out of order is read sorted
    unsorted = StageScripted({"direct": ["```result:answer\nnodes: B, A\nsize: 2\n```"]})
    outcome = run_direct(unsorted, DIRECT_CASES["node_set"][0])
    assert outcome.solution.kind == "node_set"
    assert outcome.solution.payload == ("A", "B")
    assert outcome.solution.objective == 2


# a direct answer of each kind that states no count or cost, and the line it lacks
UNCOUNTED = {
    "tour": ("order: Depot, Mill, Quay, Yard", "cost"),
    "coloring": ("color A: 0\ncolor B: 1\ncolor C: 2", "colors"),
    "node_set": ("nodes: A, B", "size"),
    "path": ("path: A, B", "cost"),
}


@pytest.mark.parametrize("kind", UNCOUNTED)
def test_run_direct_retries_an_answer_without_its_count(kind):
    body, line = UNCOUNTED[kind]
    text, payload, objective = DIRECT_CASES[kind]
    backend = StageScripted({"direct": [f"```result:answer\n{body}\n```"]})
    outcome = run_direct(backend, text)
    assert [call.attempt for call in outcome.calls] == [1, 2]
    assert f"rejected: the block is missing a {line} line" in backend.seen[1][1]
    assert (outcome.solution.payload, outcome.solution.objective) == (payload, objective)


def test_run_direct_refuses_an_exponent_cost():
    reply = "```result:answer\norder: Depot, Mill, Quay, Yard\ncost: 1e9999999\n```"
    backend = StageScripted({"direct": [reply] * 3})
    start = time.perf_counter()
    outcome = run_direct(backend, TSP_TEXT)
    assert time.perf_counter() - start < 1
    assert outcome.solution is None
    assert "exponent notation is not accepted" in outcome.failure


# per way of joining names with no comma: the answer kind, a direct answer
# body, and the one name the reader takes it for
JOINED = {
    "arrows": ("tour", "order: Depot -> Mill -> Quay -> Yard\ncost: 14",
               "Depot -> Mill -> Quay -> Yard"),
    "spaces": ("tour", "order: Depot Mill Quay Yard\ncost: 14", "Depot Mill Quay Yard"),
    "and": ("node_set", "nodes: A and B\nsize: 2", "A and B"),
    "unicode arrow": ("path", "path: A → B\ncost: 7/2", "A → B"),
}


@pytest.mark.parametrize("case", JOINED)
def test_run_direct_retries_an_answer_naming_an_unmentioned_node(case):
    kind, body, name = JOINED[case]
    text, payload, objective = DIRECT_CASES[kind]
    backend = StageScripted({"direct": [f"```result:answer\n{body}\n```"]})
    outcome = run_direct(backend, text)
    assert [call.attempt for call in outcome.calls] == [1, 2]
    assert (f"rejected: the answer names {name!r}, which the statement does not mention"
            in backend.seen[1][1])
    assert (outcome.solution.payload, outcome.solution.objective) == (payload, objective)


def test_run_direct_reads_a_mentioned_name_with_punctuation_in_one_call():
    text = "Visit North-Gate, Mill and Quay once each and return. Find the cheapest tour."
    backend = StageScripted({"direct": ["```result:answer\norder: North-Gate, Mill, Quay\n"
                                        "cost: 9\n```"]})
    outcome = run_direct(backend, text)
    assert len(outcome.calls) == 1
    assert outcome.solution.payload == ("North-Gate", "Mill", "Quay")


def test_run_direct_reads_a_tour_closed_on_its_first_stop_as_the_tour():
    inst = build_instance("tsp", 8, 0)
    truth = inst.truth.optimal
    cost = format_weight(truth.objective)

    def answer(order):
        reply = f"```result:answer\norder: {', '.join(order)}\ncost: {cost}\n```"
        return run_direct(StageScripted({"direct": [reply]}), inst.text)

    closed = answer(truth.payload + truth.payload[:1])
    assert len(closed.calls) == 1
    assert closed.solution.payload == truth.payload
    assert score_prediction(closed.solution, truth, "tsp", inst.graph).acc_all == 1
    # a repeat anywhere else is kept as stated and fails verification
    for order in (truth.payload[:1] + truth.payload, truth.payload + truth.payload[1:2]):
        outcome = answer(order)
        assert len(outcome.calls) == 1
        assert outcome.solution.payload == order
        assert verify_solution("tsp", inst.graph, outcome.solution).violations == (
            "tour is not a permutation of the nodes",)
