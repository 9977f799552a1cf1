import pytest

from graphcrew.agents import (
    Completion,
    EmptyGraphError,
    OracleStubBackend,
    ParseFailureError,
    PipelineConfig,
    PipelineError,
    SolverError,
    UnsupportedProblemTypeError,
    Usage,
    classify_problem,
    choose_algorithm,
    extract_raw_graph,
    normalize_graph,
    run_direct,
    run_pipeline,
    whitespace_token_count,
)
from graphcrew.agents.backends import BackendError
from graphcrew.agents.prompts import stage_of_prompt
from graphcrew.formats import serialize_graph
from graphcrew.graph import ConflictingWeightsError, build_graph
from graphcrew.knowledge import load_knowledge_base

from test_backends import tsp_hidden


class StageScripted:
    """Scripted replies for chosen stages; everything else goes to a stub."""

    backend_id = "scripted"

    def __init__(self, scripts: dict[str, list], hidden=None):
        self.scripts = {stage: list(replies) for stage, replies in scripts.items()}
        self.fallback = OracleStubBackend(hidden or tsp_hidden())
        self.seen: list[tuple[str, str]] = []

    def complete(self, system_prompt, user_prompt, params=None):
        stage = stage_of_prompt(system_prompt)
        self.seen.append((stage, user_prompt))
        if stage in self.scripts and self.scripts[stage]:
            reply = self.scripts[stage].pop(0)
            if isinstance(reply, Exception):
                raise reply
            return Completion(reply, Usage(7, whitespace_token_count(reply)))
        return self.fallback.complete(system_prompt, user_prompt, params)


def test_full_run_with_stub():
    out = run_pipeline(OracleStubBackend(tsp_hidden()), "prose statement")
    assert out.solution.algorithm_id == "held_karp"
    assert out.solution.objective == 14
    assert out.solution.exact
    assert out.problem_spec.problem_type == "tsp"
    assert out.graph.node_names == ("Depot", "Mill", "Quay", "Yard")
    assert out.choice.record.algorithm_id == "held_karp"
    assert out.audit_verdicts == ("pass", "pass")
    assert out.self_check_rounds == 2
    assert [c.stage for c in out.calls] == [
        "narrative", "classify", "extract_graph", "normalize", "select", "audit", "audit",
    ]
    assert out.notes == ()
    assert all(c.input_tokens > 0 and c.output_tokens > 0 for c in out.calls)
    assert "held_karp" in out.explanation and "total cost 14" in out.explanation


def test_n_check_controls_audit_rounds():
    none = run_pipeline(OracleStubBackend(tsp_hidden()), "p", PipelineConfig(n_check=0))
    assert none.audit_verdicts == ()
    assert [c.stage for c in none.calls].count("audit") == 0
    three = run_pipeline(OracleStubBackend(tsp_hidden()), "p", PipelineConfig(n_check=3))
    assert three.audit_verdicts == ("pass", "pass", "pass")


def test_repeat_runs_are_identical():
    first = run_pipeline(OracleStubBackend(tsp_hidden()), "p")
    second = run_pipeline(OracleStubBackend(tsp_hidden()), "p")
    assert first.solution == second.solution
    assert first.calls == second.calls


def test_stage_inputs_stay_narrow():
    prose = "UNIQUE_PROSE_MARKER the courier story"
    backend = StageScripted({})
    run_pipeline(backend, prose)
    by_stage = {}
    for stage, user in backend.seen:
        by_stage.setdefault(stage, []).append(user)
    # The statement goes to the reading stages only.
    for stage in ("narrative", "classify", "extract_graph"):
        assert all("UNIQUE_PROSE_MARKER" in u for u in by_stage[stage])
    for stage in ("normalize", "select", "audit"):
        assert all("UNIQUE_PROSE_MARKER" not in u for u in by_stage[stage])
    # The cleaner sees the raw edge list, the picker sees facts and catalogue.
    assert any("# nodes:" in u for u in by_stage["normalize"])
    assert any("held_karp" in u and "nearest_neighbor_2opt" in u for u in by_stage["select"])


def test_retry_appends_feedback_and_counts_attempts():
    backend = StageScripted({"classify": ["no block at all", None]})
    backend.scripts["classify"][1] = (
        "```result:problem\nproblem_type: tsp\nobjective: o\nsource: none\ntarget: none\n```"
    )
    spec = classify_problem(backend, "prose")
    assert spec.problem_type == "tsp"
    classify_calls = [u for s, u in backend.seen if s == "classify"]
    assert len(classify_calls) == 2
    assert "rejected" in classify_calls[1] and "fenced block" in classify_calls[1]


def test_retry_budget_exhaustion():
    backend = StageScripted({"classify": ["junk", "junk", "junk"]})
    with pytest.raises(ParseFailureError) as err:
        classify_problem(backend, "prose")
    assert err.value.stage == "classify"
    assert len([1 for s, _ in backend.seen if s == "classify"]) == 3


def test_missing_field_retries_but_unknown_type_does_not():
    backend = StageScripted(
        {
            "classify": [
                "```result:problem\nobjective: no type line\n```",
                "```result:problem\nproblem_type: tsp\n```",
            ]
        }
    )
    assert classify_problem(backend, "p").problem_type == "tsp"

    backend = StageScripted(
        {"classify": ["```result:problem\nproblem_type: minimum_spanning_tree\n```"]}
    )
    with pytest.raises(UnsupportedProblemTypeError):
        classify_problem(backend, "p")
    assert len([1 for s, _ in backend.seen if s == "classify"]) == 1


def test_backend_errors_retry_then_surface():
    backend = StageScripted(
        {"narrative": [BackendError("down"), BackendError("down"), BackendError("down")]}
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(backend, "p")
    assert err.value.stage == "narrative"
    assert "3 times" in str(err.value)


def test_extract_empty_graph():
    backend = StageScripted(
        {"extract_graph": ["```result:graph\nnothing structural here\n```"]}
    )
    with pytest.raises(EmptyGraphError) as err:
        extract_raw_graph(backend, "p")
    assert err.value.stage == "extract_graph"


def test_normalize_merges_duplicates():
    backend = StageScripted({})
    raw = (
        "# nodes: A B C\n# directed: false\n# weighted: true\n"
        "A B 3\nB A 3\nB C 4\n"
    )
    graph = normalize_graph(backend, raw)
    assert graph.edges == ((0, 1, 3), (1, 2, 4))


def test_normalize_conflicting_weights():
    backend = StageScripted({})
    raw = "# weighted: true\nA B 3\nB A 5\n"
    with pytest.raises(ConflictingWeightsError):
        normalize_graph(backend, raw)


def test_normalize_override_is_deterministic_and_noted():
    hidden = tsp_hidden()
    wrong = "# nodes: A B\n# directed: false\n# weighted: true\nA B 99\n"
    backend = StageScripted({"normalize": [f"```result:graph\n{wrong}```"]}, hidden=hidden)
    notes: list[str] = []
    graph = normalize_graph(backend, hidden["graph_text"], notes=notes)
    assert graph.node_names == ("Depot", "Mill", "Quay", "Yard")
    assert notes and "deterministic result kept" in notes[0]


def test_select_override_is_noted():
    hidden = tsp_hidden()
    backend = StageScripted(
        {"select": ["```result:choice\nalgorithm: nearest_neighbor_2opt\nreason: vibes\n```"]},
        hidden=hidden,
    )
    out = run_pipeline(backend, "p")
    assert out.choice.record.algorithm_id == "held_karp"
    assert any("selector wins" in note for note in out.notes)


def test_audit_fail_verdict_is_advisory():
    backend = StageScripted(
        {"audit": ["```result:verdict\nverdict: fail\nnote: hmm\n```"]}
    )
    out = run_pipeline(backend, "p")
    assert out.solution.objective == 14
    assert out.audit_verdicts[0] == "fail"
    assert any("mechanical verification is authoritative" in n for n in out.notes)


WRONG_LIMIT_KB = """
version: 1
algorithms:
  - id: held_karp
    problem: tsp
    description: Exact tour search.
    complexity: O(n^2 * 2^n)
    exact: true
    applicability:
      max_nodes: 16
      requires_complete: false
      requires_weighted: true
      directedness: undirected
    parameters: {}
"""


def test_solver_rejection_surfaces_with_rationale():
    # A catalogue that forgets the completeness requirement sends an
    # incomplete graph into the exact tour solver, which refuses it.
    incomplete = build_graph(
        ["Depot", "Mill", "Quay", "Yard"],
        False,
        True,
        [("Depot", "Mill", 3), ("Mill", "Quay", 5), ("Quay", "Yard", 2)],
    )
    hidden = dict(tsp_hidden(), graph_text=serialize_graph(incomplete))
    config = PipelineConfig(kb=load_knowledge_base(WRONG_LIMIT_KB))
    with pytest.raises(SolverError) as err:
        run_pipeline(OracleStubBackend(hidden, config.kb), "p", config)
    assert err.value.stage == "solve"
    assert "not complete" in str(err.value) and "rationale" in str(err.value)


def test_pipeline_error_carries_partial_trail():
    backend = StageScripted({"classify": ["junk", "junk", "junk"]})
    with pytest.raises(ParseFailureError) as err:
        run_pipeline(backend, "p")
    stages = [c.stage for c in err.value.partial_calls]
    assert stages[0] == "narrative"
    assert stages.count("classify") == 3


def test_choose_algorithm_standalone():
    hidden = tsp_hidden()
    backend = OracleStubBackend(hidden)
    from graphcrew.agents import ProblemSpec
    from graphcrew.formats import parse_graph

    graph = parse_graph(hidden["graph_text"])
    spec = ProblemSpec("tsp", "cheapest loop", None, None)
    choice = choose_algorithm(backend, spec, graph)
    assert choice.record.algorithm_id == "held_karp"
    assert "exact" in choice.rationale


def test_run_direct_modes():
    outcome = run_direct(OracleStubBackend(tsp_hidden()), "p", mode="direct")
    assert outcome.failure is None
    assert outcome.solution.kind == "tour"
    assert outcome.solution.payload == ("Depot", "Mill", "Quay", "Yard")
    assert outcome.solution.objective == 14
    assert outcome.solution.algorithm_id == "direct"
    assert not outcome.solution.exact

    cot = run_direct(OracleStubBackend(tsp_hidden()), "p", mode="cot")
    assert cot.solution.algorithm_id == "direct_cot"
    assert "step by step" in cot.calls[0].user_prompt

    with pytest.raises(ValueError):
        run_direct(OracleStubBackend(tsp_hidden()), "p", mode="telepathy")


def test_run_direct_failure_is_data_not_exception():
    backend = StageScripted({"direct": ["word salad", "more salad", "still salad"]})
    outcome = run_direct(backend, "p")
    assert outcome.solution is None
    assert "no usable reply" in outcome.failure
    assert len(outcome.calls) == 3


def test_run_direct_parses_each_kind():
    cases = [
        ({"kind": "node_set", "nodes": ["B", "A"], "objective": "2"}, "node_set", ("A", "B"), 2),
        ({"kind": "path", "path": ["A", "B"], "objective": "7/2"}, "path", ("A", "B"), None),
        ({"kind": "boolean", "answer": True, "objective": "1"}, "boolean", True, 1),
    ]
    for optimal, kind, payload, objective in cases:
        hidden = dict(tsp_hidden(), optimal=optimal)
        outcome = run_direct(OracleStubBackend(hidden), "p")
        assert outcome.solution.kind == kind
        assert outcome.solution.payload == payload
        if objective is not None:
            assert outcome.solution.objective == objective
