import random
import threading
import time
from importlib import resources

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
    run_direct,
    run_pipeline,
    whitespace_token_count,
)
from graphcrew.agents.backends import BackendError
from graphcrew.agents.prompts import TAGS, TemplateError, load_template, render_stage, stage_of_prompt
from graphcrew.graph import ConflictingWeightsError, GraphError, UnknownEndpointError, build_graph
from graphcrew.knowledge import NoApplicableAlgorithmError, load_knowledge_base

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
    assert [c.stage for c in out.calls] == [
        "classify", "extract_graph", "normalize", "select", "audit", "audit",
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
    for stage in ("classify", "extract_graph"):
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
    out = run_pipeline(backend, "prose")
    assert out.problem_spec.problem_type == "tsp"
    classify_calls = [u for s, u in backend.seen if s == "classify"]
    assert len(classify_calls) == 2
    assert "rejected" in classify_calls[1] and "fenced block" in classify_calls[1]


def test_retry_budget_exhaustion():
    backend = StageScripted({"classify": ["junk", "junk", "junk"]})
    with pytest.raises(ParseFailureError) as err:
        run_pipeline(backend, "prose")
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
    assert run_pipeline(backend, "p").problem_spec.problem_type == "tsp"

    backend = StageScripted(
        {"classify": ["```result:problem\nproblem_type: minimum_spanning_tree\n```"]}
    )
    with pytest.raises(UnsupportedProblemTypeError):
        run_pipeline(backend, "p")
    assert len([1 for s, _ in backend.seen if s == "classify"]) == 1


def test_backend_errors_retry_then_surface():
    backend = StageScripted(
        {"classify": [BackendError("down"), BackendError("down"), BackendError("down")]}
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(backend, "p")
    assert err.value.stage == "classify"
    assert "3 times" in str(err.value)


def test_extract_empty_graph():
    backend = StageScripted(
        {"extract_graph": ["```result:graph\nnothing structural here\n```"]}
    )
    with pytest.raises(EmptyGraphError) as err:
        run_pipeline(backend, "p")
    assert err.value.stage == "extract_graph"


WAVE_1 = ["classify", "extract_graph"]


def graph_reply(text):
    return f"```result:graph\n{text}```"


def test_normalize_merges_duplicates():
    k3 = build_graph(["A", "B", "C"], False, True, [("A", "B", 3), ("A", "C", 5), ("B", "C", 4)])
    raw = (
        "# nodes: A B C\n# directed: false\n# weighted: true\n"
        "A B 3\nB A 3\nB C 4\nA C 5\n"
    )
    hidden = dict(tsp_hidden(), graph=k3)
    backend = StageScripted({"extract_graph": [graph_reply(raw)]}, hidden=hidden)
    out = run_pipeline(backend, "p")
    assert out.graph.edges == ((0, 1, 3), (0, 2, 5), (1, 2, 4))
    assert out.notes == ()  # the stub's clean list is the merge
    assert out.solution.objective == 12


def test_normalize_conflicting_weights():
    raw = "# weighted: true\nA B 3\nB A 5\n"
    backend = StageScripted({"extract_graph": [graph_reply(raw)]})
    with pytest.raises(PipelineError) as err:
        run_pipeline(backend, "p")
    assert err.value.stage == "normalize"
    assert isinstance(err.value.__cause__, ConflictingWeightsError)
    assert [c.stage for c in err.value.partial_calls] == WAVE_1


def test_normalize_override_is_deterministic_and_noted():
    hidden = tsp_hidden()
    wrong = "# nodes: A B\n# directed: false\n# weighted: true\nA B 99\n"
    backend = StageScripted({"normalize": [graph_reply(wrong)]}, hidden=hidden)
    out = run_pipeline(backend, "p")
    assert out.graph.node_names == ("Depot", "Mill", "Quay", "Yard")
    assert len(out.notes) == 1 and "deterministic result kept" in out.notes[0]


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
    hidden = dict(tsp_hidden(), graph=incomplete)
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
    assert stages.count("classify") == 3
    assert stages.count("extract_graph") == 1


def test_choose_algorithm_standalone():
    out = run_pipeline(OracleStubBackend(tsp_hidden()), "p")
    assert out.choice.record.algorithm_id == "held_karp"
    assert "exact" in out.choice.rationale


def path_hidden():
    graph = build_graph(["Ash", "Birch", "Cedar"], True, True,
                        [("Ash", "Birch", 2), ("Birch", "Cedar", 3), ("Ash", "Cedar", 9)])
    return {"problem_type": "shortest_path", "graph": graph,
            "source": "Ash", "target": "Cedar"}


@pytest.mark.parametrize("source, cause", [("none", GraphError), ("Zed", UnknownEndpointError)])
def test_solver_failure_is_named_solve_and_sends_no_wave_2(source, cause):
    reply = (f"```result:problem\nproblem_type: shortest_path\nobjective: o\n"
             f"source: {source}\ntarget: Cedar\n```")
    backend = StageScripted({"classify": [reply]}, hidden=path_hidden())
    with pytest.raises(PipelineError) as err:
        run_pipeline(backend, "p")
    assert err.value.stage == "solve"
    assert isinstance(err.value.__cause__, cause)
    assert [c.stage for c in err.value.partial_calls] == WAVE_1
    assert [stage for stage, _ in backend.seen] == WAVE_1


def test_selector_failure_is_named_select_and_sends_no_wave_2():
    incomplete = "# nodes: A B C\n# directed: false\n# weighted: true\nA B 1\nB C 2\n"
    backend = StageScripted({"extract_graph": [graph_reply(incomplete)]})
    with pytest.raises(PipelineError) as err:
        run_pipeline(backend, "p")
    assert err.value.stage == "select"
    assert isinstance(err.value.__cause__, NoApplicableAlgorithmError)
    assert [c.stage for c in err.value.partial_calls] == WAVE_1
    assert [stage for stage, _ in backend.seen] == WAVE_1


def test_every_template_asks_for_its_stage_tag():
    for stage, tag in TAGS.items():
        system, user = load_template(stage)
        assert system.startswith(f"[stage:{stage}]")
        assert f"```result:{tag}\n" in user


def test_every_template_belongs_to_a_stage():
    # a deleted stage must not leave its template behind
    templates = resources.files("graphcrew").joinpath("agents/templates")
    stems = {path.name.removesuffix(".txt") for path in templates.iterdir()
             if path.name.endswith(".txt")}
    assert stems - {"cot_directive"} == set(TAGS)


def test_render_stage_never_reads_a_slot_value_as_a_slot():
    _, user = render_stage("classify", {"problem": "drive {route}, then {problem}"})
    assert "drive {route}, then {problem}" in user
    with pytest.raises(TemplateError, match="has no slot {route}"):
        render_stage("classify", {"problem": "p", "route": "r"})
    with pytest.raises(TemplateError, match="slot {problem} of 'classify' was not filled"):
        render_stage("classify", {})


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


def test_run_direct_refuses_an_exponent_cost():
    reply = "```result:answer\norder: Depot, Mill, Quay, Yard\ncost: 1e9999999\n```"
    backend = StageScripted({"direct": [reply] * 3})
    start = time.perf_counter()
    outcome = run_direct(backend, "p")
    assert time.perf_counter() - start < 1
    assert outcome.solution is None
    assert "exponent notation is not accepted" in outcome.failure


class IOBound:
    """Wraps a backend as one that waits on I/O, so the pipeline puts its
    calls on threads.  Each call first waits at its stage's barrier, if it
    has one, then for a seeded random few milliseconds plus its stage's
    fixed delay, so replies come back in a varying order."""

    io_bound = True
    backend_id = "io-bound"

    def __init__(self, inner, barriers=None, delays=None, seed=0):
        self.inner = inner
        self.barriers = barriers or {}
        self.delays = delays or {}
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def complete(self, system_prompt, user_prompt, params=None):
        stage = stage_of_prompt(system_prompt)
        if stage in self.barriers:
            self.barriers[stage].wait()
        with self.lock:
            jitter = self.rng.uniform(0.0, 0.003)
        time.sleep(jitter + self.delays.get(stage, 0.0))
        return self.inner.complete(system_prompt, user_prompt, params)


def test_io_bound_backend_overlaps_each_wave():
    # Each barrier opens only when all of its wave's calls wait at it at
    # once; a schedule that issues them one by one breaks it and fails.
    wave1 = threading.Barrier(2, timeout=30)
    wave2 = threading.Barrier(4, timeout=30)
    barriers = {"classify": wave1, "extract_graph": wave1,
                "normalize": wave2, "select": wave2, "audit": wave2}
    threads_before = threading.active_count()
    out = run_pipeline(IOBound(OracleStubBackend(tsp_hidden()), barriers), "p")
    assert threading.active_count() == threads_before  # the pool is shut down
    assert not wave1.broken and not wave2.broken
    assert out == run_pipeline(OracleStubBackend(tsp_hidden()), "p")


def test_io_bound_path_matches_the_inline_path():
    def scripted():
        wrong = "# nodes: A B\n# directed: false\n# weighted: true\nA B 99\n"
        return StageScripted({
            "normalize": [f"```result:graph\n{wrong}```"],
            "select": ["```result:choice\nalgorithm: nearest_neighbor_2opt\nreason: vibes\n```"],
        })

    inline = run_pipeline(scripted(), "p", PipelineConfig(n_check=3))
    assert len(inline.notes) == 2
    for seed in range(20):
        threaded = run_pipeline(IOBound(scripted(), seed=seed), "p", PipelineConfig(n_check=3))
        assert threaded.calls == inline.calls
        assert threaded.notes == inline.notes
        assert threaded.audit_verdicts == inline.audit_verdicts
        assert threaded == inline


@pytest.mark.parametrize("io_bound", [False, True])
def test_earliest_stage_error_wins_and_every_call_is_kept(io_bound):
    def wrap(backend):
        # the earlier stage's failure comes back last
        delays = {"classify": 0.02, "normalize": 0.02}
        return IOBound(backend, delays=delays) if io_bound else backend

    junk = ["junk", "junk", "junk"]
    backend = StageScripted({"classify": list(junk), "extract_graph": list(junk)})
    with pytest.raises(ParseFailureError) as err:
        run_pipeline(wrap(backend), "p")
    assert err.value.stage == "classify"
    assert [c.stage for c in err.value.partial_calls] == ["classify"] * 3 + ["extract_graph"] * 3

    backend = StageScripted({"normalize": list(junk), "select": list(junk)})
    with pytest.raises(ParseFailureError) as err:
        run_pipeline(wrap(backend), "p")
    assert err.value.stage == "normalize"
    assert [c.stage for c in err.value.partial_calls] == [
        "classify", "extract_graph", *["normalize"] * 3, *["select"] * 3, "audit", "audit",
    ]
