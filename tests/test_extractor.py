"""The regex reference extractor must invert the prose renderer exactly."""

from types import SimpleNamespace

import pytest

from graphcrew.agents import Completion
from graphcrew.agents.pipeline import PipelineError, _ask, _extract
from graphcrew.agents.prompts import cot_directive, render_stage
from graphcrew.dataset import build_instance, extract
from graphcrew.dataset.extract import ExtractionError, reference_extract
from graphcrew.dataset.text import SCENARIO_STYLES, question_sentence
from graphcrew.problems import NOISE_LEVELS, PROBLEM_TYPES, SCENARIOS, SHORTEST_PATH, TSP


def _feedback_tail(line):
    """What the pipeline appends to an ``extract_graph`` prompt once a
    reply whose edge list holds ``line`` is rejected: feedback quoting it."""
    prompts = []

    def complete(system, user):
        prompts.append(user)
        return Completion(f"```result:problem\nproblem_type: tsp\n```\n"
                          f"```result:graph\n{line}\n```", 0, 0)

    with pytest.raises(PipelineError):
        _ask(SimpleNamespace(complete=complete), "extract_graph", {"problem": "p"}, [], _extract)
    assert repr(line) in prompts[1]
    return prompts[1][len(prompts[0]):]


def _prompts(statement):
    """Every user prompt that quotes ``statement``: each stage's, direct in both modes."""
    slots = [("extract_graph", {}), ("direct", {"directive": ""}),
             ("direct", {"directive": cot_directive() + "\n\n"})]
    return [render_stage(stage, {**extra, "problem": statement})[1] for stage, extra in slots]


class TestExactRecovery:
    @pytest.mark.parametrize("ptype", PROBLEM_TYPES)
    @pytest.mark.parametrize("noise", NOISE_LEVELS)
    def test_recovers_graph_at_every_noise_level(self, ptype, noise):
        for idx in range(4):
            inst = build_instance(ptype, 9, idx, noise_level=noise)
            got = reference_extract(inst.text)
            assert got.graph == inst.graph, (ptype, noise, idx)
            assert got.source == inst.source
            assert got.target == inst.target

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_recovers_under_any_cover_story(self, scenario):
        inst = build_instance(TSP, 8, 0, scenario=scenario, noise_level="heavy")
        assert reference_extract(inst.text).graph == inst.graph

    def test_singular_unit_weight_one(self):
        # weight-1 edges render with a singular unit; extraction still works
        found = None
        for idx in range(40):
            inst = build_instance(TSP, 8, idx, noise_level="none")
            if any(w == 1 for _, _, w in inst.graph.edges):
                found = inst
                break
        assert found is not None, "no weight-1 edge in the sweep; widen it"
        assert reference_extract(found.text).graph == found.graph


class TestReader:
    @pytest.mark.parametrize("ptype", PROBLEM_TYPES)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("noise", NOISE_LEVELS)
    def test_reads_family_graph_and_route(self, ptype, scenario, noise):
        # what the offline stub answers with: it reads its whole prompt,
        # template lines and any retry feedback included, as the statement
        # it quotes; the feedback quotes a roster, an edge and a question
        # that are not the statement's
        style = SCENARIO_STYLES[scenario]
        other = TSP if ptype == SHORTEST_PATH else SHORTEST_PATH
        for n in (8, 16, 25):
            inst = build_instance(ptype, n, 0, master_seed=11, noise_level=noise,
                                  scenario=scenario)
            got = reference_extract(inst.text)
            assert (got.problem_type, got.graph, got.source, got.target) == (
                inst.problem_type, inst.graph, inst.source, inst.target), inst.instance_id
            a = inst.graph.node_names[0]
            edge = (style.edge_weighted.format(u=a, v="Zayin", w=7, unit=style.unit)
                    if inst.graph.weighted else style.edge_unweighted.format(u=a, v="Zayin"))
            roster = style.roster_template.format(names=f"{a}, Zayin")
            question = question_sentence(other, style, a, "Zayin")
            for tail in ("", *map(_feedback_tail, (roster, edge, question))):
                for prompt in _prompts(inst.text):
                    assert reference_extract(prompt + tail) == got, inst.instance_id

    @pytest.mark.parametrize("ending", [" \n", "\t\n", "\r\n", " \r\n"])
    def test_line_endings_and_trailing_blanks_change_nothing(self, ending):
        inst = build_instance(TSP, 8, 0, noise_level="heavy")
        got = reference_extract(ending.join(inst.text.split("\n")))
        assert got == reference_extract(inst.text)
        assert got.graph == inst.graph


class TestRejection:
    def test_no_template_line_reads_as_a_fact(self):
        # each stage's prompt around an empty problem is no problem at all
        for prompt in _prompts(""):
            with pytest.raises(ExtractionError, match="no roster sentence found"):
                reference_extract(prompt)
            patterns = [*extract._ROSTERS, *extract._WEIGHTED, *extract._UNWEIGHTED,
                        *extract._QUESTION_PATTERNS.values()]
            assert [p.pattern for p in patterns if p.search(prompt)] == []

    def test_no_roster_is_an_error(self):
        with pytest.raises(ExtractionError, match="roster"):
            reference_extract("Just some words with no structure at all.")

    def test_no_question_is_an_error(self):
        inst = build_instance(TSP, 8, 0, noise_level="none")
        statement = inst.text.rsplit("\n\n", 1)[0]
        with pytest.raises(ExtractionError, match="no question sentence found"):
            reference_extract(statement)

    def test_mixed_fact_styles_rejected(self):
        inst_w = build_instance(TSP, 8, 0, noise_level="none")
        text = inst_w.text + "\nA footpath joins Alpha and Beta."
        with pytest.raises(ExtractionError, match="mixed"):
            reference_extract(text)

    def test_distractors_never_parse_as_edges(self):
        inst = build_instance(TSP, 8, 0, noise_level="heavy")
        plain = build_instance(TSP, 8, 0, noise_level="none")
        assert reference_extract(inst.text).graph == reference_extract(plain.text).graph
