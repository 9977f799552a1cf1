"""The regex reference extractor must invert the prose renderer exactly."""

import pytest

from graphcrew.dataset import build_instance
from graphcrew.dataset.extract import ExtractionError, reference_extract
from graphcrew.problems import NOISE_LEVELS, PROBLEM_TYPES, SCENARIOS, TSP


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
        # what the offline stub answers extract_graph with
        for n in (8, 16, 25):
            inst = build_instance(ptype, n, 0, master_seed=11, noise_level=noise,
                                  scenario=scenario)
            got = reference_extract(inst.text)
            assert (got.problem_type, got.graph, got.source, got.target) == (
                inst.problem_type, inst.graph, inst.source, inst.target), inst.instance_id

    @pytest.mark.parametrize("ending", [" \n", "\t\n", "\r\n", " \r\n"])
    def test_line_endings_and_trailing_blanks_change_nothing(self, ending):
        inst = build_instance(TSP, 8, 0, noise_level="heavy")
        got = reference_extract(ending.join(inst.text.split("\n")))
        assert got == reference_extract(inst.text)
        assert got.graph == inst.graph


class TestRejection:
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
