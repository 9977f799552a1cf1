"""Dataset generation: names, rendering, seeding, records."""

import json
import random
import re

import pytest

from graphcrew.dataset import (
    DatasetSpec,
    NoExactTruthError,
    build_instance,
    generate_dataset,
    generate_names,
    instance_seed,
    instance_to_record,
    load_reserved_words,
    read_instances,
    record_to_instance,
    write_instances,
    write_text_only,
)
from graphcrew.dataset.names import MAX_LENGTH, MIN_LENGTH
from graphcrew.dataset.records import dataset_manifest, file_checksum
from graphcrew.dataset.text import SCENARIO_STYLES, _QUESTIONS, render_problem_text
from graphcrew.graph import graph_stats
from graphcrew.problems import (
    CYCLE_DETECTION,
    GRAPH_COLORING,
    PROBLEM_TYPES,
    SHORTEST_PATH,
    TSP,
    VERTEX_COVER,
)

from oracles import (
    bellman_ford_cost,
    brute_chromatic_number,
    brute_min_cover_size,
    brute_tour_cost,
    has_cycle_undirected,
)


class TestNames:
    def test_deterministic_for_seed(self):
        a = generate_names(12, random.Random(5))
        b = generate_names(12, random.Random(5))
        assert a == b

    def test_unique_case_insensitive(self):
        names = generate_names(200, random.Random(1))
        assert len({n.lower() for n in names}) == 200

    def test_shape(self):
        for name in generate_names(300, random.Random(2)):
            assert name[0].isupper()
            assert name.isalpha()
            assert MIN_LENGTH <= len(name) <= MAX_LENGTH

    def test_never_reserved(self):
        reserved = load_reserved_words()
        for name in generate_names(500, random.Random(3)):
            assert name.lower() not in reserved

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_names(-1, random.Random(0))


class TestReservedWords:
    def test_templates_covered(self):
        """Every word a template can emit must be on the reserved list."""
        reserved = load_reserved_words()
        vocabulary = set()

        def add(template: str) -> None:
            cleaned = re.sub(r"\{[a-z_]+\}", " ", template)
            vocabulary.update(re.findall(r"[A-Za-z]+", cleaned.lower()))

        for style in SCENARIO_STYLES.values():
            add(style.roster_template)
            add(style.edge_weighted)
            add(style.edge_unweighted)
            for text in style.framings + style.descriptions + style.fillers:
                add(text)
            for text, _, _ in style.distractors:
                add(text)
            for field in (
                "node_noun", "node_noun_plural", "link_noun", "link_noun_plural",
                "unit", "agent", "monitor_plural", "slot_noun", "slot_noun_plural",
            ):
                add(getattr(style, field))
            vocabulary.add(style.unit_singular)
        for question in _QUESTIONS.values():
            add(question)

        missing = vocabulary - reserved
        assert not missing, f"templates emit unreserved words: {sorted(missing)}"


class TestRendering:
    def test_each_edge_stated_once(self):
        inst = build_instance(TSP, 8, 0, noise_level="heavy")
        style = SCENARIO_STYLES[inst.scenario]
        pattern = style.edge_weighted_pattern()
        stated = [
            line for line in inst.text.splitlines() if pattern.match(line.strip())
        ]
        assert len(stated) == len(inst.graph.edges)

    def test_noise_none_has_no_stray_numbers(self):
        # unweighted family with no noise: the only prose is structural,
        # so the text must contain no digits at all
        inst = build_instance(GRAPH_COLORING, 9, 0, noise_level="none")
        assert not re.search(r"\d", inst.text)

    def test_heavy_adds_distractor_per_node(self):
        inst = build_instance(VERTEX_COVER, 10, 0, noise_level="heavy")
        light = build_instance(VERTEX_COVER, 10, 0, noise_level="none")
        # heavy text strictly longer, and it mentions numbers that are not weights
        assert len(inst.text) > len(light.text)
        assert re.search(r"\d", inst.text)
        assert not re.search(r"\d", light.text)

    def test_question_mentions_endpoints(self):
        inst = build_instance(SHORTEST_PATH, 8, 1)
        assert inst.source in inst.text
        assert inst.target in inst.text
        assert f"from {inst.source} to {inst.target}" in inst.text

    def test_narrative_is_nonstructural(self):
        inst = build_instance(TSP, 8, 2, noise_level="standard")
        style = SCENARIO_STYLES[inst.scenario]
        pattern = style.edge_weighted_pattern()
        for line in inst.narrative.splitlines():
            assert not pattern.match(line.strip())

    def test_unknown_noise_rejected(self):
        inst = build_instance(TSP, 8, 0)
        with pytest.raises(ValueError):
            render_problem_text(
                inst.graph, TSP, inst.scenario, "extreme", random.Random(0)
            )


class TestSeeding:
    def test_instance_seed_distinct_across_cells(self):
        seeds = {
            instance_seed(7, ptype, n, i)
            for ptype in PROBLEM_TYPES
            for n in (8, 9)
            for i in range(5)
        }
        assert len(seeds) == len(PROBLEM_TYPES) * 2 * 5

    def test_master_seed_changes_everything(self):
        a = build_instance(TSP, 8, 0, master_seed=7)
        b = build_instance(TSP, 8, 0, master_seed=8)
        assert a.graph != b.graph

    def test_build_is_deterministic(self):
        a = build_instance(SHORTEST_PATH, 10, 3, noise_level="heavy")
        b = build_instance(SHORTEST_PATH, 10, 3, noise_level="heavy")
        assert a == b

    def test_parallel_generation_matches_serial(self, tmp_path):
        spec = DatasetSpec(TSP, min_nodes=8, max_nodes=9, instances_per_size=2)
        serial = generate_dataset(spec)
        parallel = generate_dataset(spec, workers=2)
        assert serial == parallel
        assert [i.instance_id for i in serial] == [
            "tsp-n08-i00", "tsp-n08-i01", "tsp-n09-i00", "tsp-n09-i01",
        ]


class TestGraphFamilies:
    def test_tour_instances_are_complete_weighted(self):
        inst = build_instance(TSP, 9, 4)
        stats = graph_stats(inst.graph)
        assert stats.is_complete and inst.graph.weighted and not inst.graph.directed

    def test_sparse_families_are_connected(self):
        for ptype in (GRAPH_COLORING, VERTEX_COVER, SHORTEST_PATH):
            for idx in range(5):
                inst = build_instance(ptype, 10, idx)
                assert graph_stats(inst.graph).is_connected, (ptype, idx)

    def test_route_endpoints_distinct_and_present(self):
        inst = build_instance(SHORTEST_PATH, 8, 7)
        assert inst.source != inst.target
        assert inst.source in inst.graph.node_names
        assert inst.target in inst.graph.node_names

    def test_cycle_instances_are_near_trees(self):
        saw_tree = saw_cycle = False
        for idx in range(20):
            inst = build_instance(CYCLE_DETECTION, 9, idx)
            n = inst.graph.node_count
            m = inst.graph.edge_count
            assert m in (n - 1, n)
            expected = has_cycle_undirected(inst.graph)
            assert inst.truth.optimal.payload == expected
            assert expected == (m == n)
            saw_tree |= not expected
            saw_cycle |= expected
        assert saw_tree and saw_cycle


class TestGroundTruth:
    def test_tour_truth_is_optimal(self):
        inst = build_instance(TSP, 8, 5)
        assert inst.truth.optimal.objective == brute_tour_cost(inst.graph)
        assert inst.truth.optimal.exact

    def test_coloring_truth_is_optimal(self):
        inst = build_instance(GRAPH_COLORING, 9, 2)
        assert inst.truth.optimal.objective == brute_chromatic_number(inst.graph)

    def test_cover_truth_is_optimal(self):
        inst = build_instance(VERTEX_COVER, 9, 2)
        assert inst.truth.optimal.objective == brute_min_cover_size(inst.graph)

    def test_route_truth_matches_relaxation(self):
        inst = build_instance(SHORTEST_PATH, 10, 1)
        assert inst.truth.optimal.objective == bellman_ford_cost(
            inst.graph, inst.source, inst.target
        )

    def test_approximate_slot_holds_heuristic(self):
        inst = build_instance(TSP, 8, 0)
        assert inst.truth.approximate.algorithm_id == "nearest_neighbor_2opt"
        assert not inst.truth.approximate.exact
        assert inst.truth.approximate.objective >= inst.truth.optimal.objective

    def test_truth_is_exact_or_refused(self):
        inst = build_instance(TSP, 18, 0)
        assert inst.truth.optimal.algorithm_id == "held_karp"
        assert inst.truth.optimal.exact
        assert inst.truth.optimal.objective <= inst.truth.approximate.objective
        with pytest.raises(NoExactTruthError) as err:
            build_instance(TSP, 26, 0)
        assert isinstance(err.value, ValueError)
        assert "limit of 25" in str(err.value)


class TestRecords:
    def test_round_trip_identity(self):
        for ptype in PROBLEM_TYPES:
            inst = build_instance(ptype, 8, 0)
            assert record_to_instance(instance_to_record(inst)) == inst

    def test_jsonl_round_trip(self, tmp_path):
        instances = generate_dataset(
            DatasetSpec(VERTEX_COVER, min_nodes=8, max_nodes=9, instances_per_size=2)
        )
        path = tmp_path / "vc.jsonl"
        write_instances(instances, path)
        assert read_instances(path) == instances

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = DatasetSpec(GRAPH_COLORING, min_nodes=8, max_nodes=9, instances_per_size=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_instances(generate_dataset(spec), a)
        write_instances(generate_dataset(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_text_only_export_hides_everything(self, tmp_path):
        instances = [build_instance(TSP, 8, 0)]
        path = tmp_path / "public.jsonl"
        write_text_only(instances, path)
        record = json.loads(path.read_text().strip())
        assert set(record) == {"id", "problem_type", "text"}
        truth_value = str(instances[0].truth.optimal.objective)
        assert f'"{truth_value}"' not in path.read_text()

    def test_text_only_instances_refuse_hidden_payload(self, tmp_path):
        instances = [build_instance(TSP, 8, 0)]
        path = tmp_path / "public.jsonl"
        write_text_only(instances, path)
        lite = read_instances(path)[0]
        assert lite.graph is None and lite.truth is None
        with pytest.raises(ValueError):
            lite.hidden_payload()

    def test_record_needs_id_and_text(self):
        with pytest.raises(ValueError):
            record_to_instance({"id": "x"})

    def test_bad_json_line_reports_position(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a", "text": "t"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_instances(path)

    def test_manifest_checksum_tracks_content(self, tmp_path):
        spec = DatasetSpec(TSP, min_nodes=8, max_nodes=8, instances_per_size=1)
        path = tmp_path / "tsp.jsonl"
        write_instances(generate_dataset(spec), path)
        manifest = dataset_manifest(spec, path)
        assert manifest["instance_count"] == 1
        assert manifest["sha256"] == file_checksum(path)
        path.write_text(path.read_text() + "\n")
        assert dataset_manifest(spec, path)["sha256"] != manifest["sha256"]


class TestSpecValidation:
    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(TSP, noise_level="loud")

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(TSP, scenario="space")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(TSP, min_nodes=2)
        with pytest.raises(ValueError):
            DatasetSpec(TSP, min_nodes=10, max_nodes=9)

    def test_defaults_match_published_shape(self):
        spec = DatasetSpec(TSP)
        assert (spec.min_nodes, spec.max_nodes, spec.instances_per_size) == (8, 25, 50)
        assert spec.instance_count == 900
