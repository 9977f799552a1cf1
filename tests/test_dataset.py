"""Dataset generation: names, rendering, seeding, records."""

import gc
import json
import random
import re
import tracemalloc

import pytest

from graphcrew.dataset import (
    DatasetSpec,
    build_instance,
    extract,
    generate_dataset,
    generate_names,
    instance_seed,
    instance_to_record,
    read_instances,
    read_results,
    record_to_instance,
    text_digest,
    write_instances,
    write_jsonl,
)
from graphcrew.dataset.names import MAX_LENGTH, MIN_LENGTH
from graphcrew.dataset.records import dataset_manifest, file_checksum
from graphcrew.dataset.text import RESERVED_WORDS, render_problem_text
from graphcrew.formats import parse_graph, serialize_graph
from graphcrew.graph import is_connected
from graphcrew.knowledge import ROUTES, NoApplicableAlgorithmError
from graphcrew.solvers import solution_to_dict
from graphcrew.problems import (
    BOOLEAN,
    CYCLE_DETECTION,
    GRAPH_COLORING,
    NOISE_LEVELS,
    PROBLEM_TYPES,
    SCENARIOS,
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
        for name in generate_names(500, random.Random(3)):
            assert name.lower() not in RESERVED_WORDS

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_names(-1, random.Random(0))


class TestReservedWords:
    def test_rendered_words_are_reserved_and_names_are_not(self):
        """Over every family, scenario and noise level at both ends of the
        sweep, each word of a statement is a node name or a reserved word,
        never both; the grid emits every reserved word, so the set holds
        exactly what the templates emit."""
        emitted = set()
        for problem_type in PROBLEM_TYPES:
            for n in (8, 25):
                for scenario in SCENARIOS:
                    for noise in NOISE_LEVELS:
                        inst = build_instance(problem_type, n, 0, 7, noise, scenario)
                        names = {name.lower() for name in inst.graph.node_names}
                        assert not names & RESERVED_WORDS
                        words = {w.lower() for w in re.findall(r"[A-Za-z]+", inst.text)}
                        emitted |= words - names
        assert emitted == RESERVED_WORDS


class TestRendering:
    def test_each_edge_stated_once(self):
        # the reader's edge patterns, of every scenario: only the
        # statement's own scenario states edges, one line each
        inst = build_instance(TSP, 8, 0, noise_level="heavy")
        stated = [line for line in inst.text.splitlines()
                  if any(pattern.match(line.strip()) for pattern in extract._WEIGHTED)]
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
        serial = list(generate_dataset(spec))
        parallel = list(generate_dataset(spec, workers=2))
        assert serial == parallel
        assert [i.instance_id for i in serial] == [
            "tsp-n08-i00", "tsp-n08-i01", "tsp-n09-i00", "tsp-n09-i01",
        ]


class TestGraphFamilies:
    def test_tour_instances_are_complete_weighted(self):
        inst = build_instance(TSP, 9, 4)
        assert inst.graph.is_complete and inst.graph.weighted

    def test_sparse_families_are_connected(self):
        for ptype in (GRAPH_COLORING, VERTEX_COVER, SHORTEST_PATH):
            for idx in range(5):
                inst = build_instance(ptype, 10, idx)
                assert is_connected(inst.graph), (ptype, idx)

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
        # past each exact route's limit in the route table, the only limit there is
        for route in ROUTES:
            if route.algorithm_id in ("held_karp", "exact_coloring", "bnb_cover"):
                limit = route.max_nodes
                with pytest.raises(NoApplicableAlgorithmError) as err:
                    build_instance(route.problem_type, limit + 1, 0)
                assert isinstance(err.value, ValueError)
                assert f"no exact {route.problem_type} route" in str(err.value)
                assert f"limit of {limit}" in str(err.value)
                # the refusal names the exact row and why it does not fit, nothing more
                assert str(err.value).endswith(
                    f"route fits a graph of {limit + 1} nodes "
                    f"({route.algorithm_id}: {limit + 1} nodes exceeds its "
                    f"limit of {limit})")


class TestRecords:
    def test_round_trip_identity(self):
        for ptype in PROBLEM_TYPES:
            inst = build_instance(ptype, 8, 0)
            assert record_to_instance(instance_to_record(inst)) == inst

    def test_jsonl_round_trip(self, tmp_path):
        instances = list(generate_dataset(
            DatasetSpec(VERTEX_COVER, min_nodes=8, max_nodes=9, instances_per_size=2)
        ))
        path = tmp_path / "vc.jsonl"
        write_instances(instances, path, tmp_path / "vc.text.jsonl")
        assert read_instances(path) == instances

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = DatasetSpec(GRAPH_COLORING, min_nodes=8, max_nodes=9, instances_per_size=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_instances(generate_dataset(spec), a, tmp_path / "a.text.jsonl")
        write_instances(generate_dataset(spec), b, tmp_path / "b.text.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.text.jsonl").read_bytes() == (tmp_path / "b.text.jsonl").read_bytes()

    def test_jsonl_is_written_line_by_line(self, tmp_path):
        # a generator of about 2 MB of records: a writer that joined the
        # file before writing it would hold all of it at once
        path = tmp_path / "big.jsonl"
        records = ({"id": i, "text": "é\n" + "x" * 1000} for i in range(2000))
        tracemalloc.start()
        try:
            write_jsonl(records, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert peak < size / 4
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2000
        assert lines[1] == '{"id":1,"text":"é\\n' + "x" * 1000 + '"}'

    def test_jsonl_appears_only_once_complete(self, tmp_path):
        # records that stop part-way, as a killed run's do, leave no
        # truncated file that a reader would take for a shorter run
        path = tmp_path / "results.jsonl"

        def records():
            yield {"id": 0}
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_jsonl(records(), path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("problem_type", PROBLEM_TYPES)
    def test_read_solutions_hold_their_graphs_names(self, tmp_path, problem_type):
        # each node name read back is the graph's own string, not a copy,
        # in the stored truth and in a results answer alike
        spec = DatasetSpec(problem_type, min_nodes=8, max_nodes=9, instances_per_size=2)
        path, results = tmp_path / "instances.jsonl", tmp_path / "results.jsonl"
        write_instances(generate_dataset(spec), path, tmp_path / "instances.text.jsonl")
        instances = read_instances(path)
        write_jsonl(({"id": inst.instance_id, "text_sha256": text_digest(inst.text),
                      "status": "ok", "solution": solution_to_dict(inst.truth.approximate)}
                     for inst in instances), results)
        answers = read_results(results, {inst.instance_id: inst for inst in instances})
        for inst, answer in zip(instances, answers, strict=True):
            own = {id(name) for name in inst.graph.node_names}
            for solution in (inst.truth.optimal, inst.truth.approximate, answer.solution):
                names = () if solution.kind == BOOLEAN else solution.payload
                assert all(id(name) in own for name in names)
            if problem_type in (SHORTEST_PATH, CYCLE_DETECTION):
                # these families store the optimum in both truth slots
                assert inst.truth.approximate is inst.truth.optimal

    @pytest.mark.parametrize("problem_type", PROBLEM_TYPES)
    def test_a_read_holds_one_tuple_per_distinct_edge(self, tmp_path, problem_type):
        # an edge equal in several graphs of one file is one shared triple
        spec = DatasetSpec(problem_type, min_nodes=8, max_nodes=9, instances_per_size=10)
        path = tmp_path / "instances.jsonl"
        write_instances(generate_dataset(spec), path, tmp_path / "instances.text.jsonl")
        edges = [edge for inst in read_instances(path) for edge in inst.graph.edges]
        assert len({id(edge) for edge in edges}) == len(set(edges)) < len(edges)

    def test_no_table_outlives_a_read(self, tmp_path):
        def tsp_file(seed):
            spec = DatasetSpec(TSP, master_seed=seed, min_nodes=8, max_nodes=9,
                               instances_per_size=4)
            path = tmp_path / f"tsp{seed}.jsonl"
            write_instances(generate_dataset(spec), path, tmp_path / f"tsp{seed}.text.jsonl")
            return path

        # another seed's weights, so a table kept from the first read
        # would still grow on the measured one
        warm, measured = tsp_file(1), tsp_file(2)
        read_instances(warm)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            instances = read_instances(measured)
            del instances
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert left < 4096
        # each graph parsed with no table, and each read, has triples of its own
        graphs = [inst.graph for inst in read_instances(measured)]
        text = serialize_graph(graphs[0])
        reads = [graphs, [parse_graph(text)], [parse_graph(text)],
                 [inst.graph for inst in read_instances(measured)]]
        assert reads[1] == reads[2] == graphs[:1]
        seen: set[int] = set()
        for read in reads:
            ids = {id(edge) for graph in read for edge in graph.edges}
            assert seen.isdisjoint(ids)
            seen |= ids

    def test_text_only_export_hides_everything(self, tmp_path):
        instances = [build_instance(TSP, 8, 0)]
        path = tmp_path / "public.jsonl"
        write_instances(instances, tmp_path / "full.jsonl", path)
        record = json.loads(path.read_text().strip())
        assert set(record) == {"id", "problem_type", "text"}
        truth_value = str(instances[0].truth.optimal.objective)
        assert f'"{truth_value}"' not in path.read_text()

    def test_text_only_instances_carry_no_hidden_data(self, tmp_path):
        instances = [build_instance(TSP, 8, 0)]
        path = tmp_path / "public.jsonl"
        write_instances(instances, tmp_path / "full.jsonl", path)
        lite = read_instances(path)[0]
        assert lite.graph is None and lite.truth is None
        assert lite.source is None and lite.target is None
        assert lite.text == instances[0].text

    def test_record_needs_id_and_text(self):
        with pytest.raises(ValueError):
            record_to_instance({"id": "x"})

    def test_bad_json_line_reports_position(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a", "text": "t"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_instances(path)

    def test_non_utf8_line_reports_file_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_bytes(b'{"id": "a", "text": "t"}\n{"id": "b", "text": "caf\xe9"}\n')
        with pytest.raises(ValueError) as err:
            read_instances(path)
        assert str(err.value) == (f"{path}: line 2: not UTF-8 text ('utf-8' codec can't decode "
                                  "byte 0xe9 in position 24: invalid continuation byte)")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda hidden: hidden["truth"]["optimal"].pop("kind"), "(KeyError: 'kind')"),
        (lambda hidden: hidden.update(graph=hidden["graph"].replace("weighted: true",
                                                                     "weighted: yes")),
         "(ParseError: line 2, column 13: expected 'true' or 'false', got 'yes')"),
        (lambda hidden: hidden.update(truth=5),
         "(TypeError: 'int' object is not subscriptable)"),
    ], ids=["truth-without-kind", "bad-hidden-graph", "truth-not-an-object"])
    def test_malformed_record_names_its_file_line(self, tmp_path, corrupt, message):
        path = tmp_path / "tsp.jsonl"
        spec = DatasetSpec(TSP, min_nodes=8, max_nodes=8, instances_per_size=2)
        public = tmp_path / "tsp.text.jsonl"
        write_instances(generate_dataset(spec), path, public)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        corrupt(record["hidden"])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_instances(path)
        assert str(err.value) == f"{path}: line 2: malformed instance {message}"
        # a statement read never parses the hidden section: it reads the
        # corrupt file as it reads the text-only one
        assert read_instances(path, statements_only=True) == read_instances(public)

    def test_manifest_checksum_tracks_content(self, tmp_path):
        spec = DatasetSpec(TSP, min_nodes=8, max_nodes=8, instances_per_size=1)
        path = tmp_path / "tsp.jsonl"
        write_instances(generate_dataset(spec), path, tmp_path / "tsp.text.jsonl")
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
