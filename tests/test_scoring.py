"""Scoring: half node set, half result, recomputed not quoted."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from graphcrew.dataset import build_instance
from graphcrew.evaluation import (
    InstanceScore,
    aggregate_scores,
    overall_summary,
    score_failure,
    TruthDefectError,
    score_prediction,
)
from graphcrew.problems import (
    CYCLE_DETECTION,
    GRAPH_COLORING,
    KIND_BY_PROBLEM,
    SHORTEST_PATH,
    TSP,
    VERTEX_COVER,
)
from graphcrew.solvers import Solution

from oracles import recomputing_score_prediction


@pytest.fixture(scope="module")
def tour_instance():
    return build_instance(TSP, 8, 0)


class TestFormulaCases:
    def test_both_correct_scores_one(self, tour_instance):
        truth = tour_instance.truth.optimal
        score = score_prediction(truth, truth, TSP, tour_instance.graph)
        assert (score.acc_nodes, score.acc_result, score.acc_all) == (1, 1, 1)

    def test_right_value_wrong_payload_scores_half(self, tour_instance):
        truth = tour_instance.truth.optimal
        # claims the true cost but presents a broken ordering
        broken = replace(truth, payload=truth.payload[:-1])
        score = score_prediction(broken, truth, TSP, tour_instance.graph)
        assert score.acc_nodes == 0
        assert score.acc_result == 1
        assert score.acc_all == Fraction(1, 2)

    def test_both_wrong_scores_zero(self, tour_instance):
        truth = tour_instance.truth.optimal
        wrong = replace(
            truth, payload=truth.payload[:-1], objective=truth.objective + 1
        )
        score = score_prediction(wrong, truth, TSP, tour_instance.graph)
        assert (score.acc_nodes, score.acc_result, score.acc_all) == (0, 0, 0)

    def test_valid_suboptimal_payload_earns_no_node_point(self):
        # instance chosen because its heuristic tour is strictly worse
        inst = build_instance(TSP, 10, 2)
        truth = inst.truth.optimal
        approx = inst.truth.approximate
        assert approx.objective > truth.objective
        score = score_prediction(approx, truth, TSP, inst.graph)
        assert score.acc_nodes == 0
        assert score.acc_result == 0


    def test_valid_answer_beating_the_truth_is_refused(self):
        # the stored "optimum" is the heuristic tour, the answer the true one
        inst = build_instance(TSP, 10, 2)
        truth, approx = inst.truth.optimal, inst.truth.approximate
        with pytest.raises(TruthDefectError) as err:
            score_prediction(truth, approx, TSP, inst.graph)
        assert (err.value.objective, err.value.optimum) == (truth.objective, approx.objective)
        # a payload that is not a tour beats nothing
        broken = replace(truth, payload=truth.payload[:-1])
        assert score_prediction(broken, approx, TSP, inst.graph).acc_nodes == 0


class TestRecomputationRule:
    def test_stated_objective_never_vouches_for_payload(self, tour_instance):
        truth = tour_instance.truth.optimal
        # perfect payload, wrong stated value: node point stands, result lost
        lying = replace(truth, objective=truth.objective + 5)
        score = score_prediction(lying, truth, TSP, tour_instance.graph)
        assert score.acc_nodes == 1
        assert score.acc_result == 0
        assert score.acc_all == Fraction(1, 2)

    def test_any_optimal_payload_accepted(self, tour_instance):
        truth = tour_instance.truth.optimal
        order = truth.payload
        # same cycle entered at a different node: equally optimal
        rotated = replace(truth, payload=order[3:] + order[:3])
        score = score_prediction(rotated, truth, TSP, tour_instance.graph)
        assert score.acc_nodes == 1

    def test_foreign_node_names_break_the_payload(self, tour_instance):
        truth = tour_instance.truth.optimal
        alien = replace(truth, payload=("Nowhere",) + truth.payload[1:])
        score = score_prediction(alien, truth, TSP, tour_instance.graph)
        assert score.acc_nodes == 0

    def test_path_payload_recomputed_on_hidden_graph(self):
        inst = build_instance(SHORTEST_PATH, 8, 1)
        truth = inst.truth.optimal
        score = score_prediction(
            truth, truth, SHORTEST_PATH, inst.graph,
            source=inst.source, target=inst.target,
        )
        assert score.acc_all == 1

    def test_coloring_objective_is_distinct_color_count(self):
        inst = build_instance(GRAPH_COLORING, 8, 0)
        truth = inst.truth.optimal
        # inflate the claimed count; payload still optimal
        lying = replace(truth, objective=truth.objective + 1)
        score = score_prediction(lying, truth, GRAPH_COLORING, inst.graph)
        assert score.acc_nodes == 1 and score.acc_result == 0


FAMILIES = (TSP, GRAPH_COLORING, VERTEX_COVER, SHORTEST_PATH, CYCLE_DETECTION)


@lru_cache(maxsize=None)
def built(problem_type, node_count, index):
    return build_instance(problem_type, node_count, index)


def mutated(draw, graph, solution):
    """``solution`` with one structural mutation of its payload, or none,
    possibly a wrong stated objective, and possibly another family's kind."""
    names = graph.node_names
    payload = solution.payload
    if solution.kind == "boolean":
        if draw(st.booleans()):
            payload = not payload
    elif solution.kind == "coloring":
        colors = dict(payload)
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        mutation = draw(st.sampled_from(["keep", "drop", "swap", "foreign", "clash"]))
        if mutation == "drop":
            del colors[a]
        elif mutation == "swap":
            colors[a], colors[b] = colors[b], colors[a]
        elif mutation == "foreign":
            colors["Nowhere"] = colors.pop(a)
        elif mutation == "clash" and graph.edges:
            u, v, _ = draw(st.sampled_from(graph.edges))
            colors[names[u]] = colors[names[v]]
        payload = colors
    else:
        seq = list(payload)
        i, j = (draw(st.integers(0, len(seq) - 1)) for _ in range(2))
        mutation = draw(st.sampled_from(
            ["keep", "drop", "duplicate", "swap", "foreign"]
            + {"tour": ["rotate", "reverse"], "node_set": ["extra"], "path": ["empty"]}[solution.kind]
        ))
        if mutation == "drop":
            del seq[i]
        elif mutation == "duplicate":
            seq.insert(j, seq[i])
        elif mutation == "swap":
            seq[i], seq[j] = seq[j], seq[i]
        elif mutation == "foreign":
            seq[i] = "Nowhere"
        elif mutation == "rotate":
            seq = seq[i:] + seq[:i]
        elif mutation == "reverse":
            seq.reverse()
        elif mutation == "extra":
            seq += [name for name in names if name not in seq][:1]
        elif mutation == "empty":
            seq = []
        payload = tuple(seq)
    objective = solution.objective
    if draw(st.booleans()):
        objective += draw(st.sampled_from([-2, -1, 1, 2]))
    kind = solution.kind
    if draw(st.integers(0, 3)) == 3:
        kind = draw(st.sampled_from(sorted(set(KIND_BY_PROBLEM.values()) - {kind})))
    return replace(solution, kind=kind, payload=payload, objective=objective)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_scoring_matches_the_recomputing_scorer(data):
    family = data.draw(st.sampled_from(FAMILIES))
    inst = built(family, data.draw(st.sampled_from([8, 10])), data.draw(st.integers(0, 2)))
    answers = [inst.truth.optimal, inst.truth.approximate]
    truth = data.draw(st.sampled_from(answers))
    prediction = mutated(data.draw, inst.graph, data.draw(st.sampled_from(answers)))

    def outcome(scorer):
        try:
            return scorer(prediction, truth, family, inst.graph,
                          source=inst.source, target=inst.target, instance_id=inst.instance_id)
        except TruthDefectError as exc:
            return ("truth defect", exc.objective, exc.optimum)

    assert outcome(score_prediction) == outcome(recomputing_score_prediction)


class TestBooleanTasks:
    def test_boolean_scored_by_result_alone(self):
        inst = build_instance(CYCLE_DETECTION, 8, 0)
        truth = inst.truth.optimal
        score = score_prediction(truth, truth, CYCLE_DETECTION, inst.graph)
        assert score.acc_all == score.acc_result == 1
        wrong = replace(truth, payload=not truth.payload,
                        objective=1 - truth.objective)
        score = score_prediction(wrong, truth, CYCLE_DETECTION, inst.graph)
        assert score.acc_all == score.acc_result == 0


class TestKindHandling:
    def test_lenient_wrapper_turns_mismatch_into_failure(self, tour_instance):
        truth = tour_instance.truth.optimal
        cover = Solution(
            kind="node_set", payload=frozenset({"A"}), objective=1,
            algorithm_id="direct", exact=False,
        )
        score = score_prediction(cover, truth, TSP, tour_instance.graph, instance_id="x")
        assert score == score_failure("x", TSP, "tsp expects a tour answer, got node_set")


class TestAggregation:
    def _score(self, acc_nodes, acc_result, ptype=TSP, failed=False, ident="i"):
        nodes = Fraction(acc_nodes)
        result = Fraction(acc_result)
        return InstanceScore(
            instance_id=ident,
            problem_type=ptype,
            acc_nodes=nodes,
            acc_result=result,
            acc_all=(nodes + result) / 2,
            failure_reason="boom" if failed else None,
        )

    def test_mean_of_mixed_scores(self):
        scores = [self._score(1, 1), self._score(0, 1), self._score(0, 0)]
        overall = overall_summary(scores)
        assert overall.mean_acc_all == Fraction(1, 2)
        assert overall.error_rate == 0

    def test_failures_count_toward_error_rate(self):
        scores = [self._score(1, 1) for _ in range(9)]
        scores.append(self._score(0, 0, failed=True))
        overall = overall_summary(scores)
        assert overall.mean_acc_all == Fraction(9, 10)
        assert overall.error_rate == Fraction(1, 10)

    def test_grouped_by_task(self):
        scores = [
            self._score(1, 1, ptype=TSP),
            self._score(0, 0, ptype=VERTEX_COVER, failed=True),
        ]
        table = aggregate_scores(scores)
        assert set(table) == {TSP, VERTEX_COVER}
        assert table[TSP].mean_acc_all == 1
        assert table[VERTEX_COVER].error_rate == 1

    def test_empty_aggregation_rejected(self):
        with pytest.raises(ValueError):
            aggregate_scores([])
        with pytest.raises(ValueError):
            overall_summary([])

    def test_failure_scores_are_all_zero(self):
        score = score_failure("id1", TSP, "stage classify: backend failed")
        assert (score.acc_nodes, score.acc_result, score.acc_all) == (0, 0, 0)
        assert score.failure_reason == "stage classify: backend failed"

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
            min_size=1,
            max_size=30,
        )
    )
    def test_means_stay_in_unit_interval(self, pairs):
        scores = [
            self._score(nodes, result, ident=str(i))
            for i, (nodes, result) in enumerate(pairs)
        ]
        overall = overall_summary(scores)
        for value in (overall.mean_acc_all, overall.mean_acc_nodes,
                      overall.mean_acc_result, overall.error_rate):
            assert 0 <= value <= 1
        for score in scores:
            assert score.acc_all in (0, Fraction(1, 2), 1)
