from dataclasses import replace

import pytest

from graphcrew import knowledge
from graphcrew.dataset import build_instance, ground_truth
from graphcrew.execute import run_algorithm
from graphcrew.graph import GraphError, build_graph
from graphcrew.knowledge import (
    ROUTES,
    NoApplicableAlgorithmError,
    applicability_reason,
    select_algorithm,
)
from graphcrew.problems import (
    CYCLE_DETECTION,
    GRAPH_COLORING,
    KIND_BY_PROBLEM,
    PROBLEM_TYPES,
    SHORTEST_PATH,
)
from graphcrew.solvers import (
    coloring_exact,
    detect_cycle,
    measure,
    shortest_path_dijkstra,
    tsp_exact_held_karp,
    vertex_cover_exact,
)

from util import complete_graph, gnp_graph


def route_id(problem_type, graph):
    return select_algorithm(problem_type, graph).algorithm_id


def route(algorithm_id):
    return next(r for r in ROUTES if r.algorithm_id == algorithm_id)


def family_routes(problem_type):
    return [r for r in ROUTES if r.problem_type == problem_type]


def test_default_catalogue_shape():
    assert len(ROUTES) == 8
    assert {r.problem_type for r in ROUTES} == set(PROBLEM_TYPES)


@pytest.mark.parametrize("problem_type", PROBLEM_TYPES)
def test_every_family_has_a_route_and_the_first_is_exact(problem_type):
    routes = family_routes(problem_type)
    assert routes and routes[0].exact


def test_route_ids_are_unique():
    ids = [r.algorithm_id for r in ROUTES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("row", ROUTES, ids=[r.algorithm_id for r in ROUTES])
def test_each_solver_answers_as_its_row_says(row):
    # the answer takes its id and exactness from the row alone: a row
    # renamed and marked heuristic stamps its solver's answer that way
    inst = build_instance(row.problem_type, 8, 0)
    for stated in (row, replace(row, algorithm_id="x", exact=False)):
        sol = run_algorithm(stated, inst.graph, source=inst.source, target=inst.target)
        assert sol.kind == KIND_BY_PROBLEM[row.problem_type]
        assert (sol.algorithm_id, sol.exact) == (stated.algorithm_id, stated.exact)
        assert measure(row.problem_type, inst.graph, sol.payload,
                       inst.source, inst.target) == ((), sol.objective)


def test_invalid_solver_answer_is_never_stored_as_truth(monkeypatch):
    # an exact route whose solver gives every node one color: the truth
    # is refused, naming the route, rather than stored unchecked
    inst = build_instance(GRAPH_COLORING, 8, 0)
    one_color = {name: 0 for name in inst.graph.node_names}
    monkeypatch.setattr(knowledge, "ROUTES", tuple(
        replace(r, solve=lambda graph: one_color) if r.algorithm_id == "exact_coloring" else r
        for r in ROUTES))
    violations = measure(GRAPH_COLORING, inst.graph, one_color)[0]
    with pytest.raises(ValueError) as err:
        ground_truth(GRAPH_COLORING, inst.graph)
    assert str(err.value) == ("exact_coloring answer failed verification "
                              f"({'; '.join(violations)})")


def test_lookup_orders_exact_first():
    ids = [r.algorithm_id for r in family_routes("tsp")]
    assert ids == ["held_karp", "nearest_neighbor_2opt"]
    with pytest.raises(NoApplicableAlgorithmError, match="no route listed"):
        select_algorithm("minimum_spanning_tree", complete_graph(4, seed=1))


def test_selector_prefers_exact_within_limit():
    assert select_algorithm("tsp", complete_graph(12, seed=1)) is route("held_karp")


def test_selector_falls_back_past_the_limit():
    assert route_id("tsp", complete_graph(25, seed=1)) == "held_karp"
    assert select_algorithm("tsp", complete_graph(26, seed=1)) is route("nearest_neighbor_2opt")


def test_selector_boundaries_per_family():
    assert route_id("graph_coloring", gnp_graph(25, 0.3, seed=2)) == "exact_coloring"
    assert route_id("graph_coloring", gnp_graph(26, 0.3, seed=2)) == "dsatur"
    assert route_id("vertex_cover", gnp_graph(30, 0.3, seed=3)) == "bnb_cover"
    assert route_id("vertex_cover", gnp_graph(31, 0.3, seed=3)) == "matching_cover"
    sp = gnp_graph(40, 0.3, seed=4, weighted=True, connected=True)
    assert route_id("shortest_path", sp) == "dijkstra"
    assert route_id("cycle_detection", gnp_graph(40, 0.1, seed=5)) == "cycle_check"


def test_selector_rejects_structurally_wrong_graphs():
    incomplete = gnp_graph(10, 0.4, seed=6, weighted=True)
    with pytest.raises(NoApplicableAlgorithmError) as err:
        select_algorithm("tsp", incomplete)
    assert "not complete" in str(err.value)
    names = [f"N{i:02d}" for i in range(4)]
    unweighted_k4 = build_graph(
        names, False, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    )
    with pytest.raises(NoApplicableAlgorithmError):
        select_algorithm("tsp", unweighted_k4)


def test_tour_rows_need_three_nodes_and_every_pair():
    incomplete = build_graph(["A", "B", "C"], True, [("A", "B", 1), ("B", "C", 1)])
    tiny = build_graph(["A", "B"], True, [("A", "B", 1)])
    for row in family_routes("tsp"):
        assert applicability_reason(row, incomplete) == "the graph is not complete"
        assert applicability_reason(row, tiny) == "2 nodes is below its minimum of 3"
        assert applicability_reason(row, complete_graph(3, seed=1)) is None
    with pytest.raises(NoApplicableAlgorithmError, match="2 nodes is below its minimum of 3"):
        select_algorithm("tsp", tiny)


def test_applicability_reason_is_checkable_alone():
    hk = route("held_karp")
    names = [f"N{i:02d}" for i in range(10)]
    unweighted = build_graph(names, False,
                             [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
    assert applicability_reason(hk, complete_graph(10, seed=1)) is None
    assert "exceeds" in applicability_reason(hk, complete_graph(26, seed=1))
    assert "unweighted" in applicability_reason(hk, unweighted)
    assert "not complete" in applicability_reason(hk, gnp_graph(10, 0.5, seed=1, weighted=True))


def test_selector_takes_the_first_applicable_route_in_lookup_order(monkeypatch):
    # coloring has one route of each kind, so the exact one is made
    # weighted-only and the two vertex cover routes are refiled under it:
    # a second exact route (complete graphs only) and a weighted-only
    # heuristic ahead of dsatur, which takes at most 100 nodes
    rows = (
        replace(route("exact_coloring"), requires_weighted=True),
        replace(route("bnb_cover"), problem_type=GRAPH_COLORING, max_nodes=10,
                requires_complete=True),
        replace(route("matching_cover"), problem_type=GRAPH_COLORING, max_nodes=40,
                requires_weighted=True),
        replace(route("dsatur"), max_nodes=100),
    )
    monkeypatch.setattr(knowledge, "ROUTES", rows)
    assert select_algorithm("graph_coloring", complete_graph(25, seed=1)) is rows[0]
    # past that limit, the first applicable heuristic in table order
    assert select_algorithm("graph_coloring", complete_graph(26, seed=1)) is rows[2]
    assert select_algorithm("graph_coloring", gnp_graph(26, 0.3, seed=2)) is rows[3]
    # the second exact route, where the first does not fit
    assert select_algorithm("graph_coloring", gnp_graph(10, 1.0, seed=1)) is rows[1]
    # where no row fits, the refusal names every row in table order, and why
    with pytest.raises(NoApplicableAlgorithmError) as err:
        select_algorithm("graph_coloring", gnp_graph(101, 0.05, seed=2))
    assert str(err.value) == (
        "no applicable algorithm for graph_coloring on 101 nodes (exact_coloring: 101 nodes "
        "exceeds its limit of 25; bnb_cover: 101 nodes exceeds its limit of 10; "
        "matching_cover: 101 nodes exceeds its limit of 40; dsatur: 101 nodes exceeds its "
        "limit of 100)"
    )
    # asked for one kind, the first row of that kind that fits, in table order
    assert select_algorithm("graph_coloring", complete_graph(8, seed=1), exact=False) is rows[2]
    assert select_algorithm("graph_coloring", gnp_graph(10, 1.0, seed=1), exact=True) is rows[1]
    with pytest.raises(NoApplicableAlgorithmError) as err:
        select_algorithm("graph_coloring", complete_graph(26, seed=1), exact=True)
    assert str(err.value) == (
        "no exact graph_coloring route fits a graph of 26 nodes (exact_coloring: 26 nodes "
        "exceeds its limit of 25; bnb_cover: 26 nodes exceeds its limit of 10)"
    )


def test_exact_selection_past_the_limit_names_only_the_exact_rows():
    with pytest.raises(NoApplicableAlgorithmError) as err:
        select_algorithm("tsp", complete_graph(26, seed=1), exact=True)
    assert str(err.value) == (
        "no exact tsp route fits a graph of 26 nodes "
        "(held_karp: 26 nodes exceeds its limit of 25)"
    )


def test_heuristic_selection_skips_a_fitting_exact_row():
    assert select_algorithm("tsp", complete_graph(8, seed=1), exact=False) is route(
        "nearest_neighbor_2opt")
    assert select_algorithm("tsp", complete_graph(8, seed=1), exact=True) is route("held_karp")


@pytest.mark.parametrize("problem_type", [SHORTEST_PATH, CYCLE_DETECTION])
def test_family_without_a_heuristic_row_lists_none(problem_type):
    graph = gnp_graph(8, 0.5, seed=3, weighted=True, connected=True)
    with pytest.raises(NoApplicableAlgorithmError) as err:
        select_algorithm(problem_type, graph, exact=False)
    assert str(err.value) == (
        f"no heuristic {problem_type} route fits a graph of 8 nodes (no route listed)"
    )


@pytest.mark.parametrize("problem_type", [SHORTEST_PATH, CYCLE_DETECTION])
def test_truth_without_a_heuristic_row_stores_the_optimum_twice(problem_type):
    truth = build_instance(problem_type, 8, 0).truth
    assert truth.optimal.exact
    assert truth.approximate is truth.optimal


def test_run_algorithm_matches_direct_calls():
    # the stamped answer carries the solver's payload as the solver gave it
    tsp_g = complete_graph(9, seed=11)
    assert run_algorithm(route("held_karp"), tsp_g).payload == tsp_exact_held_karp(tsp_g)
    color_g = gnp_graph(12, 0.35, seed=12)
    assert run_algorithm(route("exact_coloring"), color_g).payload == coloring_exact(color_g)
    cover_g = gnp_graph(14, 0.3, seed=13)
    assert run_algorithm(route("bnb_cover"), cover_g).payload == vertex_cover_exact(cover_g)
    sp_g = gnp_graph(10, 0.4, seed=14, weighted=True, connected=True)
    src, dst = sp_g.node_names[0], sp_g.node_names[-1]
    assert run_algorithm(route("dijkstra"), sp_g, source=src, target=dst).payload == (
        shortest_path_dijkstra(sp_g, src, dst)
    )
    cyc_g = gnp_graph(10, 0.2, seed=15)
    assert run_algorithm(route("cycle_check"), cyc_g).payload is detect_cycle(cyc_g)


def test_run_algorithm_via_choice_binds_parameters():
    g = complete_graph(26, seed=17)
    sol = run_algorithm(select_algorithm("tsp", g), g)
    assert sol.algorithm_id == "nearest_neighbor_2opt"
    assert sol.payload[0] == g.node_names[0]


def test_run_algorithm_error_cases():
    g = gnp_graph(6, 0.5, seed=18, weighted=True)
    with pytest.raises(GraphError):
        run_algorithm(route("dijkstra"), g)
