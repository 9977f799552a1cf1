from fractions import Fraction

import pytest

from graphcrew.dataset import build_instance
from graphcrew.graph import build_graph
from graphcrew.problems import SHORTEST_PATH, TSP
from graphcrew.solvers import (
    Solution,
    ValidityReport,
    measure,
    solution_from_dict,
    solution_to_dict,
    verify_solution,
)
from graphcrew.solvers.solution import canonical_coloring, canonical_tour
from oracles import weight_table


def k4():
    names = ["A", "B", "C", "D"]
    return build_graph(
        names, True, [(a, b, 1) for i, a in enumerate(names) for b in names[i + 1 :]]
    )


def test_tour_checks():
    g = k4()
    good = Solution("tour", ("A", "B", "C", "D"), 4, "held_karp", True)
    assert verify_solution("tsp", g, good).valid

    short = Solution("tour", ("A", "B", "C"), 3, "held_karp", True)
    report = verify_solution("tsp", g, short)
    assert not report.valid and "3 of 4" in report.violations[0]

    wrong_cost = Solution("tour", ("A", "B", "C", "D"), 9, "held_karp", True)
    report = verify_solution("tsp", g, wrong_cost)
    assert not report.valid and "edges sum to 4" in report.violations[0]

    sparse = build_graph(["A", "B", "C"], True, [("A", "B", 1), ("B", "C", 1)])
    missing = Solution("tour", ("A", "B", "C"), 2, "held_karp", True)
    report = verify_solution("tsp", sparse, missing)
    assert not report.valid and "no edge C-A" in report.violations


def test_coloring_checks():
    g = build_graph(["A", "B", "C"], False, [("A", "B"), ("B", "C")])
    good = Solution("coloring", {"A": 0, "B": 1, "C": 0}, 2, "dsatur", False)
    assert verify_solution("graph_coloring", g, good).valid

    clash = Solution("coloring", {"A": 0, "B": 0, "C": 1}, 2, "dsatur", False)
    report = verify_solution("graph_coloring", g, clash)
    assert not report.valid
    assert "nodes A and B share color 0" in report.violations

    gap = Solution("coloring", {"A": 0, "B": 1}, 2, "dsatur", False)
    report = verify_solution("graph_coloring", g, gap)
    assert not report.valid and "node C has no color" in report.violations

    miscount = Solution("coloring", {"A": 0, "B": 1, "C": 0}, 3, "dsatur", False)
    assert not verify_solution("graph_coloring", g, miscount).valid


def test_cover_checks():
    g = build_graph(["A", "B", "C"], False, [("A", "B"), ("B", "C")])
    good = Solution("node_set", ("B",), 1, "bnb_cover", True)
    assert verify_solution("vertex_cover", g, good).valid

    bad = Solution("node_set", ("A",), 1, "bnb_cover", True)
    report = verify_solution("vertex_cover", g, bad)
    assert not report.valid
    assert "cover misses edge B-C" in report.violations

    doubled = Solution("node_set", ("B", "B"), 2, "bnb_cover", True)
    assert not verify_solution("vertex_cover", g, doubled).valid


def test_path_checks():
    g = build_graph(["A", "B", "C"], True, [("A", "B", 2), ("B", "C", 3)])
    good = Solution("path", ("A", "B", "C"), 5, "dijkstra", True)
    assert verify_solution("shortest_path", g, good, source="A", target="C").valid

    wrong_end = verify_solution("shortest_path", g, good, source="A", target="B")
    assert not wrong_end.valid and "question asks for B" in wrong_end.violations[0]

    broken = Solution("path", ("A", "C"), 1, "dijkstra", True)
    report = verify_solution("shortest_path", g, broken, source="A", target="C")
    assert not report.valid and "no edge A-C" in report.violations

    loop = Solution("path", ("A", "B", "A", "B", "C"), 9, "dijkstra", True)
    report = verify_solution("shortest_path", g, loop, source="A", target="C")
    assert not report.valid and "path repeats a node" in report.violations


@pytest.mark.parametrize("problem_type", [TSP, SHORTEST_PATH])
def test_walk_cost_matches_a_weight_table(problem_type):
    # every stored tour and path, optimum and heuristic, priced hop by hop
    for n in range(8, 26, 3):
        for index in range(3):
            inst = build_instance(problem_type, n, index, master_seed=7)
            table = weight_table(inst.graph)
            for solution in (inst.truth.optimal, inst.truth.approximate):
                order = [inst.graph.index_of(name) for name in solution.payload]
                hops = list(zip(order, order[1:]))
                if problem_type == TSP:
                    hops.append((order[-1], order[0]))
                assert measure(problem_type, inst.graph, solution.payload, inst.source,
                               inst.target) == ((), sum(table[hop] for hop in hops))


def test_walk_misses_an_edge_next_to_a_stated_one_or_past_the_last():
    # edges A-B and A-D: A-C sorts between them and C-D after both
    g = build_graph(["A", "B", "C", "D"], True, [("A", "B", 2), ("A", "D", 3)])
    assert measure(SHORTEST_PATH, g, ("B", "A", "C")) == (("no edge A-C",), None)
    assert measure(SHORTEST_PATH, g, ("B", "A", "D", "C")) == (("no edge D-C",), None)
    assert measure(TSP, g, ("A", "B", "C", "D")) == (("no edge B-C", "no edge C-D"), None)


def test_boolean_checks():
    g = build_graph(["A", "B"], False, [("A", "B")])
    assert verify_solution("cycle_detection", g, Solution("boolean", False, 0, "cycle_check", True)).valid
    off = Solution("boolean", True, 0, "cycle_check", True)
    assert not verify_solution("cycle_detection", g, off).valid
    not_bool = Solution("boolean", "yes", 1, "cycle_check", True)
    assert not verify_solution("cycle_detection", g, not_bool).valid


def test_kind_mismatch_is_an_invalid_report():
    g = k4()
    cover = Solution("node_set", ("A",), 1, "bnb_cover", True)
    report = verify_solution("tsp", g, cover)
    assert report == ValidityReport(
        valid=False, violations=("tsp expects a tour solution, got node_set",), objective=None
    )
    with pytest.raises(ValueError):
        verify_solution("minimum_spanning_tree", g, cover)


def test_canonical_tour_direction():
    assert canonical_tour(("B", "D", "A", "C")) == ("B", "C", "A", "D")
    assert canonical_tour(("B", "C", "A", "D")) == ("B", "C", "A", "D")


def test_canonical_coloring_relabels():
    assert canonical_coloring({"B": 7, "A": 2, "C": 7}) == {"A": 0, "B": 1, "C": 1}


def test_solution_dict_round_trip():
    cases = [
        Solution("tour", ("A", "B", "C"), Fraction(7, 2), "held_karp", True),
        Solution("coloring", {"A": 0, "B": 1}, 2, "dsatur", False),
        Solution("node_set", ("A", "C"), 2, "bnb_cover", True),
        Solution("path", ("A", "B"), 12, "dijkstra", True),
        Solution("boolean", True, 1, "cycle_check", True),
    ]
    for sol in cases:
        data = solution_to_dict(sol)
        assert solution_from_dict(data) == sol
    as_dict = solution_to_dict(cases[0])
    assert as_dict["objective"] == "7/2"
    assert solution_to_dict(cases[3])["objective"] == "12"
