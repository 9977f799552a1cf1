from fractions import Fraction

import pytest

from graphcrew.graph import GraphError, build_graph
from graphcrew.solvers import (
    GraphNotCompleteError,
    TooLargeError,
    tour_cost,
    tsp_exact_held_karp,
    tsp_nearest_neighbor,
    tsp_nearest_neighbor_two_opt,
    tsp_two_opt,
    verify_solution,
)
from graphcrew.solvers import tsp as tsp_module

from oracles import brute_tour_cost, held_karp_tour_cost
from util import complete_graph, names_for


def square():
    return build_graph(
        ["A", "B", "C", "D"],
        False,
        True,
        [("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("A", "D", 1), ("A", "C", 10), ("B", "D", 10)],
    )


def test_square_known_optimum():
    sol = tsp_exact_held_karp(square())
    assert sol.payload == ("A", "B", "C", "D")
    assert sol.objective == 4 == brute_tour_cost(square())
    assert sol.exact
    assert verify_solution("tsp", square(), sol).valid


def test_equal_weight_k4_gives_identity_order():
    names = ["A", "B", "C", "D"]
    k4 = build_graph(
        names, False, True, [(a, b, 1) for i, a in enumerate(names) for b in names[i + 1 :]]
    )
    assert tsp_exact_held_karp(k4).payload == ("A", "B", "C", "D")
    assert tsp_nearest_neighbor(k4).payload == ("A", "B", "C", "D")


def test_exact_solvers_agree_with_enumeration():
    for seed in range(12):
        n = 4 + seed % 5
        g = complete_graph(n, seed=seed)
        assert tsp_exact_held_karp(g).objective == brute_tour_cost(g)


def test_exact_solver_agrees_with_subset_dp():
    # weights up to 5 give many near-ties, where a bound test that is off
    # by one unit would prune the optimum
    for n in range(10, 15):
        for seed in range(2):
            for high in (100, 5):
                g = complete_graph(n, seed=400 + 10 * n + seed, high=high)
                sol = tsp_exact_held_karp(g)
                assert verify_solution("tsp", g, sol).valid
                assert sol.objective == tour_cost(g, sol.payload)
                assert sol.objective == held_karp_tour_cost(g), (n, seed, high)


def test_two_opt_uncrosses_square():
    sol = tsp_two_opt(square(), ("A", "C", "B", "D"))
    assert sol.objective == 4
    assert sol.algorithm_id == "two_opt"
    assert not sol.exact


def test_two_opt_never_worsens():
    for seed in range(8):
        g = complete_graph(7, seed=100 + seed)
        start = tuple(g.node_names)
        improved = tsp_two_opt(g, start)
        assert improved.objective <= tour_cost(g, start)
        assert verify_solution("tsp", g, improved).valid


def test_heuristic_chain_bounds_and_validity():
    for seed in range(10):
        g = complete_graph(8, seed=200 + seed)
        best = tsp_exact_held_karp(g).objective
        fast = tsp_nearest_neighbor_two_opt(g)
        assert fast.objective >= best
        assert verify_solution("tsp", g, fast).valid
        assert fast.algorithm_id == "nearest_neighbor_2opt"


def test_nearest_neighbor_start_by_name_and_index():
    g = complete_graph(6, seed=3)
    by_name = tsp_nearest_neighbor(g, g.node_names[2])
    by_index = tsp_nearest_neighbor(g, 2)
    assert by_name == by_index
    assert by_name.payload[0] == g.node_names[2]


def test_fraction_weights_stay_exact():
    names = ["A", "B", "C", "D"]
    g = build_graph(
        names,
        False,
        True,
        [
            ("A", "B", "1/3"), ("A", "C", "1/3"), ("A", "D", 1),
            ("B", "C", 1), ("B", "D", "1/3"), ("C", "D", "1/3"),
        ],
    )
    sol = tsp_exact_held_karp(g)
    assert sol.objective == Fraction(4, 3)
    assert sol.objective == brute_tour_cost(g)


def test_fraction_weights_with_unlike_denominators():
    for seed in range(6):
        g = complete_graph(11, seed=500 + seed)
        denominators = (1, 2, 3, 7)
        edges = [
            (g.node_names[u], g.node_names[v], Fraction(w, denominators[(u + v) % 4]))
            for u, v, w in g.edges
        ]
        h = build_graph(g.node_names, False, True, edges)
        sol = tsp_exact_held_karp(h)
        assert sol.objective == held_karp_tour_cost(h) == tour_cost(h, sol.payload)
        assert verify_solution("tsp", h, sol).valid


def test_all_equal_weights_return_identity_tour_at_once(monkeypatch):
    names = names_for(12)
    k12 = build_graph(
        names, False, True, [(a, b, 7) for i, a in enumerate(names) for b in names[i + 1 :]]
    )
    bounds = []
    one_tree = tsp_module._one_tree

    def counted(*args):
        bounds.append(1)
        return one_tree(*args)

    monkeypatch.setattr(tsp_module, "_one_tree", counted)
    sol = tsp_exact_held_karp(k12)
    assert sol.payload == tuple(names)
    assert sol.objective == 84
    # the seed tour meets the first bound, so the search ends there
    assert len(bounds) == 1


def test_deterministic_across_runs():
    g = complete_graph(9, seed=42)
    assert tsp_exact_held_karp(g) == tsp_exact_held_karp(g)
    assert tsp_nearest_neighbor_two_opt(g) == tsp_nearest_neighbor_two_opt(g)
    for seed in range(3):
        g = complete_graph(22, seed=600 + seed)
        assert tsp_exact_held_karp(g) == tsp_exact_held_karp(g)


def test_tour_direction_is_canonical():
    for seed in range(6):
        g = complete_graph(7, seed=300 + seed)
        for sol in (tsp_exact_held_karp(g), tsp_nearest_neighbor(g, 4)):
            assert sol.payload[1] < sol.payload[-1]


def test_input_rejections():
    with pytest.raises(TooLargeError):
        tsp_exact_held_karp(complete_graph(26, seed=1))
    assert tsp_exact_held_karp(complete_graph(9, seed=1), max_nodes=9).exact
    incomplete = build_graph(["A", "B", "C"], False, True, [("A", "B", 1), ("B", "C", 1)])
    with pytest.raises(GraphNotCompleteError):
        tsp_exact_held_karp(incomplete)
    tiny = build_graph(["A", "B"], False, True, [("A", "B", 1)])
    with pytest.raises(GraphError):
        tsp_exact_held_karp(tiny)
    directed = build_graph(
        ["A", "B", "C"],
        True,
        True,
        [("A", "B", 1), ("B", "A", 1), ("B", "C", 1), ("C", "B", 1), ("A", "C", 1), ("C", "A", 1)],
    )
    with pytest.raises(GraphError):
        tsp_exact_held_karp(directed)
    with pytest.raises(GraphError):
        tsp_two_opt(square(), ("A", "B", "C"))
