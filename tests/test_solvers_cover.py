import pytest

from graphcrew.dataset import build_instance
from graphcrew.graph import build_graph
from graphcrew.problems import VERTEX_COVER
from graphcrew.solvers import verify_solution

from oracles import brute_min_cover_size, set_vertex_cover
from util import catalogue_limit, gnp_graph, mixed_gnp_graphs, names_for, solve


def test_known_covers():
    path = build_graph(["A", "B", "C", "D"], False, [("A", "B"), ("B", "C"), ("C", "D")])
    sol = solve("bnb_cover", path)
    assert sol.objective == 2
    assert verify_solution("vertex_cover", path, sol).valid

    star = build_graph(
        ["Hub", "X", "Y", "Z"], False, [("Hub", "X"), ("Hub", "Y"), ("Hub", "Z")]
    )
    assert solve("bnb_cover", star).payload == ("Hub",)

    triangle = build_graph(["A", "B", "C"], False, [("A", "B"), ("A", "C"), ("B", "C")])
    assert solve("bnb_cover", triangle).objective == 2

    empty = build_graph(["A", "B"], False, [])
    assert solve("bnb_cover", empty).payload == ()
    assert solve("matching_cover", empty).payload == ()


def test_exact_matches_enumeration():
    for seed in range(15):
        n = 4 + seed % 7
        g = gnp_graph(n, 0.35, seed=900 + seed)
        assert solve("bnb_cover", g).objective == brute_min_cover_size(g)


def test_approx_is_valid_and_within_factor_two():
    for seed in range(15):
        g = gnp_graph(10, 0.35, seed=1200 + seed)
        approx = solve("matching_cover", g)
        exact = solve("bnb_cover", g)
        assert verify_solution("vertex_cover", g, approx).valid
        assert exact.objective <= approx.objective <= 2 * exact.objective
        assert not approx.exact and exact.exact


def test_factor_two_is_reached_on_a_square():
    names = names_for(4)
    square = build_graph(
        names,
        False,
        [(names[0], names[1]), (names[1], names[2]), (names[2], names[3]), (names[0], names[3])],
    )
    assert solve("bnb_cover", square).objective == 2
    assert solve("matching_cover", square).objective == 4


def test_deterministic_across_runs():
    g = gnp_graph(14, 0.3, seed=31)
    assert solve("bnb_cover", g) == solve("bnb_cover", g)
    assert solve("matching_cover", g) == solve("matching_cover", g)


def test_cover_payload_is_sorted():
    g = gnp_graph(12, 0.4, seed=8)
    for sol in (solve("bnb_cover", g), solve("matching_cover", g)):
        assert list(sol.payload) == sorted(sol.payload)


@pytest.mark.parametrize("seed", [7, 8])
def test_bitmask_search_returns_the_set_search_cover(seed):
    # the bitmask kernel keeps the set-based search's order, so it
    # returns the very same cover, not just one of the same size
    for n in range(8, catalogue_limit("bnb_cover") + 1):
        for index in range(5):
            graph = build_instance(VERTEX_COVER, n, index, master_seed=seed).graph
            assert solve("bnb_cover", graph) == set_vertex_cover(graph), (n, index)


def test_bitmask_search_returns_the_set_search_cover_on_random_graphs():
    for graph in mixed_gnp_graphs(200, 24):
        assert solve("bnb_cover", graph) == set_vertex_cover(graph)
