import pytest

from graphcrew.dataset import build_instance
from graphcrew.graph import build_graph
from graphcrew.problems import GRAPH_COLORING
from graphcrew.solvers import verify_solution
from graphcrew.solvers.coloring import _dsatur_order_colors

from oracles import brute_chromatic_number, set_coloring, set_dsatur_colors
from util import catalogue_limit, gnp_graph, mixed_gnp_graphs, names_for, solve


def cycle_graph(n):
    names = names_for(n)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return build_graph(names, False, edges)


def test_known_chromatic_numbers():
    triangle = cycle_graph(3)
    assert solve("exact_coloring", triangle).objective == 3
    assert solve("exact_coloring", cycle_graph(5)).objective == 3
    assert solve("exact_coloring", cycle_graph(6)).objective == 2
    edgeless = build_graph(["A", "B", "C"], False, [])
    assert solve("exact_coloring", edgeless).objective == 1
    assert solve("dsatur", edgeless).objective == 1


def test_petersen_graph_needs_three_colors():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    names = names_for(10)
    edges = [(names[a], names[b]) for a, b in outer + inner + spokes]
    g = build_graph(names, False, edges)
    sol = solve("exact_coloring", g)
    assert sol.objective == 3
    assert verify_solution("graph_coloring", g, sol).valid


def test_exact_matches_enumeration():
    for seed in range(15):
        n = 4 + seed % 7
        p = 0.25 + (seed % 3) * 0.125
        g = gnp_graph(n, p, seed=seed)
        assert solve("exact_coloring", g).objective == brute_chromatic_number(g)


def test_dsatur_upper_bounds_exact_and_is_valid():
    for seed in range(15):
        g = gnp_graph(9, 0.4, seed=500 + seed)
        greedy = solve("dsatur", g)
        assert greedy.objective >= solve("exact_coloring", g).objective
        assert verify_solution("graph_coloring", g, greedy).valid
        assert not greedy.exact


def test_color_labels_are_canonical():
    for algorithm_id in ("exact_coloring", "dsatur"):
        sol = solve(algorithm_id, cycle_graph(5))
        assert list(sol.payload) == sorted(sol.payload)
        seen: list[int] = []
        for c in sol.payload.values():
            if c not in seen:
                seen.append(c)
        assert seen == list(range(len(seen)))
        assert seen[0] == 0


def test_deterministic_across_runs():
    g = gnp_graph(12, 0.35, seed=77)
    assert solve("exact_coloring", g) == solve("exact_coloring", g)
    assert solve("dsatur", g) == solve("dsatur", g)


@pytest.mark.parametrize("seed", [7, 8])
def test_bitmask_search_returns_the_set_search_coloring(seed):
    # same DSATUR tie order, same clique bound, same backtracking order:
    # the very same coloring, not just one with as many colors
    for n in range(8, catalogue_limit("exact_coloring") + 1):
        for index in range(5):
            graph = build_instance(GRAPH_COLORING, n, index, master_seed=seed).graph
            assert solve("exact_coloring", graph) == set_coloring(graph), (n, index)
            assert _dsatur_order_colors(graph) == set_dsatur_colors(graph), (n, index)


def test_bitmask_search_returns_the_set_search_coloring_on_random_graphs():
    for graph in mixed_gnp_graphs(200, 22):
        assert solve("exact_coloring", graph) == set_coloring(graph)
        assert _dsatur_order_colors(graph) == set_dsatur_colors(graph)
