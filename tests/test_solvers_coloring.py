import pytest

from graphcrew.graph import GraphError, build_graph
from graphcrew.solvers import TooLargeError, coloring_dsatur, coloring_exact, verify_solution

from oracles import brute_chromatic_number
from util import gnp_graph, names_for


def cycle_graph(n):
    names = names_for(n)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return build_graph(names, False, False, edges)


def test_known_chromatic_numbers():
    triangle = cycle_graph(3)
    assert coloring_exact(triangle).objective == 3
    assert coloring_exact(cycle_graph(5)).objective == 3
    assert coloring_exact(cycle_graph(6)).objective == 2
    edgeless = build_graph(["A", "B", "C"], False, False, [])
    assert coloring_exact(edgeless).objective == 1
    assert coloring_dsatur(edgeless).objective == 1


def test_petersen_graph_needs_three_colors():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    names = names_for(10)
    edges = [(names[a], names[b]) for a, b in outer + inner + spokes]
    g = build_graph(names, False, False, edges)
    sol = coloring_exact(g)
    assert sol.objective == 3
    assert verify_solution("graph_coloring", g, sol).valid


def test_exact_matches_enumeration():
    for seed in range(15):
        n = 4 + seed % 7
        p = 0.25 + (seed % 3) * 0.125
        g = gnp_graph(n, p, seed=seed)
        assert coloring_exact(g).objective == brute_chromatic_number(g)


def test_dsatur_upper_bounds_exact_and_is_valid():
    for seed in range(15):
        g = gnp_graph(9, 0.4, seed=500 + seed)
        greedy = coloring_dsatur(g)
        assert greedy.objective >= coloring_exact(g).objective
        assert verify_solution("graph_coloring", g, greedy).valid
        assert not greedy.exact


def test_color_labels_are_canonical():
    for solve in (coloring_exact, coloring_dsatur):
        sol = solve(cycle_graph(5))
        assert list(sol.payload) == sorted(sol.payload)
        seen: list[int] = []
        for c in sol.payload.values():
            if c not in seen:
                seen.append(c)
        assert seen == list(range(len(seen)))
        assert seen[0] == 0


def test_deterministic_across_runs():
    g = gnp_graph(12, 0.35, seed=77)
    assert coloring_exact(g) == coloring_exact(g)
    assert coloring_dsatur(g) == coloring_dsatur(g)


def test_input_rejections():
    with pytest.raises(TooLargeError):
        coloring_exact(gnp_graph(26, 0.3, seed=1))
    assert coloring_exact(gnp_graph(12, 0.3, seed=1), max_nodes=12).exact
    directed = build_graph(["A", "B"], True, False, [("A", "B")])
    with pytest.raises(GraphError):
        coloring_exact(directed)
    with pytest.raises(GraphError):
        coloring_dsatur(directed)
