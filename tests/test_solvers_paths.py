from fractions import Fraction

import pytest

from graphcrew.graph import GraphError, build_graph
from graphcrew.solvers import NoPathError, verify_solution

from oracles import (
    bellman_ford_cost,
    best_paths_by_enumeration,
    has_cycle_undirected,
)
from util import gnp_graph, names_for, solve


def test_line_graph_path():
    g = build_graph(
        ["A", "B", "C", "D"], True, [("A", "B", 2), ("B", "C", 3), ("C", "D", 4)]
    )
    sol = solve("dijkstra", g, "A", "D")
    assert sol.payload == ("A", "B", "C", "D")
    assert sol.objective == 9
    assert verify_solution("shortest_path", g, sol, source="A", target="D").valid


def test_tie_breaks_toward_lexicographic_path():
    diamond = build_graph(
        ["A", "B", "C", "D"], True, [("A", "B", 1), ("B", "D", 1), ("A", "C", 1), ("C", "D", 1)]
    )
    assert solve("dijkstra", diamond, "A", "D").payload == ("A", "B", "D")


def test_matches_enumeration_on_small_graphs():
    checked = 0
    for seed in range(30):
        g = gnp_graph(6, 0.5, seed=2000 + seed, weighted=True)
        names = g.node_names
        best = best_paths_by_enumeration(g, names[0], names[-1])
        if not best:
            with pytest.raises(NoPathError):
                solve("dijkstra", g, names[0], names[-1])
            continue
        sol = solve("dijkstra", g, names[0], names[-1])
        assert sol.payload == best[0]
        checked += 1
    assert checked >= 10


def test_matches_bellman_ford_cost():
    for seed in range(12):
        n = 8 + seed % 9
        g = gnp_graph(n, 0.35, seed=3000 + seed, weighted=True, connected=True)
        src, dst = g.node_names[0], g.node_names[-1]
        sol = solve("dijkstra", g, src, dst)
        assert sol.objective == bellman_ford_cost(g, src, dst)
        assert verify_solution("shortest_path", g, sol, source=src, target=dst).valid


def test_source_equals_target():
    g = build_graph(["A", "B"], True, [("A", "B", 5)])
    sol = solve("dijkstra", g, "A", "A")
    assert sol.payload == ("A",) and sol.objective == 0


def test_error_cases():
    g = build_graph(["A", "B", "C"], True, [("A", "B", 1)])
    with pytest.raises(NoPathError):
        solve("dijkstra", g, "A", "C")
    with pytest.raises(GraphError, match="^unknown node 'Z'$"):
        solve("dijkstra", g, "A", "Z")


def test_fraction_costs():
    g = build_graph(
        ["A", "B", "C"], True, [("A", "B", "1/2"), ("B", "C", "1/3"), ("A", "C", 1)]
    )
    sol = solve("dijkstra", g, "A", "C")
    assert sol.objective == Fraction(5, 6)
    assert sol.payload == ("A", "B", "C")


def test_cycle_known_cases():
    names = names_for(5)
    tree = build_graph(
        names, False, [(names[0], names[i]) for i in range(1, 5)]
    )
    assert solve("cycle_check", tree).payload is False
    assert solve("cycle_check", tree).objective == 0

    extra = build_graph(
        names, False, [(names[0], names[i]) for i in range(1, 5)] + [(names[1], names[2])]
    )
    assert solve("cycle_check", extra).payload is True
    assert solve("cycle_check", extra).objective == 1

    ring = build_graph(["A", "B", "C"], False, [("A", "B"), ("B", "C"), ("C", "A")])
    assert solve("cycle_check", ring).payload is True

    # an edge stated both ways round is one edge, not a cycle
    two_way = build_graph(["A", "B"], False, [("A", "B"), ("B", "A")])
    assert solve("cycle_check", two_way).payload is False


def test_cycle_matches_oracles():
    for seed in range(20):
        ug = gnp_graph(9, 0.2, seed=4000 + seed)
        assert solve("cycle_check", ug).payload == has_cycle_undirected(ug)
