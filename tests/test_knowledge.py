from dataclasses import replace

import pytest

from graphcrew.execute import run_algorithm
from graphcrew.graph import GraphError, build_graph
from graphcrew.knowledge import (
    DuplicateAlgorithmError,
    KnowledgeBase,
    NoApplicableAlgorithmError,
    SchemaError,
    UnknownProblemTypeError,
    applicability_reason,
    default_knowledge_base,
    load_knowledge_base,
    lookup_algorithms,
    select_algorithm,
)
from graphcrew.problems import PROBLEM_TYPES
from graphcrew.solvers import (
    coloring_exact,
    detect_cycle,
    shortest_path_dijkstra,
    tsp_exact_held_karp,
    vertex_cover_exact,
)

from util import complete_graph, gnp_graph


def route_id(kb, problem_type, graph):
    return select_algorithm(kb, problem_type, graph).record.algorithm_id


def record(kb, algorithm_id):
    return next(r for r in kb.records if r.algorithm_id == algorithm_id)


def test_default_catalogue_shape():
    kb = default_knowledge_base()
    assert len(kb.records) == 8
    covered = {r.problem_type for r in kb.records}
    assert covered == set(PROBLEM_TYPES)
    for problem in PROBLEM_TYPES:
        routes = lookup_algorithms(kb, problem)
        assert routes[0].exact


def test_lookup_orders_exact_first():
    kb = default_knowledge_base()
    ids = [r.algorithm_id for r in lookup_algorithms(kb, "tsp")]
    assert ids == ["held_karp", "nearest_neighbor_2opt"]
    with pytest.raises(UnknownProblemTypeError):
        lookup_algorithms(kb, "minimum_spanning_tree")


def test_selector_prefers_exact_within_limit():
    kb = default_knowledge_base()
    pick = select_algorithm(kb, "tsp", complete_graph(12, seed=1))
    assert pick.record.algorithm_id == "held_karp"
    assert "12 nodes" in pick.rationale and "25" in pick.rationale


def test_selector_falls_back_past_the_limit():
    kb = default_knowledge_base()
    assert route_id(kb, "tsp", complete_graph(25, seed=1)) == "held_karp"
    pick = select_algorithm(kb, "tsp", complete_graph(26, seed=1))
    assert pick.record.algorithm_id == "nearest_neighbor_2opt"
    assert not pick.record.exact
    assert "held_karp" in pick.rationale and "limit of 25" in pick.rationale


def test_selector_boundaries_per_family():
    kb = default_knowledge_base()
    assert route_id(kb, "graph_coloring", gnp_graph(25, 0.3, seed=2)) == "exact_coloring"
    assert route_id(kb, "graph_coloring", gnp_graph(26, 0.3, seed=2)) == "dsatur"
    assert route_id(kb, "vertex_cover", gnp_graph(30, 0.3, seed=3)) == "bnb_cover"
    assert route_id(kb, "vertex_cover", gnp_graph(31, 0.3, seed=3)) == "matching_cover"
    sp = gnp_graph(40, 0.3, seed=4, weighted=True, connected=True)
    assert route_id(kb, "shortest_path", sp) == "dijkstra"
    assert route_id(kb, "cycle_detection", gnp_graph(40, 0.1, seed=5)) == "cycle_check"


def test_selector_rejects_structurally_wrong_graphs():
    kb = default_knowledge_base()
    incomplete = gnp_graph(10, 0.4, seed=6, weighted=True)
    with pytest.raises(NoApplicableAlgorithmError) as err:
        select_algorithm(kb, "tsp", incomplete)
    assert "not complete" in str(err.value)
    directed = gnp_graph(10, 0.3, seed=7, directed=True)
    with pytest.raises(NoApplicableAlgorithmError):
        select_algorithm(kb, "graph_coloring", directed)
    names = [f"N{i:02d}" for i in range(4)]
    unweighted_k4 = build_graph(
        names, False, False, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    )
    with pytest.raises(NoApplicableAlgorithmError):
        select_algorithm(kb, "tsp", unweighted_k4)


def test_applicability_reason_is_checkable_alone():
    kb = default_knowledge_base()
    hk = record(kb, "held_karp")
    names = [f"N{i:02d}" for i in range(10)]
    unweighted = build_graph(names, False, False,
                             [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
    directed = gnp_graph(10, 1.0, seed=1, weighted=True, directed=True)
    assert directed.is_complete
    assert applicability_reason(hk, complete_graph(10, seed=1)) is None
    assert "exceeds" in applicability_reason(hk, complete_graph(26, seed=1))
    assert "unweighted" in applicability_reason(hk, unweighted)
    assert "directed" in applicability_reason(hk, directed)


# a second heuristic and a second exact route for one family, file order
# mixed; coloring has one of each, so the two vertex cover routes are
# refiled under it below, past the loader, which refuses a route filed
# under a family its runner does not answer (the selector never runs one)
TWO_HEURISTICS = """
version: 1
algorithms:
  - id: matching_cover
    problem: vertex_cover
    description: A weighted-only heuristic listed first.
    complexity: O(m)
    exact: false
    applicability:
      max_nodes: 40
      requires_weighted: true
      directedness: any
  - id: exact_coloring
    problem: graph_coloring
    description: Exact.
    complexity: exponential
    exact: true
    applicability:
      max_nodes: 25
      directedness: undirected
  - id: dsatur
    problem: graph_coloring
    description: Heuristic.
    complexity: O(n^2)
    exact: false
    applicability:
      max_nodes: 1000
      directedness: undirected
  - id: bnb_cover
    problem: vertex_cover
    description: A complete-only exact route.
    complexity: exponential
    exact: true
    applicability:
      max_nodes: 10
      requires_complete: true
      directedness: directed
"""
TWO_HEURISTICS_KB = KnowledgeBase(tuple(
    replace(r, problem_type="graph_coloring") for r in load_knowledge_base(TWO_HEURISTICS).records
))


def test_selector_takes_the_first_applicable_route_in_lookup_order():
    # lookup order: exact_coloring, bnb_cover, then matching_cover, dsatur
    kb = TWO_HEURISTICS_KB
    pick = select_algorithm(kb, "graph_coloring", complete_graph(25, seed=1))
    assert pick.record.algorithm_id == "exact_coloring"
    assert pick.rationale == (
        "exact_coloring is exact and applicable: 25 nodes within its limit of 25"
    )
    # past that limit, the first applicable heuristic in file order
    pick = select_algorithm(kb, "graph_coloring", complete_graph(26, seed=1))
    assert pick.record.algorithm_id == "matching_cover"
    assert pick.rationale == (
        "matching_cover chosen as heuristic fallback (exact_coloring: 26 nodes exceeds its "
        "limit of 25; bnb_cover: 26 nodes exceeds its limit of 10)"
    )
    assert route_id(kb, "graph_coloring", gnp_graph(26, 0.3, seed=2)) == "dsatur"
    # the second exact route, where the first does not fit
    directed = gnp_graph(10, 1.0, seed=1, weighted=True, directed=True)
    assert route_id(kb, "graph_coloring", directed) == "bnb_cover"


MINIMAL = """
version: 1
algorithms:
  - id: dijkstra
    problem: shortest_path
    description: Cheapest path.
    complexity: O((n + m) log n)
    exact: true
    applicability:
      max_nodes: 50
      directedness: any
"""


def test_custom_catalogue_loads_and_limits_apply():
    kb = load_knowledge_base(MINIMAL)
    assert len(kb.records) == 1
    g = gnp_graph(8, 0.5, seed=9, weighted=True, connected=True)
    pick = select_algorithm(kb, "shortest_path", g)
    assert pick.record.applicability.max_nodes == 50
    with pytest.raises(UnknownProblemTypeError):
        lookup_algorithms(kb, "tsp")


def test_schema_rejections():
    with pytest.raises(SchemaError):
        load_knowledge_base("algorithms: []")
    with pytest.raises(SchemaError):
        load_knowledge_base("just a string")
    with pytest.raises(SchemaError):
        load_knowledge_base(":\n  - broken [yaml")
    with pytest.raises(DuplicateAlgorithmError):
        load_knowledge_base(MINIMAL + MINIMAL.split("algorithms:\n")[1])
    with pytest.raises(UnknownProblemTypeError):
        load_knowledge_base(MINIMAL.replace("shortest_path", "max_flow"))
    with pytest.raises(SchemaError):
        load_knowledge_base(MINIMAL.replace("max_nodes: 50", "max_nodes: 0"))
    with pytest.raises(SchemaError):
        load_knowledge_base(MINIMAL.replace("directedness: any", "directedness: sideways"))
    with pytest.raises(SchemaError):
        load_knowledge_base(MINIMAL.replace("    complexity: O((n + m) log n)\n", ""))
    # A family listed only with a heuristic route is a configuration bug.
    with pytest.raises(SchemaError):
        load_knowledge_base(MINIMAL.replace("exact: true", "exact: false"))

    def add(anchor, line):  # the catalogue with `line` inserted after `anchor`
        return load_knowledge_base(MINIMAL.replace(anchor, f"{anchor}\n{line}"))

    # A key the loader does not read would be silently ignored.
    with pytest.raises(SchemaError, match="applicability: unknown key.*max_node"):
        add("      directedness: any", "      max_node: 3")
    with pytest.raises(SchemaError, match="unknown key.*cost"):
        add("    exact: true", "    cost: 1")
    with pytest.raises(SchemaError, match="unknown key.*parameters"):
        add("    exact: true", "    parameters: {}")
    with pytest.raises(SchemaError, match="top level: unknown key.*algorithm\\b"):
        add("version: 1", "algorithm: []")
    # A quoted flag is a string, not a boolean: bool("false") would read True.
    for flag in ("requires_complete", "requires_weighted"):
        with pytest.raises(SchemaError, match=f"{flag}.*true or false"):
            add("      max_nodes: 50", f"      {flag}: 'false'")
    # An id with no runner would only fail at the first solve.
    with pytest.raises(SchemaError, match="no runner"):
        load_knowledge_base(MINIMAL.replace("id: dijkstra", "id: bellman_ford"))
    # An id filed under another family would fail verification of every answer.
    with pytest.raises(SchemaError,
                       match="algorithm 'cycle_check': its runner answers cycle_detection, "
                             "not shortest_path"):
        load_knowledge_base(MINIMAL.replace("id: dijkstra", "id: cycle_check"))


def test_run_algorithm_matches_direct_calls():
    kb = default_knowledge_base()
    tsp_g = complete_graph(9, seed=11)
    assert run_algorithm(record(kb, "held_karp"), tsp_g) == tsp_exact_held_karp(tsp_g)
    color_g = gnp_graph(12, 0.35, seed=12)
    assert run_algorithm(record(kb, "exact_coloring"), color_g) == coloring_exact(color_g)
    cover_g = gnp_graph(14, 0.3, seed=13)
    assert run_algorithm(record(kb, "bnb_cover"), cover_g) == vertex_cover_exact(cover_g)
    sp_g = gnp_graph(10, 0.4, seed=14, weighted=True, connected=True)
    src, dst = sp_g.node_names[0], sp_g.node_names[-1]
    assert run_algorithm(record(kb, "dijkstra"), sp_g, source=src, target=dst) == (
        shortest_path_dijkstra(sp_g, src, dst)
    )
    cyc_g = gnp_graph(10, 0.2, seed=15)
    assert run_algorithm(record(kb, "cycle_check"), cyc_g) == detect_cycle(cyc_g)


def test_run_algorithm_via_choice_binds_parameters():
    kb = default_knowledge_base()
    g = complete_graph(26, seed=17)
    pick = select_algorithm(kb, "tsp", g)
    sol = run_algorithm(pick.record, g)
    assert sol.algorithm_id == "nearest_neighbor_2opt"
    assert sol.payload[0] == g.node_names[0]


def test_run_algorithm_error_cases():
    kb = default_knowledge_base()
    g = gnp_graph(6, 0.5, seed=18, weighted=True)
    with pytest.raises(GraphError):
        run_algorithm(record(kb, "dijkstra"), g)
