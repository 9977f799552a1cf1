from fractions import Fraction
from itertools import product

import pytest

from graphcrew.execute import UnknownAlgorithmError, run_algorithm
from graphcrew.graph import GraphError, GraphStats, build_graph, graph_stats
from graphcrew.knowledge import (
    Applicability,
    AlgorithmRecord,
    DuplicateAlgorithmError,
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
    TooLargeError,
    coloring_exact,
    detect_cycle,
    shortest_path_dijkstra,
    tsp_exact_held_karp,
    vertex_cover_exact,
)

from util import complete_graph, gnp_graph


def choose(kb, problem_type, graph):
    return select_algorithm(
        kb,
        problem_type,
        graph_stats(graph),
        weighted=graph.weighted,
        directed=graph.directed,
    )


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
    pick = choose(kb, "tsp", complete_graph(12, seed=1))
    assert pick.record.algorithm_id == "held_karp"
    assert "12 nodes" in pick.rationale and "25" in pick.rationale


def test_selector_falls_back_past_the_limit():
    kb = default_knowledge_base()
    assert choose(kb, "tsp", complete_graph(25, seed=1)).record.algorithm_id == "held_karp"
    pick = choose(kb, "tsp", complete_graph(26, seed=1))
    assert pick.record.algorithm_id == "nearest_neighbor_2opt"
    assert not pick.record.exact
    assert "held_karp" in pick.rationale and "limit of 25" in pick.rationale


def test_selector_boundaries_per_family():
    kb = default_knowledge_base()
    assert choose(kb, "graph_coloring", gnp_graph(25, 0.3, seed=2)).record.algorithm_id == "exact_coloring"
    assert choose(kb, "graph_coloring", gnp_graph(26, 0.3, seed=2)).record.algorithm_id == "dsatur"
    assert choose(kb, "vertex_cover", gnp_graph(30, 0.3, seed=3)).record.algorithm_id == "bnb_cover"
    assert choose(kb, "vertex_cover", gnp_graph(31, 0.3, seed=3)).record.algorithm_id == "matching_cover"
    sp = gnp_graph(40, 0.3, seed=4, weighted=True, connected=True)
    assert choose(kb, "shortest_path", sp).record.algorithm_id == "dijkstra"
    assert choose(kb, "cycle_detection", gnp_graph(40, 0.1, seed=5)).record.algorithm_id == "cycle_check"


def test_selector_rejects_structurally_wrong_graphs():
    kb = default_knowledge_base()
    incomplete = gnp_graph(10, 0.4, seed=6, weighted=True)
    with pytest.raises(NoApplicableAlgorithmError) as err:
        choose(kb, "tsp", incomplete)
    assert "not complete" in str(err.value)
    directed = gnp_graph(10, 0.3, seed=7, directed=True)
    with pytest.raises(NoApplicableAlgorithmError):
        choose(kb, "graph_coloring", directed)
    names = [f"N{i:02d}" for i in range(4)]
    unweighted_k4 = build_graph(
        names, False, False, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    )
    with pytest.raises(NoApplicableAlgorithmError):
        choose(kb, "tsp", unweighted_k4)


def test_applicability_reason_is_checkable_alone():
    kb = default_knowledge_base()
    hk = kb.by_id("held_karp")
    small = graph_stats(complete_graph(10, seed=1))
    big = graph_stats(complete_graph(26, seed=1))
    assert applicability_reason(hk, small, weighted=True, directed=False) is None
    assert "exceeds" in applicability_reason(hk, big, weighted=True, directed=False)
    assert "unweighted" in applicability_reason(hk, small, weighted=False, directed=False)
    assert "directed" in applicability_reason(hk, small, weighted=True, directed=True)


# a second heuristic and a second exact route for one family, file order mixed
TWO_HEURISTICS = """
version: 1
algorithms:
  - id: matching_cover
    problem: graph_coloring
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
    problem: graph_coloring
    description: A complete-only exact route.
    complexity: exponential
    exact: true
    applicability:
      max_nodes: 10
      requires_complete: true
      directedness: directed
"""


def derived_fallbacks(kb, problem_type, stats, weighted, directed):
    """The other applicable routes, judged one by one after the choice."""
    applicable = [
        record for record in lookup_algorithms(kb, problem_type)
        if applicability_reason(record, stats, weighted=weighted, directed=directed) is None
    ]
    return applicable[0], tuple(applicable[1:])


@pytest.mark.parametrize("kb", [default_knowledge_base(), load_knowledge_base(TWO_HEURISTICS)],
                         ids=["default", "two_heuristics"])
def test_fallbacks_are_the_other_applicable_routes_in_lookup_order(kb):
    for problem_type in sorted({record.problem_type for record in kb.records}):
        limits = {r.applicability.max_nodes for r in lookup_algorithms(kb, problem_type)}
        sizes = sorted({size for limit in limits for size in (limit, limit + 1)})
        for n, complete, weighted, directed in product(sizes, *[(False, True)] * 3):
            stats = GraphStats(n, n, Fraction(1, 2), True, complete)
            try:
                want = derived_fallbacks(kb, problem_type, stats, weighted, directed)
            except IndexError:
                with pytest.raises(NoApplicableAlgorithmError):
                    select_algorithm(kb, problem_type, stats, weighted=weighted, directed=directed)
                continue
            choice = select_algorithm(kb, problem_type, stats, weighted=weighted, directed=directed)
            assert (choice.record, choice.fallbacks) == want


def test_fallbacks_keep_two_heuristics_in_file_order():
    kb = load_knowledge_base(TWO_HEURISTICS)
    stats = GraphStats(10, 45, Fraction(1), True, True)
    choice = select_algorithm(kb, "graph_coloring", stats, weighted=True, directed=False)
    assert choice.record.algorithm_id == "exact_coloring"
    assert [r.algorithm_id for r in choice.fallbacks] == ["matching_cover", "dsatur"]


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
    pick = choose(kb, "shortest_path", g)
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


def test_run_algorithm_matches_direct_calls():
    kb = default_knowledge_base()
    tsp_g = complete_graph(9, seed=11)
    assert run_algorithm(kb.by_id("held_karp"), tsp_g) == tsp_exact_held_karp(tsp_g)
    color_g = gnp_graph(12, 0.35, seed=12)
    assert run_algorithm(kb.by_id("exact_coloring"), color_g) == coloring_exact(color_g)
    cover_g = gnp_graph(14, 0.3, seed=13)
    assert run_algorithm(kb.by_id("bnb_cover"), cover_g) == vertex_cover_exact(cover_g)
    sp_g = gnp_graph(10, 0.4, seed=14, weighted=True, connected=True)
    src, dst = sp_g.node_names[0], sp_g.node_names[-1]
    assert run_algorithm(kb.by_id("dijkstra"), sp_g, source=src, target=dst) == (
        shortest_path_dijkstra(sp_g, src, dst)
    )
    cyc_g = gnp_graph(10, 0.2, seed=15)
    assert run_algorithm(kb.by_id("cycle_check"), cyc_g) == detect_cycle(cyc_g)


def test_run_algorithm_respects_catalogue_limit():
    tight = AlgorithmRecord(
        algorithm_id="held_karp",
        problem_type="tsp",
        description="d",
        complexity="c",
        exact=True,
        applicability=Applicability(10, True, True, "undirected"),
    )
    with pytest.raises(TooLargeError):
        run_algorithm(tight, complete_graph(12, seed=16))


def test_run_algorithm_via_choice_binds_parameters():
    kb = default_knowledge_base()
    g = complete_graph(26, seed=17)
    pick = choose(kb, "tsp", g)
    sol = run_algorithm(pick.record, g)
    assert sol.algorithm_id == "nearest_neighbor_2opt"
    assert sol.payload[0] == g.node_names[0]


def test_run_algorithm_error_cases():
    kb = default_knowledge_base()
    g = gnp_graph(6, 0.5, seed=18, weighted=True)
    with pytest.raises(GraphError):
        run_algorithm(kb.by_id("dijkstra"), g)
    stray = AlgorithmRecord(
        algorithm_id="simulated_annealing",
        problem_type="tsp",
        description="d",
        complexity="c",
        exact=False,
        applicability=Applicability(10, True, True, "undirected"),
    )
    with pytest.raises(UnknownAlgorithmError):
        run_algorithm(stray, complete_graph(5, seed=19))
