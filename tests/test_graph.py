import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcrew.graph import (
    Graph,
    GraphError,
    build_graph,
    coerce_weight,
    format_weight,
    is_connected,
)
from oracles import fraction_coerce_weight

NAME_POOL = [f"N{c}{d}" for c in "abcdef" for d in "abcdef"]


@st.composite
def graph_parts(draw, min_nodes=1, max_nodes=8, weighted=None, allow_zero=True):
    n = draw(st.integers(min_nodes, max_nodes))
    names = list(draw(st.permutations(NAME_POOL[:max_nodes])))[:n]
    if weighted is None:
        weighted = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        chosen = []
    weights = st.one_of(
        st.integers(0 if allow_zero else 1, 30),
        st.fractions(min_value=Fraction(1, 9), max_value=30, max_denominator=9),
    )
    edges = []
    for i, j in chosen:
        w = draw(weights) if weighted else 1
        edges.append((names[i], names[j], w))
    return names, weighted, edges


@given(graph_parts())
def test_canonical_ordering(parts):
    names, weighted, edges = parts
    g = build_graph(names, weighted, edges)
    assert g.node_names == tuple(sorted(names))
    assert list(g.edges) == sorted(g.edges)
    assert all(u < v for u, v, _ in g.edges)
    for _, _, w in g.edges:
        assert isinstance(w, (int, Fraction)) and not isinstance(w, bool)
        if isinstance(w, Fraction):
            assert w.denominator != 1


@given(graph_parts())
def test_rebuild_from_canonical_parts_is_identity(parts):
    names, weighted, edges = parts
    g = build_graph(names, weighted, edges)
    named = [(g.node_names[u], g.node_names[v], w) for u, v, w in g.edges]
    assert build_graph(list(g.node_names), weighted, named) == g


def test_equal_graphs_from_different_statement_order():
    a = build_graph(["B", "A", "C"], True, [("C", "A", 2), ("B", "A", 1)])
    b = build_graph(["A", "C", "B"], True, [("A", "B", 1), ("A", "C", 2)])
    assert a == b


def test_weight_coercion():
    assert coerce_weight("7/2") == Fraction(7, 2)
    assert coerce_weight(Fraction(4, 2)) == 2
    assert isinstance(coerce_weight(Fraction(4, 2)), int)
    assert coerce_weight("12") == 12
    with pytest.raises(GraphError):
        coerce_weight(0.5)
    with pytest.raises(GraphError):
        coerce_weight(True)
    with pytest.raises(GraphError):
        coerce_weight("three")


WEIGHT_ODDITIES = [
    "7/1", "0/3", "07", "+7", "-0", "1_000", "_1", "1__0", " 7", "7\t", "٣", "²", "３",
    "7/0", "1e3", "1.5", "", "4" * 4300, "4" * 4301, "-" + "4" * 4301,
]


@st.composite
def weight_tokens(draw):
    body = draw(st.one_of(
        st.integers(0, 10**12).map(str),
        st.tuples(st.integers(0, 999), st.integers(0, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.text(alphabet="0123456789+-_/. ٣²３", max_size=8),
        st.sampled_from(WEIGHT_ODDITIES),
    ))
    zeros = draw(st.sampled_from(["", "0", "000"]))
    sign = draw(st.sampled_from(["", "+", "-"]))
    before, after = draw(st.sampled_from(["", " ", "\t", "  "])), draw(st.sampled_from(["", " "]))
    return f"{before}{sign}{zeros}{body}{after}"


def assert_reads_like_the_fraction_oracle(value):
    try:
        want = fraction_coerce_weight(value)
    except GraphError:
        with pytest.raises(GraphError):
            coerce_weight(value)
        return
    got = coerce_weight(value)
    assert got == want and type(got) is type(want)


def test_weight_oddities_read_like_the_fraction_oracle():
    for token in WEIGHT_ODDITIES:
        assert_reads_like_the_fraction_oracle(token)
    with pytest.raises(GraphError):
        coerce_weight("4" * 4301)
    assert type(coerce_weight("7/1")) is int and type(coerce_weight("٣")) is int


@given(st.one_of(weight_tokens(), st.integers(-5, 10**6), st.booleans(), st.floats(),
                 st.fractions(max_denominator=12)))
@settings(max_examples=400)
def test_weight_reading_matches_the_fraction_oracle(value):
    assert_reads_like_the_fraction_oracle(value)


def test_format_weight():
    assert format_weight(7) == "7"
    assert format_weight(Fraction(7, 2)) == "7/2"
    assert format_weight(Fraction(8, 2)) == "4"


def test_build_rejections():
    with pytest.raises(GraphError, match="^duplicate node 'A'$"):
        build_graph(["A", "A"], False, [])
    with pytest.raises(GraphError, match="^bad node name ''$"):
        build_graph(["A", ""], False, [])
    with pytest.raises(GraphError, match="^bad node name ' B'$"):
        build_graph(["A", " B"], False, [])
    with pytest.raises(GraphError, match="^unknown node 'Z'$"):
        build_graph(["A", "B"], False, [("A", "Z")])
    with pytest.raises(GraphError, match="^self-loop at 'A'$"):
        build_graph(["A", "B"], False, [("A", "A")])
    with pytest.raises(GraphError, match="^negative weight -1 on A-B$"):
        build_graph(["A", "B"], True, [("A", "B", -1)])
    with pytest.raises(GraphError, match="^edge A-B stated with weights 1 and 2$"):
        build_graph(["A", "B"], True, [("A", "B", 1), ("B", "A", 2)])
    with pytest.raises(GraphError, match="^unweighted graph but edge A-B has weight 3$"):
        build_graph(["A", "B"], False, [("A", "B", 3)])


def test_adjacency_and_index_lookup():
    g = build_graph(["A", "B", "C"], True, [("A", "B", 3), ("B", "C", 4)])
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert [g.index_of(name) for name in g.node_names] == [0, 1, 2]
    # before the first name, between two, past the last, and not a string
    for name in ("", "0", "AB", "Z", 1, None, ["A"]):
        with pytest.raises(GraphError, match=re.escape(f"unknown node {name!r}") + "$"):
            g.index_of(name)


def test_build_graph_merges_restated_edges():
    g = build_graph(["A", "B", "C"], True, [("A", "B", 3), ("B", "A", 3), ("A", "C", 2)])
    assert g.edges == ((0, 1, 3), (0, 2, 2))
    with pytest.raises(GraphError, match="^edge A-B stated with weights 3 and 5$"):
        build_graph(["A", "B"], True, [("B", "A", 3), ("A", "B", 5)])


@given(graph_parts(), st.randoms(use_true_random=False))
def test_restated_edges_build_the_same_graph(parts, rng):
    names, weighted, edges = parts
    restated = edges + [(v, u, w) for u, v, w in edges]
    rng.shuffle(restated)
    assert build_graph(names, weighted, restated) == build_graph(
        names, weighted, edges)


def test_stats_small_cases():
    k3 = build_graph(["A", "B", "C"], False, [("A", "B"), ("A", "C"), ("B", "C")])
    assert k3.node_count == 3 and k3.is_complete and is_connected(k3)

    path = build_graph(["A", "B", "C", "D"], False, [("A", "B"), ("B", "C"), ("C", "D")])
    assert is_connected(path) and not path.is_complete

    split = build_graph(["A", "B", "C"], False, [("A", "B")])
    assert not is_connected(split)

    single = build_graph(["A"], False, [])
    assert is_connected(single) and not single.is_complete


@given(graph_parts(min_nodes=2))
def test_stats_match_definitions(parts):
    names, weighted, edges = parts
    g = build_graph(names, weighted, edges)
    n = g.node_count
    assert n == len(names)
    assert g.is_complete == (g.edge_count == n * (n - 1) // 2)
    reach = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b, _ in g.edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    assert is_connected(g) == (len(reach) == n)
