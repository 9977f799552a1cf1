import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcrew.formats import ParseError, parse_graph, read_edge_list_loose, serialize_graph
from graphcrew.graph import DuplicateEdgeError, build_graph

from oracles import scan_edge_list
from test_graph import graph_parts


def k3_unit():
    return build_graph(["A", "B", "C"], False, True, [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)])


def test_edge_list_text_shape():
    text = serialize_graph(k3_unit())
    assert text == (
        "# nodes: A B C\n"
        "# directed: false\n"
        "# weighted: true\n"
        "A B 1\n"
        "A C 1\n"
        "B C 1\n"
    )


@given(graph_parts())
def test_round_trip_edge_and_adjacency(parts):
    names, directed, weighted, edges = parts
    g = build_graph(names, directed, weighted, edges)
    assert parse_graph(serialize_graph(g)) == g
    zero = build_graph(["A", "B"], False, True, [("A", "B", 0)])
    assert parse_graph(serialize_graph(zero)) == zero


@given(graph_parts())
def test_serialization_is_byte_stable(parts):
    names, directed, weighted, edges = parts
    g = build_graph(names, directed, weighted, edges)
    first = serialize_graph(g)
    assert serialize_graph(parse_graph(first)) == first


@given(graph_parts())
def test_loose_reader_reads_what_parse_builds_from(parts):
    names, directed, weighted, edges = parts
    g = build_graph(names, directed, weighted, edges)
    got = read_edge_list_loose(serialize_graph(g))
    assert got.names == list(g.node_names)
    assert (got.directed, got.weighted) == (g.directed, g.weighted)
    assert got.triples == [
        (g.node_names[u], g.node_names[v], w) for u, v, w in g.edges
    ]
    assert got.skipped == () and got.problems == ()
    assert build_graph(got.names, got.directed, got.weighted, got.triples) == g


def test_edge_list_headerless_inference():
    g = parse_graph("B C 4\nA B 2\n")
    assert g.node_names == ("A", "B", "C")
    assert g.weighted and not g.directed
    assert g.edges == ((0, 1, 2), (1, 2, 4))
    plain = parse_graph("B C\nA B\n")
    assert not plain.weighted


def test_edge_list_roster_covers_isolated_nodes():
    g = parse_graph("# nodes: A B C\nA B 2\n")
    assert g.node_names == ("A", "B", "C")
    assert g.edge_count == 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_graph("A B 2\nA C x\n")
    assert err.value.line == 2
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse_graph("# nodes: A B\nA B 1\nA C 1\n")
    assert err.value.line == 3
    # columns count from the raw line, token by token: the indent counts,
    # and a name that also occurs inside an earlier token is not matched there
    with pytest.raises(ParseError) as err:
        parse_graph("# nodes: AB C\nAB B")
    assert (err.value.line, err.value.column) == (2, 4)
    assert "'B' missing from roster" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_graph("   A C x")
    assert (err.value.line, err.value.column) == (1, 8)
    assert [(p.line, p.column) for p in read_edge_list_loose("   A C x").problems] == [(1, 8)]


def test_exponent_weight_is_refused_at_once():
    # Fraction would spend seconds building this number before any check
    start = time.perf_counter()
    got = read_edge_list_loose("A B 1e10000000\n")
    assert time.perf_counter() - start < 0.5
    assert got.triples == []
    assert [(p.line, p.column) for p in got.problems] == [(1, 5)]
    assert "exponent" in str(got.problems[0])


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_graph("# speed: fast\nA B\n")
    with pytest.raises(ParseError):
        parse_graph("# directed: maybe\nA B\n")
    with pytest.raises(ParseError):
        parse_graph("A B 1 9\n")


def test_parse_reports_problems_in_line_order():
    text = "# nodes: A B\nA B 1 9\n  # weighted: maybe\n"
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == "line 2, column 1: expected 'U V' or 'U V W', got 'A B 1 9'"
    got = read_edge_list_loose(text)
    assert [(p.line, p.column) for p in got.problems] == [(2, 1), (3, 14)]
    assert str(got.problems[1]) == "line 3, column 14: expected 'true' or 'false', got 'maybe'"


def test_empty_roster_is_a_problem_but_not_skipped():
    got = read_edge_list_loose("# nodes: A B\n# nodes:\nA B\n")
    assert got.names is None
    assert got.skipped == ()
    assert [str(p) for p in got.problems] == ["line 2, column 9: empty node roster"]
    with pytest.raises(ParseError, match="empty node roster"):
        parse_graph("# nodes:\nA B\n")


def test_parse_propagates_semantic_errors():
    with pytest.raises(DuplicateEdgeError):
        parse_graph("A B 1\nB A 1\n")


def test_loose_reader_tolerates_mess():
    got = read_edge_list_loose(
        "# nodes: A B C\n"
        "# directed: false\n"
        "here are the edges:\n"
        "A B 3\n"
        "A B 3\n"
        "B C oops\n"
        "B C 4\n"
    )
    assert got.names == ["A", "B", "C"]
    assert got.directed is False
    assert got.weighted is True
    assert got.triples == [("A", "B", 3), ("A", "B", 3), ("B", "C", 4)]
    assert got.skipped == ("here are the edges:", "B C oops")


def test_loose_reader_empty_text():
    got = read_edge_list_loose("nothing to see\n")
    assert got.triples == [] and got.names is None


def test_fraction_weights_survive_all_formats():
    g = build_graph(["A", "B"], False, True, [("A", "B", Fraction(85, 6))])
    back = parse_graph(serialize_graph(g))
    assert back.edges[0][2] == Fraction(85, 6)


SPACE = st.sampled_from(["", " ", "\t", "  \t"])
ROW_TOKENS = st.one_of(
    st.sampled_from(["A", "B", "AB", "C", "x#", "٣", "²", "7/2", "7/1", "0/3", "007", "-1",
                     "+4", "1_0", "oops", "4" * 4301]),
    st.integers(0, 10**6).map(str),
    st.text(alphabet="0123456789/+-_x٣", min_size=1, max_size=5),
)


@st.composite
def messy_edge_lists(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        indent, trail = draw(SPACE), draw(SPACE)
        kind = draw(st.sampled_from(["row", "row", "header", "comment", "blank"]))
        if kind == "row":
            count = draw(st.sampled_from([1, 2, 3, 3, 4, 5]))
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
            body = sep.join(draw(ROW_TOKENS) for _ in range(count))
        elif kind == "header":
            key = draw(st.sampled_from(["nodes", "directed", "weighted", "speed"]))
            value = draw(st.sampled_from(["true", "false", "maybe", "", "A B C", "AB\tC"]))
            body = f"#{draw(SPACE)}{key}{draw(SPACE)}:{draw(SPACE)}{value}"
        elif kind == "comment":
            body = "# edges follow"
        else:
            body = ""
        lines.append(indent + body + trail)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def loose_fields(got):
    return (got.names, got.directed, got.weighted,
            [(u, v, w, type(w)) for u, v, w in got.triples], got.skipped,
            [(p.line, p.column, str(p)) for p in got.problems])


@given(messy_edge_lists())
@settings(max_examples=400)
def test_loose_reader_matches_the_strip_first_oracle(text):
    assert loose_fields(read_edge_list_loose(text)) == loose_fields(scan_edge_list(text))
