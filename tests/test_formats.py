import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcrew.formats import ParseError, parse_graph, serialize_graph
from graphcrew.graph import GraphError, build_graph

from oracles import scan_edge_list
from test_graph import graph_parts


def k3_unit():
    return build_graph(["A", "B", "C"], True, [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)])


def test_edge_list_text_shape():
    text = serialize_graph(k3_unit())
    assert text == (
        "# nodes: A B C\n"
        "# weighted: true\n"
        "A B 1\n"
        "A C 1\n"
        "B C 1\n"
    )


@given(graph_parts())
def test_round_trip_edge_and_adjacency(parts):
    names, weighted, edges = parts
    g = build_graph(names, weighted, edges)
    assert parse_graph(serialize_graph(g)) == g
    # text written before every graph was undirected carries a
    # "# directed: false" line under the roster
    roster, rest = serialize_graph(g).split("\n", 1)
    assert parse_graph(f"{roster}\n# directed: false\n{rest}") == g
    zero = build_graph(["A", "B"], True, [("A", "B", 0)])
    assert parse_graph(serialize_graph(zero)) == zero


@given(graph_parts())
def test_serialization_is_byte_stable(parts):
    names, weighted, edges = parts
    g = build_graph(names, weighted, edges)
    first = serialize_graph(g)
    assert serialize_graph(parse_graph(first)) == first


def test_directed_header_other_than_false_is_refused_at_its_value():
    # the column is the value's own, or just after the colon when it is empty
    for value, column in (("true", 14), ("maybe", 14), ("", 13)):
        with pytest.raises(ParseError) as err:
            parse_graph(f"# nodes: A B\n#  directed: {value}\nA B 1\n")
        assert str(err.value) == (
            f"line 2, column {column}: every connection a statement gives runs both ways, "
            f"so the graph cannot be directed (got {value!r})")


def test_header_keys_and_flags_read_in_any_case():
    g = parse_graph("# nodes: a B\n# weighted: false\na B\n")
    for header in ("# Nodes: a B\n# WEIGHTED: False\n", "#NODES : a B\n# Weighted:FALSE\n"):
        assert parse_graph(f"{header}a B\n") == g
    assert parse_graph("# Directed: False\nA B 1\n") == parse_graph("A B 1\n")
    # node names stay case-sensitive, and only a false directed header reads
    with pytest.raises(ParseError, match="endpoint 'A' missing from roster"):
        parse_graph("# Nodes: a B\nA B\n")
    with pytest.raises(ParseError, match=r"cannot be directed \(got 'True'\)"):
        parse_graph("# directed: True\nA B\n")
    with pytest.raises(ParseError, match="expected 'true' or 'false', got 'Yes'"):
        parse_graph("# Weighted: Yes\nA B\n")
    # ASCII letters only: a key whose letter folds to one is no key
    with pytest.raises(ParseError, match="bad header line"):
        parse_graph("# node\u017f: A B\nA B\n")


def test_edge_list_headerless_inference():
    g = parse_graph("B C 4\nA B 2\n")
    assert g.node_names == ("A", "B", "C")
    assert g.weighted
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


def test_exponent_weight_is_refused_at_once():
    # Fraction would spend seconds building this number before any check
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_graph("A B 1e10000000\n")
    assert time.perf_counter() - start < 0.5
    assert (err.value.line, err.value.column) == (1, 5)
    assert "exponent" in str(err.value)


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
    with pytest.raises(ParseError) as err:
        parse_graph(text.replace("A B 1 9", "A B 1"))
    assert str(err.value) == "line 3, column 15: expected 'true' or 'false', got 'maybe'"
    # an unreadable line anywhere comes before an endpoint missing from the roster
    with pytest.raises(ParseError) as err:
        parse_graph("# nodes: A B\nA C 1\nA B x\n")
    assert (err.value.line, err.value.column) == (3, 5)


def test_empty_roster_is_a_problem_but_not_skipped():
    with pytest.raises(ParseError) as err:
        parse_graph("# nodes: A B\n# nodes:\nA B\n")
    assert str(err.value) == "line 2, column 9: empty node roster"
    with pytest.raises(ParseError, match="empty node roster"):
        parse_graph("# nodes:\nA B\n")


def test_parse_propagates_semantic_errors():
    # an edge restated with its weight is one edge; with another weight it is refused
    assert parse_graph("A B 1\nB A 1\n") == parse_graph("A B 1\n")
    with pytest.raises(GraphError, match="^edge A-B stated with weights 1 and 2$"):
        parse_graph("A B 1\nB A 2\n")


def test_parse_refuses_mess_at_its_first_bad_line():
    with pytest.raises(ParseError) as err:
        parse_graph(
            "# nodes: A B C\n"
            "# directed: false\n"
            "here are the edges:\n"
            "A B 3\n"
            "A B 3\n"
            "B C oops\n"
            "B C 4\n"
        )
    assert (err.value.line, err.value.column) == (3, 1)
    assert "'here are the edges:'" in str(err.value)


def test_fraction_weights_survive_all_formats():
    g = build_graph(["A", "B"], True, [("A", "B", Fraction(85, 6))])
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
            key = draw(st.sampled_from(["nodes", "directed", "weighted", "speed", "Nodes",
                                        "DIRECTED", "Weighted", "nodeſ"]))
            value = draw(st.sampled_from(["true", "false", "maybe", "", "A B C", "AB\tC",
                                          "True", "FALSE"]))
            body = f"#{draw(SPACE)}{key}{draw(SPACE)}:{draw(SPACE)}{value}"
        elif kind == "comment":
            body = "# edges follow"
        else:
            body = ""
        lines.append(indent + body + trail)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def restated_edge_lists(draw):
    """Readable rows over a few names, often restating an edge, sometimes
    with another weight, and sometimes naming a node outside the roster."""
    lines = []
    if draw(st.booleans()):
        roster = draw(st.permutations("ABCD"))[:draw(st.integers(1, 4))]
        lines.append("# nodes: " + " ".join(roster))
    weights = st.sampled_from(["", " 1", " 2", " 2/1", " 7/2"])
    for _ in range(draw(st.integers(0, 8))):
        u, v = draw(st.permutations("ABCDE"))[:2]
        lines.append(f"{u} {v}{draw(weights)}")
    return "\n".join(lines) + "\n"


def outcome(read):
    """The graph ``read()`` builds, with its weights' types, or its error's type and text."""
    try:
        graph = read()
    except GraphError as exc:
        return type(exc), str(exc)
    return graph, [type(w) for _, _, w in graph.edges]


def read_with_oracle(text):
    got = scan_edge_list(text)
    if isinstance(got, ParseError):
        raise got
    return build_graph(*got)


@given(st.one_of(messy_edge_lists(), restated_edge_lists()))
@settings(max_examples=600)
def test_parse_graph_matches_the_strip_first_oracle(text):
    # parse_graph raises the reference's first problem at the same line and
    # column, or builds the graph the reference's parts build
    assert outcome(lambda: parse_graph(text)) == outcome(lambda: read_with_oracle(text))
