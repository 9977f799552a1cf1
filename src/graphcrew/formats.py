"""The one text form of a graph: an edge list under ``#`` header lines.

The headers pin down what the rows alone cannot: the node roster
(isolated nodes included) and weightedness.  Grammar, one line each,
blank lines ignored:

- header:  ``# nodes: A B C`` | ``# weighted: false``
- row:     ``U V`` (unweighted) | ``U V 7/2`` (weighted)

Header keys and the ``true``/``false`` values are read case-blind
(``# Weighted: True``); node names are case-sensitive.

A missing ``weighted`` header means weighted exactly when some row
carries a weight; a missing ``nodes`` header means the roster is the
rows' endpoints.  Every graph is undirected, so a row joins its two
nodes both ways round.  Text written by earlier versions carries a
``# directed: false`` header, which is read and changes nothing; a
``directed`` header with any other value is refused.

One scanner reads every line once and refuses the first unreadable
line; :func:`parse_graph` then checks the roster and builds the
canonical :class:`~graphcrew.graph.Graph`, which merges an edge stated
twice with one weight and refuses one stated with two.  It is the only
reader of graph text: dataset records and model replies alike go
through it.  ``parse_graph(serialize_graph(g)) == g`` for every graph,
and serializing a canonical graph is byte-stable.
"""

from __future__ import annotations

import re

from .graph import Graph, GraphError, Triple, Weight, build_graph, coerce_weight, format_weight


class ParseError(GraphError):
    """Text did not match the edge-list grammar.

    ``line`` and ``column`` are 1-based positions of the offending token.
    """

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def serialize_graph(graph: Graph) -> str:
    names = graph.node_names
    lines = [
        "# nodes: " + " ".join(names),
        f"# weighted: {'true' if graph.weighted else 'false'}",
    ]
    if graph.weighted:
        lines += [f"{names[u]} {names[v]} {format_weight(w)}" for u, v, w in graph.edges]
    else:
        lines += [f"{names[u]} {names[v]}" for u, v, _ in graph.edges]
    return "\n".join(lines) + "\n"


# keys are read case-blind in ASCII only, so ``# nodeſ:`` is no header
_HEADER_RE = re.compile(r"^#\s*((?ai:nodes|directed|weighted))\s*:\s*(.*)$")
_TOKEN_RE = re.compile(r"\S+")


def _column(raw: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated token of a raw line."""
    return [m.start() for m in _TOKEN_RE.finditer(raw)][index] + 1


def _scan(text: str) -> tuple[list[str] | None, bool, list[tuple[str, str, Weight]]]:
    """Names (``None`` without a roster), weighted and rows; raises the
    first unreadable line as a :class:`ParseError`."""
    names: list[str] | None = None
    weighted: bool | None = None
    rows: list[tuple[str, str, Weight]] = []
    saw_weight = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] != "#":
            if len(tokens) == 2:
                rows.append((tokens[0], tokens[1], 1))
            elif len(tokens) != 3:
                raise ParseError(f"expected 'U V' or 'U V W', got {raw.strip()!r}", lineno)
            else:
                try:
                    rows.append((tokens[0], tokens[1], coerce_weight(tokens[2])))
                except GraphError as exc:
                    raise ParseError(str(exc), lineno, _column(raw, 2)) from None
                saw_weight = True
            continue
        line = raw.strip()
        match = _HEADER_RE.match(line)
        if match is None:
            raise ParseError(f"bad header line {line!r}", lineno)
        key, value = match.group(1).lower(), match.group(2)
        # where the value starts, or just after the colon when it is empty
        column = raw.index("#") + match.start(2) + 1
        if key == "nodes":
            names = value.split()
            if not names:
                raise ParseError("empty node roster", lineno, column)
        elif key == "directed":
            if value.lower() != "false":
                raise ParseError("every connection a statement gives runs both ways, so "
                                 f"the graph cannot be directed (got {value!r})", lineno, column)
        elif value.lower() not in ("true", "false"):
            raise ParseError(f"expected 'true' or 'false', got {value!r}", lineno, column)
        else:
            weighted = value.lower() == "true"
    return names, saw_weight if weighted is None else weighted, rows


def parse_graph(text: str, triples: dict[Triple, Triple] | None = None) -> Graph:
    """Parse edge-list text into a canonical :class:`Graph`.

    Raises the first :class:`ParseError` in line order, then one for an
    endpoint missing from the ``# nodes:`` roster, and a plain
    :class:`~graphcrew.graph.GraphError` on semantic problems, an edge
    stated with two weights among them.
    ``triples`` is passed to :func:`~graphcrew.graph.build_graph`.
    """
    names, weighted, rows = _scan(text)
    if names is None:
        names = sorted({name for u, v, _ in rows for name in (u, v)})
    else:
        roster = set(names)
        for index, (u, v, _) in enumerate(rows):
            if u not in roster or v not in roster:
                token = u if u not in roster else v
                lineno, raw = _row_line(text, index)
                raise ParseError(f"endpoint {token!r} missing from roster", lineno,
                                 _column(raw, 0 if token == u else 1))
    return build_graph(names, weighted, rows, triples)


def _row_line(text: str, index: int) -> tuple[int, str]:
    """Line number and raw text of the ``index``-th row of clean text."""
    lines = enumerate(text.splitlines(), start=1)
    return [(n, raw) for n, raw in lines if raw.strip() and not raw.lstrip().startswith("#")][index]
