"""The one text form of a graph: an edge list under ``#`` header lines.

The headers pin down what the rows alone cannot: the node roster
(isolated nodes included), directedness and weightedness.  Grammar, one
line each, blank lines ignored:

- header:  ``# nodes: A B C`` | ``# directed: true`` | ``# weighted: false``
- row:     ``U V`` (unweighted) | ``U V 7/2`` (weighted)

A missing ``directed`` header means undirected; a missing ``weighted``
header means weighted exactly when some row carries a weight; a missing
``nodes`` header means the roster is the rows' endpoints.

One scanner reads every line once.  :func:`read_edge_list_loose` returns
what it read, unreadable lines included; :func:`parse_graph` refuses the
first unreadable line, then checks the roster and builds the canonical
:class:`~graphcrew.graph.Graph`.  ``parse_graph(serialize_graph(g)) == g``
for every graph, and serializing a canonical graph is byte-stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import Graph, GraphError, Weight, build_graph, coerce_weight, format_weight


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
        f"# directed: {'true' if graph.directed else 'false'}",
        f"# weighted: {'true' if graph.weighted else 'false'}",
    ]
    if graph.weighted:
        lines += [f"{names[u]} {names[v]} {format_weight(w)}" for u, v, w in graph.edges]
    else:
        lines += [f"{names[u]} {names[v]}" for u, v, _ in graph.edges]
    return "\n".join(lines) + "\n"


@dataclass
class LooseEdgeList:
    """What the scanner read from edge-list-shaped text.

    Duplicate edges are kept for the caller to merge, and a missing
    header leaves its field ``None``.  Each unreadable line lands in
    ``skipped`` and its :class:`ParseError` in ``problems``, in line
    order; an empty ``# nodes:`` roster is a problem that resets
    ``names`` to ``None`` but is not skipped.
    """

    names: list[str] | None
    directed: bool | None
    weighted: bool | None
    triples: list[tuple[str, str, Weight]]
    skipped: tuple[str, ...]
    problems: tuple[ParseError, ...]

    def roster(self) -> list[str]:
        """The ``# nodes:`` roster, else the rows' endpoints in sorted order."""
        return self.names or sorted({name for u, v, _ in self.triples for name in (u, v)})


_HEADER_RE = re.compile(r"^#\s*(nodes|directed|weighted)\s*:\s*(.*)$")
_TOKEN_RE = re.compile(r"\S+")


def _column(raw: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated token of a raw line."""
    return [m.start() for m in _TOKEN_RE.finditer(raw)][index] + 1


def _scan(text: str) -> LooseEdgeList:
    names: list[str] | None = None
    directed: bool | None = None
    weighted: bool | None = None
    triples: list[tuple[str, str, Weight]] = []
    skipped: list[str] = []
    problems: list[ParseError] = []
    saw_weight = False

    def skip(line: str, problem: ParseError) -> None:
        skipped.append(line)
        problems.append(problem)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] != "#":
            if len(tokens) == 2:
                triples.append((tokens[0], tokens[1], 1))
            elif len(tokens) != 3:
                line = raw.strip()
                skip(line, ParseError(f"expected 'U V' or 'U V W', got {line!r}", lineno))
            else:
                try:
                    triples.append((tokens[0], tokens[1], coerce_weight(tokens[2])))
                    saw_weight = True
                except GraphError as exc:
                    skip(raw.strip(), ParseError(str(exc), lineno, _column(raw, 2)))
            continue
        line = raw.strip()
        match = _HEADER_RE.match(line)
        if match is None:
            skip(line, ParseError(f"bad header line {line!r}", lineno))
            continue
        key, value = match.group(1), match.group(2).strip()
        column = raw.index(":") + 2
        if key == "nodes":
            names = value.split() or None
            if names is None:
                problems.append(ParseError("empty node roster", lineno, column))
        elif value not in ("true", "false"):
            skip(line, ParseError(f"expected 'true' or 'false', got {value!r}", lineno, column))
        elif key == "directed":
            directed = value == "true"
        else:
            weighted = value == "true"
    if weighted is None and saw_weight:
        weighted = True
    return LooseEdgeList(names, directed, weighted, triples, tuple(skipped), tuple(problems))


def read_edge_list_loose(text: str) -> LooseEdgeList:
    """Best-effort read of edge-list-shaped text; never raises."""
    return _scan(text)


def parse_graph(text: str) -> Graph:
    """Parse edge-list text into a canonical :class:`Graph`.

    Raises the first :class:`ParseError` in line order, then one for an
    endpoint missing from the ``# nodes:`` roster, and other
    :class:`~graphcrew.graph.GraphError` subclasses on semantic problems.
    """
    scan = _scan(text)
    if scan.problems:
        raise scan.problems[0]
    if scan.names is not None:
        roster = set(scan.names)
        for index, (u, v, _) in enumerate(scan.triples):
            if u not in roster or v not in roster:
                token = u if u not in roster else v
                lineno, raw = _row_line(text, index)
                raise ParseError(f"endpoint {token!r} missing from roster", lineno,
                                 _column(raw, 0 if token == u else 1))
    return build_graph(scan.roster(), bool(scan.directed), bool(scan.weighted), scan.triples)


def _row_line(text: str, index: int) -> tuple[int, str]:
    """Line number and raw text of the ``index``-th row of clean text."""
    lines = enumerate(text.splitlines(), start=1)
    return [(n, raw) for n, raw in lines if raw.strip() and not raw.lstrip().startswith("#")][index]
