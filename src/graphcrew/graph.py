"""Canonical graph values.

Every subsystem trades in one frozen :class:`Graph` shape so that equal
graphs compare equal and serialize to identical bytes: node names are
sorted, edges are stored as sorted index triples, and each edge runs
from the lower index to the higher one.  Every graph is undirected: each
connection a problem statement gives runs both ways.  Weights are exact
(``int`` or :class:`fractions.Fraction`); floats are refused at the door
rather than rounded somewhere downstream.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Weight = int | Fraction
Triple = tuple[int, int, Weight]


class GraphError(ValueError):
    """Malformed graph input."""


def coerce_weight(value: object) -> Weight:
    """Normalize a weight to an exact ``int`` or ``Fraction``.

    Accepts ints, Fractions, and strings like ``"7"`` or ``"7/2"``.
    Floats are rejected: binary floats silently misstate values such as
    0.1, and every consumer here relies on exact arithmetic.  A string of
    ASCII digits, the common case, is read by ``int()`` without building
    a ``Fraction``; any other string takes the ``Fraction`` path, except
    exponent notation, which is refused: ``Fraction("1e10000000")`` takes
    seconds to build a number nobody meant.
    """
    if isinstance(value, str):
        if value.isdigit() and value.isascii():
            try:
                return int(value)
            except ValueError as exc:  # past the interpreter's digit limit
                raise GraphError(f"bad weight {value!r}") from exc
        if "e" in value or "E" in value:
            raise GraphError(f"bad weight {value!r}: exponent notation is not accepted")
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphError(f"bad weight {value!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    if isinstance(value, bool):
        raise GraphError(f"weight must be a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        raise GraphError(
            f"float weight {value!r} not accepted; pass an int, Fraction, or decimal string"
        )
    raise GraphError(f"bad weight {value!r}")


def format_weight(value: Weight) -> str:
    """Render a weight canonically: ``7`` for integers, ``7/2`` otherwise."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


@dataclass(frozen=True)
class Graph:
    """An immutable graph in canonical form.

    ``node_names`` is lexicographically sorted; ``edges`` holds
    ``(u, v, weight)`` index triples sorted ascending, one per undirected
    edge, with ``u < v``.  Two structurally equal graphs are therefore
    equal as values.  Use :func:`build_graph` instead of the raw
    constructor; it validates and canonicalizes.  Graphs built from one
    table of triples (:func:`build_graph`'s ``triples``) hold each equal
    triple as one shared, immutable tuple object.
    """

    node_names: tuple[str, ...]
    weighted: bool
    edges: tuple[Triple, ...]

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_complete(self) -> bool:
        """Every pair of distinct nodes is joined (:func:`build_graph`
        stores each edge once and no self-loops)."""
        n = self.node_count
        return n > 1 and self.edge_count == n * (n - 1) // 2

    def index_of(self, name: str) -> int:
        names = self.node_names  # sorted, so a name is found by bisection
        if isinstance(name, str):
            i = bisect_left(names, name)
            if i < len(names) and names[i] == name:
                return i
        raise GraphError(f"unknown node {name!r}")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors per node, ascending."""
        neigh: list[list[int]] = [[] for _ in self.node_names]
        for u, v, _ in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neigh)


def neighbor_masks(graph: Graph) -> list[int]:
    """:attr:`Graph.adjacency` as one ``int`` per node, bit ``v`` set for neighbor ``v``."""
    return [sum(1 << v for v in ns) for ns in graph.adjacency]


def build_graph(
    node_names: list[str] | tuple[str, ...],
    weighted: bool,
    edges: list[tuple] | tuple[tuple, ...],
    triples: dict[Triple, Triple] | None = None,
) -> Graph:
    """Validate and canonicalize raw parts into a :class:`Graph`.

    ``edges`` elements are ``(u_name, v_name)`` or ``(u_name, v_name, weight)``;
    a missing weight defaults to 1.  An edge stated again, either way
    round, with the same weight is kept once; stated again with another
    weight, it raises :class:`GraphError`, as it does on duplicate or
    empty names, unknown endpoints, self-loops, negative weights, or a
    non-1 weight in an unweighted graph.

    With a ``triples`` table, each canonical ``(u, v, weight)`` triple is
    taken from it, and added to it when new, so the graphs built from one
    table hold one shared, immutable tuple per distinct triple.  The
    caller owns the table and decides how long it lives.
    """
    names: list[str] = []
    seen: set[str] = set()
    for name in node_names:
        if not isinstance(name, str) or not name or name != name.strip():
            raise GraphError(f"bad node name {name!r}")
        if name in seen:
            raise GraphError(f"duplicate node {name!r}")
        seen.add(name)
        names.append(name)
    names.sort()
    index = {name: i for i, name in enumerate(names)}

    used: dict[tuple[int, int], Weight] = {}
    for item in edges:
        if len(item) == 3:
            u_name, v_name, w = item
            if type(w) is not int:
                w = coerce_weight(w)
        elif len(item) == 2:
            u_name, v_name = item
            w = 1
        else:
            raise GraphError(f"edge must be a 2- or 3-tuple, got {item!r}")
        u = index.get(u_name)
        if u is None:
            raise GraphError(f"unknown node {u_name!r}")
        v = index.get(v_name)
        if v is None:
            raise GraphError(f"unknown node {v_name!r}")
        if u == v:
            raise GraphError(f"self-loop at {u_name!r}")
        if w < 0:
            raise GraphError(f"negative weight {format_weight(w)} on {u_name}-{v_name}")
        if not weighted and w != 1:
            raise GraphError(
                f"unweighted graph but edge {u_name}-{v_name} has weight {format_weight(w)}"
            )
        if u > v:
            u, v = v, u
        stated = used.setdefault((u, v), w)
        if stated != w:
            raise GraphError(
                f"edge {names[u]}-{names[v]} stated with weights "
                f"{format_weight(stated)} and {format_weight(w)}"
            )
    canonical = ((u, v, w) for (u, v), w in used.items())
    if triples is not None:
        canonical = (triples.setdefault(t, t) for t in canonical)
    return Graph(tuple(names), weighted, tuple(sorted(canonical)))


def is_connected(graph: Graph) -> bool:
    """Every node can reach every other."""
    n = graph.node_count
    if n <= 1:
        return True
    neigh = graph.adjacency
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in neigh[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n
