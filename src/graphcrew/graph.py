"""Canonical graph values.

Every subsystem trades in one frozen :class:`Graph` shape so that equal
graphs compare equal and serialize to identical bytes: node names are
sorted, edges are stored as sorted index triples, and undirected edges
always run from the lower index to the higher one.  Weights are exact
(``int`` or :class:`fractions.Fraction`); floats are refused at the door
rather than rounded somewhere downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Weight = int | Fraction


class GraphError(ValueError):
    """Malformed graph input."""


class DuplicateNodeError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class NegativeWeightError(GraphError):
    pass


class ConflictingWeightsError(GraphError):
    """The same edge was stated more than once with different weights."""


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
    ``(u, v, weight)`` index triples sorted ascending, with ``u < v``
    whenever the graph is undirected.  Two structurally equal graphs are
    therefore equal as values.  Use :func:`build_graph` instead of the
    raw constructor; it validates and canonicalizes.
    """

    node_names: tuple[str, ...]
    directed: bool
    weighted: bool
    edges: tuple[tuple[int, int, Weight], ...]

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownEndpointError(f"unknown node {name!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbors per node, ascending (both directions if undirected)."""
        neigh: list[list[int]] = [[] for _ in self.node_names]
        for u, v, _ in self.edges:
            neigh[u].append(v)
            if not self.directed:
                neigh[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neigh)

    @cached_property
    def weight_map(self) -> dict[tuple[int, int], Weight]:
        """Edge lookup by ordered index pair; undirected edges appear both ways."""
        wm: dict[tuple[int, int], Weight] = {}
        for u, v, w in self.edges:
            wm[(u, v)] = w
            if not self.directed:
                wm[(v, u)] = w
        return wm

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.weight_map

    def weight(self, u: int, v: int) -> Weight:
        try:
            return self.weight_map[(u, v)]
        except KeyError:
            nu, nv = self.node_names[u], self.node_names[v]
            raise GraphError(f"no edge {nu}-{nv}") from None


@dataclass(frozen=True)
class GraphStats:
    """Structural facts the algorithm selector keys on."""

    node_count: int
    edge_count: int
    density: Fraction
    is_connected: bool
    is_complete: bool


def build_graph(
    node_names: list[str] | tuple[str, ...],
    directed: bool,
    weighted: bool,
    edges: list[tuple] | tuple[tuple, ...],
) -> Graph:
    """Validate and canonicalize raw parts into a :class:`Graph`.

    ``edges`` elements are ``(u_name, v_name)`` or ``(u_name, v_name, weight)``;
    a missing weight defaults to 1.  Raises a :class:`GraphError` subclass on
    duplicate or empty names, unknown endpoints, self-loops, negative weights,
    repeated edges, or a non-1 weight in an unweighted graph.
    """
    names: list[str] = []
    seen: set[str] = set()
    for name in node_names:
        if not isinstance(name, str) or not name or name != name.strip():
            raise GraphError(f"bad node name {name!r}")
        if name in seen:
            raise DuplicateNodeError(f"duplicate node {name!r}")
        seen.add(name)
        names.append(name)
    names.sort()
    index = {name: i for i, name in enumerate(names)}

    out: list[tuple[int, int, Weight]] = []
    used: set[tuple[int, int]] = set()
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
            raise UnknownEndpointError(f"unknown node {u_name!r}")
        v = index.get(v_name)
        if v is None:
            raise UnknownEndpointError(f"unknown node {v_name!r}")
        if u == v:
            raise SelfLoopError(f"self-loop at {u_name!r}")
        if w < 0:
            raise NegativeWeightError(f"negative weight {format_weight(w)} on {u_name}-{v_name}")
        if not weighted and w != 1:
            raise GraphError(
                f"unweighted graph but edge {u_name}-{v_name} has weight {format_weight(w)}"
            )
        if not directed and u > v:
            u, v = v, u
        if (u, v) in used:
            raise DuplicateEdgeError(f"edge {u_name}-{v_name} stated twice")
        used.add((u, v))
        out.append((u, v, w))
    out.sort()
    return Graph(tuple(names), directed, weighted, tuple(out))


def merge_edge_triples(
    triples: list[tuple[str, str, Weight]], directed: bool
) -> list[tuple[str, str, Weight]]:
    """Collapse repeated edge statements, refusing contradictory ones.

    Input order is preserved for first occurrences.  A repeat with the
    same weight is dropped; a repeat with a different weight raises
    :class:`ConflictingWeightsError`.  Used by the graph normalizer,
    where messy extracted text may state an edge more than once.
    """
    merged: list[tuple[str, str, Weight]] = []
    by_pair: dict[tuple[str, str], Weight] = {}
    for u, v, w in triples:
        key = (u, v)
        if not directed and u > v:
            key = (v, u)
        if key in by_pair:
            if by_pair[key] != w:
                raise ConflictingWeightsError(
                    f"edge {key[0]}-{key[1]} stated with weights "
                    f"{format_weight(by_pair[key])} and {format_weight(w)}"
                )
            continue
        by_pair[key] = w
        merged.append((u, v, w))
    return merged


def graph_stats(graph: Graph) -> GraphStats:
    n = graph.node_count
    m = graph.edge_count
    if graph.directed:
        possible = n * (n - 1)
    else:
        possible = n * (n - 1) // 2
    density = Fraction(m, possible) if possible else Fraction(0)
    return GraphStats(
        node_count=n,
        edge_count=m,
        density=density,
        is_connected=_connected(graph),
        is_complete=possible > 0 and m == possible,
    )


def _connected(graph: Graph) -> bool:
    # Weak connectivity: direction is ignored for directed graphs.
    n = graph.node_count
    if n <= 1:
        return True
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in graph.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in neigh[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n
