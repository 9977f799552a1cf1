"""Solution values and the structural verifier.

A :class:`Solution` pairs a payload in canonical form with its exact
objective and a record of which algorithm produced it.  Canonical forms:

- ``tour``: node-name tuple starting at the tour's start node; of the two
  traversal directions, the one whose second name sorts before the last
  name is kept.
- ``coloring``: dict over node names in sorted order, colors relabeled to
  first-appearance order (so color ids carry no solver-internal history).
- ``node_set``: sorted node-name tuple.
- ``path``: node-name tuple from source to target.
- ``boolean``: plain bool, objective 1 or 0.

Two runs that find the same answer therefore produce equal values, and
equal values serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ..graph import Graph, Weight, coerce_weight, format_weight
from ..problems import BOOLEAN, COLORING, KIND_BY_PROBLEM, NODE_SET, PATH, TOUR


class SolverInputError(ValueError):
    """A solver was handed a graph outside its preconditions."""


class TooLargeError(SolverInputError):
    def __init__(self, node_count: int, limit: int):
        super().__init__(f"graph has {node_count} nodes, limit is {limit}")
        self.node_count = node_count
        self.limit = limit


class GraphNotCompleteError(SolverInputError):
    pass


class KindMismatchError(ValueError):
    """Solution kind does not fit the problem type under verification."""


@dataclass(frozen=True)
class Solution:
    kind: str
    payload: Any
    objective: Weight
    algorithm_id: str
    exact: bool


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[str, ...]


def canonical_tour(order: tuple[str, ...]) -> tuple[str, ...]:
    """Fix the traversal direction of a cyclic tour, keeping its start."""
    if len(order) >= 3 and order[1] > order[-1]:
        return (order[0],) + tuple(reversed(order[1:]))
    return order


def canonical_coloring(colors: dict[str, int]) -> dict[str, int]:
    """Relabel colors by first appearance over sorted node names."""
    relabel: dict[int, int] = {}
    out: dict[str, int] = {}
    for name in sorted(colors):
        c = colors[name]
        if c not in relabel:
            relabel[c] = len(relabel)
        out[name] = relabel[c]
    return out


def solution_to_dict(solution: Solution) -> dict[str, Any]:
    out: dict[str, Any] = {
        "kind": solution.kind,
        "algorithm": solution.algorithm_id,
        "exact": solution.exact,
        "objective": format_weight(solution.objective),
    }
    if solution.kind == TOUR:
        out["order"] = list(solution.payload)
    elif solution.kind == COLORING:
        out["colors"] = dict(solution.payload)
    elif solution.kind == NODE_SET:
        out["nodes"] = list(solution.payload)
    elif solution.kind == PATH:
        out["path"] = list(solution.payload)
    elif solution.kind == BOOLEAN:
        out["answer"] = bool(solution.payload)
    else:
        raise ValueError(f"unknown solution kind {solution.kind!r}")
    return out


def solution_from_dict(data: dict[str, Any]) -> Solution:
    """Read a solution record, refusing with ValueError any value of the wrong JSON type."""
    kind = data["kind"]
    if kind == TOUR:
        payload: Any = tuple(data["order"])
    elif kind == COLORING:
        payload = dict(sorted(data["colors"].items()))
        if not all(type(c) is int for c in payload.values()):
            raise ValueError("colors must be integers")
    elif kind == NODE_SET:
        payload = tuple(data["nodes"])
    elif kind == PATH:
        payload = tuple(data["path"])
    elif kind == BOOLEAN:
        payload = data["answer"]
        if not isinstance(payload, bool):
            raise ValueError("'answer' must be true or false")
    else:
        raise ValueError(f"unknown solution kind {kind!r}")
    if kind != BOOLEAN and not all(isinstance(name, str) for name in payload):
        raise ValueError("node names must be strings")
    objective = coerce_weight(data["objective"])
    if kind == BOOLEAN and objective != int(payload):
        raise ValueError("a boolean answer's objective must be 1 for true, 0 for false")
    if not isinstance(data["exact"], bool):
        raise ValueError("'exact' must be true or false")
    return Solution(
        kind=kind,
        payload=payload,
        objective=objective,
        algorithm_id=data["algorithm"],
        exact=data["exact"],
    )


def verify_solution(
    problem_type: str,
    graph: Graph,
    solution: Solution,
    source: str | None = None,
    target: str | None = None,
) -> ValidityReport:
    """Check a solution against the graph's structure, not against truth.

    Validity is purely structural: a suboptimal but well-formed answer is
    valid.  Raises :class:`KindMismatchError` when the solution kind does
    not belong to the problem type at all.
    """
    expected = KIND_BY_PROBLEM.get(problem_type)
    if expected is None:
        raise ValueError(f"unknown problem type {problem_type!r}")
    if solution.kind != expected:
        raise KindMismatchError(
            f"{problem_type} expects a {expected} solution, got {solution.kind}"
        )
    checker = {
        TOUR: _verify_tour,
        COLORING: _verify_coloring,
        NODE_SET: _verify_cover,
        PATH: _verify_path,
        BOOLEAN: _verify_boolean,
    }[expected]
    violations = checker(graph, solution, source, target)
    return ValidityReport(valid=not violations, violations=tuple(violations))


def _walk_cost(graph: Graph, order: tuple[str, ...], close: bool) -> tuple[Weight | None, list[str]]:
    violations: list[str] = []
    cost: Weight = 0
    hops = list(zip(order, order[1:]))
    if close and len(order) > 1:
        hops.append((order[-1], order[0]))
    for a, b in hops:
        u, v = graph.index_of(a), graph.index_of(b)
        if not graph.has_edge(u, v):
            violations.append(f"no edge {a}-{b}")
        else:
            cost = cost + graph.weight(u, v)
    return (None if violations else cost), violations


def _verify_tour(graph, solution, source, target):
    violations: list[str] = []
    order = tuple(solution.payload)
    unknown = [name for name in order if name not in graph.node_names]
    if unknown:
        return [f"unknown node {name}" for name in unknown]
    if sorted(order) != list(graph.node_names):
        violations.append(
            f"tour visits {len(set(order))} of {graph.node_count} nodes"
            if len(set(order)) != graph.node_count
            else "tour is not a permutation of the nodes"
        )
        return violations
    cost, hop_violations = _walk_cost(graph, order, close=True)
    violations.extend(hop_violations)
    if cost is not None and cost != solution.objective:
        violations.append(
            f"stated cost {format_weight(solution.objective)} but edges sum to {format_weight(cost)}"
        )
    return violations


def _verify_coloring(graph, solution, source, target):
    violations: list[str] = []
    colors = dict(solution.payload)
    for name in graph.node_names:
        if name not in colors:
            violations.append(f"node {name} has no color")
    for name in colors:
        if name not in graph.node_names:
            violations.append(f"unknown node {name}")
    for name, c in colors.items():
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            violations.append(f"bad color {c!r} on node {name}")
    if violations:
        return violations
    for u, v, _ in graph.edges:
        nu, nv = graph.node_names[u], graph.node_names[v]
        if colors[nu] == colors[nv]:
            violations.append(f"nodes {nu} and {nv} share color {colors[nu]}")
    used = len(set(colors.values()))
    if used != solution.objective:
        violations.append(f"stated {format_weight(solution.objective)} colors but {used} are used")
    return violations


def _verify_cover(graph, solution, source, target):
    violations: list[str] = []
    nodes = tuple(solution.payload)
    if len(set(nodes)) != len(nodes):
        violations.append("cover lists a node twice")
    for name in nodes:
        if name not in graph.node_names:
            violations.append(f"unknown node {name}")
    if violations:
        return violations
    chosen = set(nodes)
    for u, v, _ in graph.edges:
        nu, nv = graph.node_names[u], graph.node_names[v]
        if nu not in chosen and nv not in chosen:
            violations.append(f"cover misses edge {nu}-{nv}")
    if len(nodes) != solution.objective:
        violations.append(
            f"stated size {format_weight(solution.objective)} but {len(nodes)} nodes listed"
        )
    return violations


def _verify_path(graph, solution, source, target):
    violations: list[str] = []
    path = tuple(solution.payload)
    if not path:
        return ["empty path"]
    unknown = [name for name in path if name not in graph.node_names]
    if unknown:
        return [f"unknown node {name}" for name in unknown]
    if source is not None and path[0] != source:
        violations.append(f"path starts at {path[0]}, question asks for {source}")
    if target is not None and path[-1] != target:
        violations.append(f"path ends at {path[-1]}, question asks for {target}")
    if len(set(path)) != len(path):
        violations.append("path repeats a node")
    cost, hop_violations = _walk_cost(graph, path, close=False)
    violations.extend(hop_violations)
    if cost is not None and cost != solution.objective:
        violations.append(
            f"stated cost {format_weight(solution.objective)} but edges sum to {format_weight(cost)}"
        )
    return violations


def _verify_boolean(graph, solution, source, target):
    violations: list[str] = []
    if not isinstance(solution.payload, bool):
        violations.append(f"answer must be true or false, got {solution.payload!r}")
        return violations
    if solution.objective != int(solution.payload):
        violations.append("objective does not mirror the boolean answer")
    return violations
