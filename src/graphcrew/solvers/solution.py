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

:func:`verify_solution` is the one place an answer is measured: a
per-kind check reads the payload's structure and computes its own
objective, and the verifier compares that with the stated objective.
Scoring and the pipeline both read the verifier's report.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    objective: Weight | None  # the payload's own; None when its structure is broken


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
    valid.  The payload's own objective is measured here, and only here;
    the report carries it, or None when the structure is broken, and a
    stated objective that differs from it is the one violation left.
    Raises :class:`KindMismatchError` when the solution kind does not
    belong to the problem type at all.
    """
    expected = KIND_BY_PROBLEM.get(problem_type)
    if expected is None:
        raise ValueError(f"unknown problem type {problem_type!r}")
    if solution.kind != expected:
        raise KindMismatchError(
            f"{problem_type} expects a {expected} solution, got {solution.kind}"
        )
    check, misstated = _CHECKS[expected]
    violations, objective = check(graph, solution.payload, source, target)
    if violations:
        return ValidityReport(valid=False, violations=tuple(violations), objective=None)
    if objective != solution.objective:
        message = misstated.format(
            stated=format_weight(solution.objective), actual=format_weight(objective)
        )
        return ValidityReport(valid=False, violations=(message,), objective=objective)
    return ValidityReport(valid=True, violations=(), objective=objective)


# Each check reads the payload's structure and returns its violations and
# its own objective; the objective means nothing when there are violations.


def _walk_cost(graph: Graph, order: tuple[str, ...], close: bool) -> tuple[list[str], Weight]:
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
    return violations, cost


def _check_tour(graph, order, source, target):
    order = tuple(order)
    unknown = [name for name in order if name not in graph.node_names]
    if unknown:
        return [f"unknown node {name}" for name in unknown], None
    if sorted(order) != list(graph.node_names):
        return [
            f"tour visits {len(set(order))} of {graph.node_count} nodes"
            if len(set(order)) != graph.node_count
            else "tour is not a permutation of the nodes"
        ], None
    return _walk_cost(graph, order, close=True)


def _check_coloring(graph, colors, source, target):
    violations: list[str] = []
    colors = dict(colors)
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
        return violations, None
    for u, v, _ in graph.edges:
        nu, nv = graph.node_names[u], graph.node_names[v]
        if colors[nu] == colors[nv]:
            violations.append(f"nodes {nu} and {nv} share color {colors[nu]}")
    return violations, len(set(colors.values()))


def _check_cover(graph, nodes, source, target):
    violations: list[str] = []
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        violations.append("cover lists a node twice")
    for name in nodes:
        if name not in graph.node_names:
            violations.append(f"unknown node {name}")
    if violations:
        return violations, None
    chosen = set(nodes)
    for u, v, _ in graph.edges:
        nu, nv = graph.node_names[u], graph.node_names[v]
        if nu not in chosen and nv not in chosen:
            violations.append(f"cover misses edge {nu}-{nv}")
    return violations, len(nodes)


def _check_path(graph, path, source, target):
    violations: list[str] = []
    path = tuple(path)
    if not path:
        return ["empty path"], None
    unknown = [name for name in path if name not in graph.node_names]
    if unknown:
        return [f"unknown node {name}" for name in unknown], None
    if source is not None and path[0] != source:
        violations.append(f"path starts at {path[0]}, question asks for {source}")
    if target is not None and path[-1] != target:
        violations.append(f"path ends at {path[-1]}, question asks for {target}")
    if len(set(path)) != len(path):
        violations.append("path repeats a node")
    hop_violations, cost = _walk_cost(graph, path, close=False)
    return violations + hop_violations, cost


def _check_boolean(graph, answer, source, target):
    if not isinstance(answer, bool):
        return [f"answer must be true or false, got {answer!r}"], None
    return [], int(answer)


# per kind: the structural check, and the violation a misstated objective earns
_CHECKS = {
    TOUR: (_check_tour, "stated cost {stated} but edges sum to {actual}"),
    COLORING: (_check_coloring, "stated {stated} colors but {actual} are used"),
    NODE_SET: (_check_cover, "stated size {stated} but {actual} nodes listed"),
    PATH: (_check_path, "stated cost {stated} but edges sum to {actual}"),
    BOOLEAN: (_check_boolean, "objective does not mirror the boolean answer"),
}
