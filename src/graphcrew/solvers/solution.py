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

:func:`measure` is the one place an answer is measured: a per-kind
check reads the payload's structure and computes its own objective.
:func:`~graphcrew.execute.run_algorithm` stamps every solver payload
with that objective, and :func:`verify_solution` compares it with the
objective a stored or model answer states.  A solution of the wrong
kind for its family is reported invalid with that one violation, not
raised.  Scoring and the dataset reader read the verifier's report.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

from ..graph import Graph, Weight, coerce_weight, format_weight
from ..problems import BOOLEAN, COLORING, KIND_BY_PROBLEM, NODE_SET, PATH, TOUR


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


# each answer kind's payload key in a solution record
_PAYLOAD_KEYS = {TOUR: "order", COLORING: "colors", NODE_SET: "nodes", PATH: "path",
                 BOOLEAN: "answer"}


def solution_to_dict(solution: Solution) -> dict[str, Any]:
    kind, payload = solution.kind, solution.payload
    if kind not in _PAYLOAD_KEYS:
        raise ValueError(f"unknown solution kind {kind!r}")
    return {
        "kind": kind,
        "algorithm": solution.algorithm_id,
        "exact": solution.exact,
        "objective": format_weight(solution.objective),
        _PAYLOAD_KEYS[kind]: (dict(payload) if kind == COLORING
                             else bool(payload) if kind == BOOLEAN else list(payload)),
    }


def solution_from_dict(data: dict[str, Any], names: dict[str, str] | None = None) -> Solution:
    """Read a solution record, refusing with ValueError any value of the wrong JSON type.

    ``names`` maps each node name of the solution's graph to the graph's
    own string; a payload name found there is that string, so the
    solution holds no second copy of a name its graph holds.
    """
    kind = data["kind"]
    if kind not in _PAYLOAD_KEYS:
        raise ValueError(f"unknown solution kind {kind!r}")
    payload = data[_PAYLOAD_KEYS[kind]]
    if kind == COLORING:
        payload = dict(sorted(payload.items()))
        if not all(type(c) is int for c in payload.values()):
            raise ValueError("colors must be integers")
    elif kind == BOOLEAN:
        if not isinstance(payload, bool):
            raise ValueError("'answer' must be true or false")
    else:
        payload = tuple(payload)
    if kind != BOOLEAN and not all(isinstance(name, str) for name in payload):
        raise ValueError("node names must be strings")
    if kind != BOOLEAN and names is not None:
        payload = ({names.get(name, name): c for name, c in payload.items()} if kind == COLORING
                   else tuple([names.get(name, name) for name in payload]))
    objective = coerce_weight(data["objective"])
    if kind == BOOLEAN and objective != int(payload):
        raise ValueError("a boolean answer's objective must be 1 for true, 0 for false")
    if not isinstance(data["exact"], bool):
        raise ValueError("'exact' must be true or false")
    return Solution(kind, payload, objective, data["algorithm"], data["exact"])


def verify_solution(
    problem_type: str,
    graph: Graph,
    solution: Solution,
    source: str | None = None,
    target: str | None = None,
) -> ValidityReport:
    """Check a solution against the graph's structure, not against truth.

    Validity is purely structural: a suboptimal but well-formed answer is
    valid.  The payload's own objective, as :func:`measure` finds it, is
    what the report carries, or None when the structure is broken, and a
    stated objective that differs from it is the one violation left.
    A solution whose kind does not belong to the problem type is invalid
    with that one violation.  Raises ValueError for an unknown problem type.
    """
    expected = KIND_BY_PROBLEM.get(problem_type)
    if expected is None:
        raise ValueError(f"unknown problem type {problem_type!r}")
    if solution.kind != expected:
        message = f"{problem_type} expects a {expected} solution, got {solution.kind}"
        return ValidityReport(valid=False, violations=(message,), objective=None)
    violations, objective = measure(problem_type, graph, solution.payload, source, target)
    if violations:
        return ValidityReport(valid=False, violations=violations, objective=None)
    if objective != solution.objective:
        message = _CHECKS[expected][1].format(
            stated=format_weight(solution.objective), actual=format_weight(objective)
        )
        return ValidityReport(valid=False, violations=(message,), objective=objective)
    return ValidityReport(valid=True, violations=(), objective=objective)


def measure(problem_type: str, graph: Graph, payload: Any, source: str | None = None,
            target: str | None = None) -> tuple[tuple[str, ...], Weight | None]:
    """The structural violations of a payload of the family's kind on
    ``graph``, and its own objective, or None when it has violations."""
    check = _CHECKS[KIND_BY_PROBLEM[problem_type]][0]
    violations, objective = check(graph, payload, source, target)
    return tuple(violations), None if violations else objective


# Each check reads the payload's structure and returns its violations and
# its own objective; the objective means nothing when there are violations.


def _walk_cost(graph: Graph, order: tuple[str, ...], close: bool) -> tuple[list[str], Weight]:
    """The hops of ``order``, whose names are all nodes of ``graph``, that
    have no edge, and the summed weight of the rest."""
    # node names and edge triples are both sorted, so each is found by bisection
    names, edges = graph.node_names, graph.edges
    violations: list[str] = []
    cost: Weight = 0
    hops = list(zip(order, order[1:]))
    if close and len(order) > 1:
        hops.append((order[-1], order[0]))
    for a, b in hops:
        u, v = bisect_left(names, a), bisect_left(names, b)
        if u > v:
            u, v = v, u
        i = bisect_left(edges, (u, v))  # (u, v) sorts just before (u, v, w)
        if i < len(edges) and edges[i][0] == u and edges[i][1] == v:
            cost = cost + edges[i][2]
        else:
            violations.append(f"no edge {a}-{b}")
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
