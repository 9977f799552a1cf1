"""Tour solvers for complete undirected graphs.

Exact route: branch and bound over the Held-Karp 1-tree Lagrangian bound
(Held & Karp, 1971; branching after Volgenant & Jonker, 1982), up to a
configurable node limit.  Heuristic routes: nearest neighbor and
first-improvement 2-opt, used alone or chained.  All arithmetic stays
exact (int or Fraction, scaled to int inside the branch and bound); every
tie is broken toward the lower node index, so repeated runs return
identical tours.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..graph import Graph, GraphError, Weight, graph_stats
from ..problems import TOUR
from .solution import (
    GraphNotCompleteError,
    Solution,
    TooLargeError,
    canonical_tour,
)

HELD_KARP_LIMIT = 25

_FORCED = float("-inf")
_BANNED = float("inf")
# Weights are multiplied by this so that integer penalties can move in
# steps finer than one weight unit.
_PENALTY_SCALE = 16
# (steps, patience) of subgradient ascent at the root and below it
_ROOT_ASCENT = (100, 5)
_CHILD_ASCENT = (20, 3)


def _require_tour_input(graph: Graph) -> None:
    if graph.directed:
        raise GraphError("tour solvers need an undirected graph")
    if graph.node_count < 3:
        raise GraphError(f"a tour needs at least 3 nodes, got {graph.node_count}")
    if not graph_stats(graph).is_complete:
        raise GraphNotCompleteError(
            f"graph with {graph.node_count} nodes and {graph.edge_count} edges is not complete"
        )


def _matrix(graph: Graph) -> list[list[Weight]]:
    n = graph.node_count
    wm = graph.weight_map
    return [[0 if i == j else wm[(i, j)] for j in range(n)] for i in range(n)]


def tour_cost(graph: Graph, order: tuple[str, ...] | list[str]) -> Weight:
    """Exact cost of the closed tour visiting ``order`` and returning home."""
    idx = [graph.index_of(name) for name in order]
    cost: Weight = 0
    for a, b in zip(idx, idx[1:] + idx[:1]):
        cost = cost + graph.weight(a, b)
    return cost


def _as_start_index(graph: Graph, start: str | int) -> int:
    if isinstance(start, str):
        return graph.index_of(start)
    if 0 <= start < graph.node_count:
        return int(start)
    raise GraphError(f"start index {start} out of range")


def tsp_nearest_neighbor(graph: Graph, start: str | int = 0) -> Solution:
    """Greedy construction: always hop to the closest unvisited node.

    Distance ties go to the lower node index.
    """
    _require_tour_input(graph)
    n = graph.node_count
    s = _as_start_index(graph, start)
    wm = graph.weight_map
    order = [s]
    visited = {s}
    while len(order) < n:
        u = order[-1]
        nxt = min(
            (v for v in range(n) if v not in visited),
            key=lambda v: (wm[(u, v)], v),
        )
        order.append(nxt)
        visited.add(nxt)
    names = canonical_tour(tuple(graph.node_names[i] for i in order))
    return Solution(TOUR, names, tour_cost(graph, names), "nearest_neighbor", exact=False)


def tsp_two_opt(graph: Graph, tour: tuple[str, ...] | list[str]) -> Solution:
    """First-improvement 2-opt: reverse the first segment that shortens
    the tour, restart the scan, stop at a local optimum.

    Scans (i, j) pairs in ascending order over positions 1..n-1, keeping
    the start node pinned, so the local optimum reached is a function of
    the input tour alone.
    """
    _require_tour_input(graph)
    order = [graph.index_of(name) for name in tour]
    if sorted(order) != list(range(graph.node_count)):
        raise GraphError("2-opt needs a tour visiting every node exactly once")
    wm = graph.weight_map
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                a, b = order[i - 1], order[i]
                c, d = order[j], order[(j + 1) % n]
                if a == c or b == d:
                    continue
                delta = (wm[(a, c)] + wm[(b, d)]) - (wm[(a, b)] + wm[(c, d)])
                if delta < 0:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
                    break
            if improved:
                break
    names = canonical_tour(tuple(graph.node_names[i] for i in order))
    return Solution(TOUR, names, tour_cost(graph, names), "two_opt", exact=False)


def tsp_nearest_neighbor_two_opt(graph: Graph, start: str | int = 0) -> Solution:
    """Nearest neighbor seed polished by 2-opt; the standard fast route."""
    seed = tsp_nearest_neighbor(graph, start)
    refined = tsp_two_opt(graph, seed.payload)
    return Solution(TOUR, refined.payload, refined.objective, "nearest_neighbor_2opt", exact=False)


def _integer_matrix(graph: Graph) -> list[list[int]]:
    """Weights times the LCM of their denominators and ``_PENALTY_SCALE``.

    Every tour then costs a whole multiple of ``_PENALTY_SCALE``, and
    integer penalties have a finer grain than the weights themselves.
    """
    scale = _PENALTY_SCALE * math.lcm(
        *(Fraction(w).denominator for _, _, w in graph.edges)
    )
    return [[int(w * scale) for w in row] for row in _matrix(graph)]


class _Subproblem:
    """Branching constraints: forced edges, banned edges, penalties.

    ``cost[i][j]`` is the weight of a free edge, ``_FORCED`` for a forced
    one and ``_BANNED`` for a banned one.  Forced edges always form
    node-disjoint paths; ``end[i]`` is the far end of the path that ends
    at ``i``.
    """

    __slots__ = ("cost", "forced_degree", "allowed_degree", "end", "forced", "pi")

    def __init__(self, w: list[list[int]]):
        n = len(w)
        self.cost: list[list[float | int]] = [row[:] for row in w]
        for i in range(n):
            self.cost[i][i] = _BANNED
        self.forced_degree = [0] * n
        self.allowed_degree = [n - 1] * n  # edges that are not banned
        self.end = list(range(n))
        self.forced = 0
        self.pi = [0] * n

    def copy(self) -> _Subproblem:
        twin = object.__new__(_Subproblem)
        twin.cost = [row[:] for row in self.cost]
        twin.forced_degree = self.forced_degree[:]
        twin.allowed_degree = self.allowed_degree[:]
        twin.end = self.end[:]
        twin.forced = self.forced
        twin.pi = self.pi[:]
        return twin

    def ban(self, i: int, j: int) -> bool:
        """Ban edge (i, j); False when that leaves no tour."""
        c = self.cost[i][j]
        if c == _BANNED:
            return True
        if c == _FORCED:
            return False
        self.cost[i][j] = self.cost[j][i] = _BANNED
        self.allowed_degree[i] -= 1
        self.allowed_degree[j] -= 1
        return self.allowed_degree[i] >= 2 and self.allowed_degree[j] >= 2

    def force(self, i: int, j: int) -> bool:
        """Force edge (i, j) into the tour; False when that leaves no tour."""
        c = self.cost[i][j]
        if c == _FORCED:
            return True
        if c == _BANNED or self.forced_degree[i] == 2 or self.forced_degree[j] == 2:
            return False
        n = len(self.cost)
        a, b = self.end[i], self.end[j]
        if a == j and self.forced != n - 1:
            return False  # would close a cycle short of a full tour
        self.cost[i][j] = self.cost[j][i] = _FORCED
        self.forced_degree[i] += 1
        self.forced_degree[j] += 1
        self.forced += 1
        self.end[a], self.end[b] = b, a
        for v in (i, j):
            if self.forced_degree[v] == 2:
                row = self.cost[v]
                for u in range(n):
                    if row[u] != _FORCED and not self.ban(v, u):
                        return False
        if self.forced >= n - 1 or (a, b) == (i, j):
            return True  # a full tour, or a one-edge path
        return self.ban(a, b)


def _one_tree(
    w: list[list[int]], sub: _Subproblem
) -> tuple[int, list[int], list[tuple[int, int]]] | None:
    """Cheapest 1-tree under the subproblem's constraints and penalties.

    A spanning tree on nodes 1..n-1 (Prim's algorithm, forced edges
    first) plus the two cheapest edges at node 0.  Returns the Lagrangian
    bound, the node degrees and the edges, or None when no 1-tree exists.
    """
    n = len(w)
    cost, pi = sub.cost, sub.pi
    key: list[float | int] = [_BANNED] * n
    parent = [0] * n
    rest = list(range(2, n))
    degree = [0] * n
    edges: list[tuple[int, int]] = []
    total = 0
    u = 1
    while rest:
        row, pu = cost[u], pi[u]
        best: float | int = _BANNED
        nearest = -1
        for v in rest:
            c = row[v] + pu
            k = key[v]
            if c < k:
                key[v] = k = c
                parent[v] = u
            c = k + pi[v]
            if c < best:
                best, nearest = c, v
        if nearest < 0:
            return None
        u = nearest
        rest.remove(u)
        p = parent[u]
        edges.append((p, u))
        total += w[p][u]
        degree[p] += 1
        degree[u] += 1
    row = cost[0]
    first = second = -1
    for v in range(1, n):
        c = row[v] + pi[v]
        if c == _BANNED:
            continue
        if first < 0 or c < row[first] + pi[first]:
            first, second = v, first
        elif second < 0 or c < row[second] + pi[second]:
            second = v
    if second < 0:
        return None
    for v in (first, second):
        edges.append((0, v))
        total += w[0][v]
        degree[v] += 1
    degree[0] = 2
    bound = total + sum((d - 2) * p for d, p in zip(degree, pi))
    return bound, degree, edges


def _ascend(
    w: list[list[int]], sub: _Subproblem, best: int, steps: int, patience: int
) -> tuple[int, list[int], list[tuple[int, int]]] | None:
    """Subgradient ascent on ``sub.pi``; keeps the penalties of the best
    bound and returns that bound's 1-tree, or None when there is none.

    Stops early once the bound prunes the subproblem or the 1-tree is a
    tour.  The step is the Polyak step towards ``best``, in whole units.
    """
    top = None
    lam = 2.0
    stall = 0
    for _ in range(steps):
        found = _one_tree(w, sub)
        if found is None:
            return None
        bound, degree, _edges = found
        if max(degree) == 2:
            return found
        if top is None or bound > top[0]:
            top, top_pi, stall = found, sub.pi[:], 0
        else:
            stall += 1
            if stall >= patience:
                lam, stall = lam / 2, 0
        if bound > best - _PENALTY_SCALE:
            break
        norm = sum((d - 2) ** 2 for d in degree)
        step = max(1, int(lam * (best - bound) / norm))
        sub.pi = [p + step * (d - 2) for p, d in zip(sub.pi, degree)]
    sub.pi = top_pi
    return top


def _tour_from_edges(n: int, edges: list[tuple[int, int]]) -> list[int]:
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    order = [0, min(neighbors[0])]
    while len(order) < n:
        a, b = neighbors[order[-1]]
        order.append(b if a == order[-2] else a)
    return order


def _branch_and_bound(w: list[list[int]], tour: list[int]) -> list[int]:
    """Cheapest tour, searched depth first from a known ``tour``.

    Each subproblem runs subgradient ascent on its penalties.  It is
    pruned once its 1-tree bound shows that it holds no tour cheaper than
    the best one found so far.  Weights are integers and tour costs
    whole multiples of ``_PENALTY_SCALE``, so that test is exact.  A
    1-tree that is itself a tour is the subproblem's optimum.  Otherwise
    the search branches on a node of degree above 2 (Volgenant & Jonker,
    1982).  With tree edges e1 and e2 at that node, the children are:
    e1 banned; e1 forced and e2 banned; both forced.
    """
    n = len(w)
    best = sum(w[a][b] for a, b in zip(tour, tour[1:] + tour[:1]))
    stack = [_Subproblem(w)]
    steps, patience = _ROOT_ASCENT
    while stack:
        sub = stack.pop()
        found = _ascend(w, sub, best, steps, patience)
        steps, patience = _CHILD_ASCENT
        if found is None:
            continue
        bound, degree, edges = found
        if bound > best - _PENALTY_SCALE:
            continue
        if max(degree) == 2:
            best, tour = bound, _tour_from_edges(n, edges)
            continue
        v = max(range(n), key=lambda u: (degree[u], -u))
        free = [a + b - v for a, b in edges if v in (a, b)]
        free = [u for u in free if sub.cost[v][u] != _FORCED]
        e1, e2 = sorted(free, key=lambda u: (-w[v][u], u))[:2]
        children = []
        child = sub.copy()
        if child.ban(v, e1):
            children.append(child)
        child = sub.copy()
        if child.force(v, e1) and child.ban(v, e2):
            children.append(child)
        child = sub.copy()
        if child.force(v, e1) and child.force(v, e2):
            children.append(child)
        stack.extend(reversed(children))
    return tour


def tsp_exact_held_karp(graph: Graph, max_nodes: int = HELD_KARP_LIMIT) -> Solution:
    """Exact minimum tour by branch and bound over the Held-Karp bound.

    The search starts from the nearest neighbor + 2-opt tour and keeps a
    tour only when it is strictly cheaper, so ties resolve to that seed
    and repeated runs return identical tours.  The search has no node or
    time cap: the answer is always proven optimal.
    """
    _require_tour_input(graph)
    n = graph.node_count
    if n > max_nodes:
        raise TooLargeError(n, max_nodes)
    seed = tsp_nearest_neighbor_two_opt(graph)
    tour = _branch_and_bound(
        _integer_matrix(graph), [graph.index_of(name) for name in seed.payload]
    )
    order = canonical_tour(tuple(graph.node_names[i] for i in tour))
    return Solution(TOUR, order, tour_cost(graph, order), "held_karp", exact=True)
