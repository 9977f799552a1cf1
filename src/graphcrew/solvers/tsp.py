"""Tour solvers for complete undirected graphs of at least 3 nodes, the
only graphs the tour rows of the route table admit.

Exact route: branch and bound over the Held-Karp 1-tree Lagrangian bound
(Held & Karp, 1971; branching after Volgenant & Jonker, 1982).  Its
incumbent starts as the nearest neighbor + 2-opt tour; during the root
ascent the same two heuristics also run on the penalized costs
``w[i][j] + pi[i] + pi[j]`` (Volgenant & Jonker, 1982), and their tour
replaces the incumbent when it is strictly cheaper.  A better incumbent
sharpens both the ascent's step and the prune test; the search itself
is unchanged, so its answer is still proven optimal.  Heuristic route:
the nearest neighbor tour polished by first-improvement 2-opt.  All
arithmetic stays exact (int or Fraction, scaled to int inside the
branch and bound); every tie is broken toward the lower node index, so
repeated runs return identical tours.
"""

from __future__ import annotations

import math

from ..graph import Graph, Weight
from .solution import canonical_tour

_FORCED = float("-inf")
_BANNED = float("inf")
# Weights are multiplied by this so that integer penalties can move in
# steps finer than one weight unit.
_PENALTY_SCALE = 16
# (steps, patience, penalized tours) of subgradient ascent at the root
# and below it
_ROOT_ASCENT = (100, 5, True)
_CHILD_ASCENT = (20, 3, False)
# Root ascent steps between two penalized-cost tours, counted from the
# first halving of the step size
_TOUR_PERIOD = 10


def _matrix(graph: Graph) -> list[list[Weight]]:
    n = graph.node_count
    m: list[list[Weight]] = [[0] * n for _ in range(n)]
    for u, v, w in graph.edges:
        m[u][v] = m[v][u] = w
    return m


def _cycle_cost(m: list[list], order: list[int]) -> Weight:
    return sum(m[a][b] for a, b in zip(order, order[1:] + order[:1]))


def _nearest_neighbor(m: list[list], start: int) -> list[int]:
    """Hop to the closest unvisited node; ties go to the lower index."""
    order = [start]
    rest = [v for v in range(len(m)) if v != start]
    while rest:
        nxt = min(rest, key=m[order[-1]].__getitem__)
        order.append(nxt)
        rest.remove(nxt)
    return order


def _two_opt(m: list[list], order: list[int]) -> list[int]:
    """First-improvement 2-opt on ``order`` in place, start node pinned.

    Scans (i, j) pairs in ascending order over positions 1..n-1, reverses
    the first segment that shortens the tour and restarts the scan.
    """
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            a, b = order[i - 1], order[i]
            row_a, row_b = m[a], m[b]
            kept = row_a[b]
            for j in range(i + 1, n):
                c, d = order[j], order[j + 1 - n]
                if row_a[c] + row_b[d] < kept + m[c][d]:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
                    break
            if improved:
                break
    return order


def _nearest_neighbor_two_opt(m: list[list]) -> list[int]:
    # 2-opt starts from the nearest neighbor tour as its Solution states it;
    # node names are sorted, so index order is name order
    return _two_opt(m, list(canonical_tour(_nearest_neighbor(m, 0))))


def tsp_nearest_neighbor_two_opt(graph: Graph) -> tuple[str, ...]:
    """Nearest neighbor tour from node 0 polished by 2-opt; the standard fast route."""
    order = _nearest_neighbor_two_opt(_matrix(graph))
    return canonical_tour(tuple(graph.node_names[i] for i in order))


def _integer_matrix(m: list[list[Weight]]) -> list[list[int]]:
    """Weights times the LCM of their denominators and ``_PENALTY_SCALE``.

    Every tour then costs a whole multiple of ``_PENALTY_SCALE``, and
    integer penalties have a finer grain than the weights themselves.
    """
    scale = _PENALTY_SCALE * math.lcm(*(w.denominator for row in m for w in row))
    return [[int(w * scale) for w in row] for row in m]


class _Incumbent:
    """The cheapest tour found so far and its cost; only a strictly
    cheaper tour replaces it, so ties keep the earlier one."""

    __slots__ = ("cost", "tour")

    def __init__(self, cost: int, tour: list[int]):
        self.cost = cost
        self.tour = tour

    def offer(self, cost: int, tour: list[int]) -> None:
        if cost < self.cost:
            self.cost, self.tour = cost, tour


def _penalized_tour(w: list[list[int]], pi: list[int]) -> list[int]:
    """Nearest neighbor from node 0 and 2-opt on ``w[i][j] + pi[i] + pi[j]``.

    Every tour's penalized cost is its cost plus ``2 * sum(pi)``, so the
    penalties only steer the greedy choices towards the 1-tree's edges.
    From node i the nearest neighbor compares ``w[i][j] + pi[j]`` alone.
    A 2-opt move swaps two edges for two on the same four nodes, so the
    penalties cancel in its gain and it runs on ``w`` itself.
    """
    steered = [[c + q for c, q in zip(row, pi)] for row in w]
    return _two_opt(w, _nearest_neighbor(steered, 0))


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
    w: list[list[int]],
    sub: _Subproblem,
    incumbent: _Incumbent,
    steps: int,
    patience: int,
    tours: bool,
) -> tuple[int, list[int], list[tuple[int, int]]] | None:
    """Subgradient ascent on ``sub.pi``; keeps the penalties of the best
    bound and returns that bound's 1-tree, or None when there is none.

    Stops early once the bound prunes the subproblem or the 1-tree is a
    tour.  The step is the Polyak step towards the incumbent's cost, in
    whole units.  With ``tours``, a penalized-cost tour is offered to the
    incumbent once the step size first halves and every
    ``_TOUR_PERIOD`` steps after that.
    """
    top = None
    lam = 2.0
    stall = 0
    due = None  # the step of the next penalized tour
    for step in range(steps):
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
                if tours and due is None:
                    due = step
        if step == due:
            tour = _penalized_tour(w, sub.pi)
            incumbent.offer(_cycle_cost(w, tour), tour)
            due += _TOUR_PERIOD
        best = incumbent.cost
        if bound > best - _PENALTY_SCALE:
            break
        norm = sum((d - 2) ** 2 for d in degree)
        step_size = max(1, int(lam * (best - bound) / norm))
        sub.pi = [p + step_size * (d - 2) for p, d in zip(sub.pi, degree)]
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

    Each subproblem runs subgradient ascent on its penalties; the root's
    ascent also offers penalized-cost tours to the incumbent.  A
    subproblem is pruned once its 1-tree bound shows that it holds no
    tour cheaper than the incumbent.  Weights are integers and tour costs
    whole multiples of ``_PENALTY_SCALE``, so that test is exact.  A
    1-tree that is itself a tour is the subproblem's optimum.  Otherwise
    the search branches on a node of degree above 2 (Volgenant & Jonker,
    1982).  With tree edges e1 and e2 at that node, the children are:
    e1 banned; e1 forced and e2 banned; both forced.
    """
    n = len(w)
    incumbent = _Incumbent(_cycle_cost(w, tour), tour)
    stack = [_Subproblem(w)]
    ascent = _ROOT_ASCENT
    while stack:
        sub = stack.pop()
        found = _ascend(w, sub, incumbent, *ascent)
        ascent = _CHILD_ASCENT
        if found is None:
            continue
        bound, degree, edges = found
        if bound > incumbent.cost - _PENALTY_SCALE:
            continue
        if max(degree) == 2:
            incumbent.offer(bound, _tour_from_edges(n, edges))
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
    return incumbent.tour


def tsp_exact_held_karp(graph: Graph) -> tuple[str, ...]:
    """Exact minimum tour by branch and bound over the Held-Karp bound.

    The search starts from the nearest neighbor + 2-opt tour and keeps a
    tour only when it is strictly cheaper, so ties resolve to the tour
    found first and repeated runs return identical tours.  The search
    has no node or time cap: the answer is always proven optimal.
    """
    m = _matrix(graph)
    tour = _branch_and_bound(_integer_matrix(m), _nearest_neighbor_two_opt(m))
    return canonical_tour(tuple(graph.node_names[i] for i in tour))
