"""Graph coloring: DSATUR heuristic and an exact branch-and-bound.

The exact route squeezes the answer between a greedy clique lower bound
and the DSATUR upper bound, then tries each candidate color count with
backtracking.  New colors are only ever opened in order, which removes
color-permutation symmetry from the search.
"""

from __future__ import annotations

from ..graph import Graph, GraphError
from ..problems import COLORING
from .solution import Solution, TooLargeError, canonical_coloring

EXACT_COLORING_LIMIT = 25


def _require_undirected(graph: Graph) -> None:
    if graph.directed:
        raise GraphError("coloring needs an undirected graph")


def _dsatur_order_colors(graph: Graph) -> dict[str, int]:
    n = graph.node_count
    adj = graph.adjacency
    degree = [len(adj[v]) for v in range(n)]
    colors: dict[int, int] = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    while len(colors) < n:
        # Highest saturation, then highest degree, then lowest index.
        v = min(
            (u for u in range(n) if u not in colors),
            key=lambda u: (-len(neighbor_colors[u]), -degree[u], u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in adj[v]:
            neighbor_colors[u].add(c)
    return {graph.node_names[v]: c for v, c in colors.items()}


def coloring_dsatur(graph: Graph) -> Solution:
    """Saturation-degree greedy coloring; valid but not always minimal."""
    _require_undirected(graph)
    colors = canonical_coloring(_dsatur_order_colors(graph))
    used = len(set(colors.values())) if colors else 0
    return Solution(COLORING, colors, used, "dsatur", exact=False)


def _greedy_clique_size(graph: Graph) -> int:
    adj = [set(ns) for ns in graph.adjacency]
    order = sorted(range(graph.node_count), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    return len(clique)


def _try_k_coloring(graph: Graph, k: int, order: list[int]) -> dict[int, int] | None:
    adj = graph.adjacency
    colors: dict[int, int] = {}

    def branch(pos: int, opened: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        forbidden = {colors[u] for u in adj[v] if u in colors}
        # A fresh color only as the single next id: symmetry break.
        top = min(opened, k - 1)
        for c in range(top + 1):
            if c in forbidden:
                continue
            colors[v] = c
            if branch(pos + 1, max(opened, c + 1)):
                return True
            del colors[v]
        return False

    return dict(colors) if branch(0, 0) else None


def coloring_exact(graph: Graph, max_nodes: int = EXACT_COLORING_LIMIT) -> Solution:
    """Minimum coloring by iterative deepening between clique and DSATUR bounds."""
    _require_undirected(graph)
    n = graph.node_count
    if n > max_nodes:
        raise TooLargeError(n, max_nodes)
    if n == 0:
        return Solution(COLORING, {}, 0, "exact_coloring", exact=True)
    witness = _dsatur_order_colors(graph)
    upper = len(set(witness.values()))
    lower = max(1, _greedy_clique_size(graph))
    if lower < upper:
        order = sorted(
            range(n), key=lambda v: (-len(graph.adjacency[v]), v)
        )
        for k in range(lower, upper):
            found = _try_k_coloring(graph, k, order)
            if found is not None:
                witness = {graph.node_names[v]: c for v, c in found.items()}
                break
    colors = canonical_coloring(witness)
    used = len(set(colors.values()))
    return Solution(COLORING, colors, used, "exact_coloring", exact=True)
