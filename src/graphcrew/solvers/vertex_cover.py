"""Minimum vertex cover: branch and bound, plus the matching heuristic.

The exact search applies degree-0/degree-1 reductions at every node of
the search tree, prunes with a maximal-matching lower bound, and
branches on the highest-degree vertex (take it, or take its whole
neighborhood).  It runs on one ``int`` neighbor bitmask per node: the
search state is the mask of nodes still in play and the mask of nodes
taken, so no node of the search copies the graph.  The heuristic takes
both endpoints of a greedily built maximal matching, a classic factor-2
answer.
"""

from __future__ import annotations

from ..graph import Graph, neighbor_masks


def vertex_cover_approx(graph: Graph) -> tuple[str, ...]:
    """Endpoints of a maximal matching; at most twice the optimum."""
    matched: set[int] = set()
    for u, v, _ in graph.edges:
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
    return tuple(sorted(graph.node_names[v] for v in matched))


def vertex_cover_exact(graph: Graph) -> tuple[str, ...]:
    """Minimum cover by branch and bound.

    Branch order is fixed (highest degree, then lowest index), updates
    require strict improvement, and reductions fire in index order, so
    the cover returned is the same every run.
    """
    n = graph.node_count
    neighbors = neighbor_masks(graph)
    best = 0
    for name in vertex_cover_approx(graph):
        best |= 1 << graph.index_of(name)
    best_size = best.bit_count()

    def search(alive: int, chosen: int) -> None:
        nonlocal best, best_size
        # Reductions: drop isolated nodes; the lowest-index degree-1
        # node forces its neighbor into the cover.  The pass that finds
        # no leaf also picks the branch node: highest degree, lowest
        # index first on ties.
        while alive:
            leaf_neighbor, v, top = 0, -1, 0
            for u in range((alive & -alive).bit_length() - 1, alive.bit_length()):
                if not alive >> u & 1:
                    continue
                around = neighbors[u] & alive
                if not around:
                    alive ^= 1 << u
                elif around & (around - 1):
                    degree = around.bit_count()
                    if degree > top:
                        v, top = u, degree
                else:
                    leaf_neighbor = around
                    break
            if not leaf_neighbor:
                break
            chosen |= leaf_neighbor
            alive &= ~leaf_neighbor
        size = chosen.bit_count()
        if not alive:
            if size < best_size:
                best, best_size = chosen, size
            return
        # Greedy maximal matching, ascending: a lower bound on the rest.
        free = alive
        for u in range((alive & -alive).bit_length() - 1, alive.bit_length()):
            if free >> u & 1:
                partners = neighbors[u] & free
                if partners:
                    free ^= (1 << u) | (partners & -partners)
                    size += 1
                    if size >= best_size:
                        return
        around = neighbors[v] & alive
        search(alive ^ (1 << v), chosen | (1 << v))
        search(alive & ~around, chosen | around)

    search((1 << n) - 1, 0)
    return tuple(name for v, name in enumerate(graph.node_names) if best >> v & 1)
