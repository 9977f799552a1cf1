"""Cycle existence: union-find over the edges of an undirected graph."""

from __future__ import annotations

from ..graph import Graph


def detect_cycle(graph: Graph) -> bool:
    """Does the graph contain any cycle?  Union-find over the canonical
    edge order: an edge whose endpoints are already joined closes one."""
    parent = list(range(graph.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False
