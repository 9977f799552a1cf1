"""Dijkstra with a lexicographic tie-break on equal-cost paths.

Heap entries carry the whole path as an index tuple, so among paths of
equal cost the tuple comparison settles which one pops first.  Node
names are stored sorted, so index order and name order agree.
"""

from __future__ import annotations

import heapq

from ..graph import Graph, GraphError, Weight


class NoPathError(GraphError):
    def __init__(self, source: str, target: str):
        super().__init__(f"no path from {source} to {target}")
        self.source = source
        self.target = target


def shortest_path_dijkstra(graph: Graph, source: str, target: str) -> tuple[str, ...]:
    """Cheapest path from source to target; equal costs break toward the
    lexicographically smaller node sequence."""
    s = graph.index_of(source)
    t = graph.index_of(target)
    if s == t:
        return (source,)
    neighbors: list[list[tuple[int, Weight]]] = [[] for _ in graph.node_names]
    for u, v, w in graph.edges:
        neighbors[u].append((v, w))
        neighbors[v].append((u, w))
    heap: list[tuple] = [(0, (s,))]
    settled: set[int] = set()
    while heap:
        dist, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == t:
            return tuple(graph.node_names[i] for i in path)
        for v, w in neighbors[u]:
            if v not in settled:
                heapq.heappush(heap, (dist + w, path + (v,)))
    raise NoPathError(source, target)
