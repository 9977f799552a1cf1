"""Graph coloring: DSATUR heuristic and an exact branch-and-bound.

The exact route squeezes the answer between a greedy clique lower bound
and the DSATUR upper bound, then tries each candidate color count with
backtracking.  New colors are only ever opened in order, which removes
color-permutation symmetry from the search.  The search runs on one
``int`` neighbor bitmask per node and one node mask per color class, so
testing a color for a node costs one ``&``; DSATUR keeps each node's
neighbor colors as a color mask.
"""

from __future__ import annotations

from ..graph import Graph, neighbor_masks
from .solution import canonical_coloring


def _dsatur_order_colors(graph: Graph) -> dict[str, int]:
    adj = graph.adjacency
    # Highest saturation, then highest degree, then lowest index: the
    # score is saturation in units above any degree, and max() keeps the
    # first of equal scores.
    unit = graph.node_count
    score = [len(ns) for ns in adj]
    seen = [0] * graph.node_count  # per node, the mask of its neighbors' colors
    uncolored = list(range(graph.node_count))
    colors: dict[str, int] = {}
    while uncolored:
        v = max(uncolored, key=score.__getitem__)
        uncolored.remove(v)
        free = ~seen[v] & (seen[v] + 1)
        colors[graph.node_names[v]] = free.bit_length() - 1
        for u in adj[v]:
            if not seen[u] & free:
                seen[u] |= free
                score[u] += unit
    return colors


def coloring_dsatur(graph: Graph) -> dict[str, int]:
    """Saturation-degree greedy coloring; valid but not always minimal."""
    return canonical_coloring(_dsatur_order_colors(graph))


def _greedy_clique_size(neighbors: list[int], order: list[int]) -> int:
    clique = 0
    for v in order:
        if neighbors[v] & clique == clique:
            clique |= 1 << v
    return clique.bit_count()


def _try_k_coloring(neighbors: list[int], k: int, order: list[int]) -> dict[int, int] | None:
    classes = [0] * k  # per color, the mask of nodes holding it
    colors: dict[int, int] = {}
    end = len(order)

    def branch(pos: int, opened: int) -> bool:
        if pos == end:
            return True
        v = order[pos]
        bit, around = 1 << v, neighbors[v]
        # A fresh color only as the single next id: symmetry break.
        for c in range(opened + 1 if opened < k else k):
            if classes[c] & around:
                continue
            classes[c] |= bit
            if branch(pos + 1, c + 1 if c == opened else opened):
                colors[v] = c
                return True
            classes[c] ^= bit
        return False

    return colors if branch(0, 0) else None


def coloring_exact(graph: Graph) -> dict[str, int]:
    """Minimum coloring by iterative deepening between clique and DSATUR bounds."""
    n = graph.node_count
    witness = _dsatur_order_colors(graph)
    upper = len(set(witness.values()))
    neighbors = neighbor_masks(graph)
    order = sorted(range(n), key=lambda v: (-len(graph.adjacency[v]), v))
    lower = max(1, _greedy_clique_size(neighbors, order))
    for k in range(lower, upper):
        found = _try_k_coloring(neighbors, k, order)
        if found is not None:
            witness = {graph.node_names[v]: c for v, c in found.items()}
            break
    return canonical_coloring(witness)
