"""Independent reference implementations used only by tests.

Deliberately written with different algorithms than the package solvers:
shortest paths via Bellman-Ford instead of Dijkstra, chromatic number by
prefix-pruned color enumeration, vertex cover by subset enumeration,
tours by direct permutation scan or the Held-Karp subset dynamic program
instead of branch and bound, cycles by edge/component counting and
Kahn's algorithm.  Slow and obviously correct beats fast here.
"""

from fractions import Fraction
from itertools import combinations, permutations

INF = float("inf")


def bellman_ford_cost(graph, src, dst):
    """Exact shortest-path cost from src to dst (names), or None."""
    n = graph.node_count
    s, t = graph.index_of(src), graph.index_of(dst)
    dist = [INF] * n
    dist[s] = 0
    arcs = []
    for u, v, w in graph.edges:
        arcs.append((u, v, w))
        if not graph.directed:
            arcs.append((v, u, w))
    for _ in range(n - 1):
        changed = False
        for u, v, w in arcs:
            if dist[u] is not INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return None if dist[t] is INF else dist[t]


def best_paths_by_enumeration(graph, src, dst):
    """All lex-sorted optimal simple paths (tiny graphs only)."""
    s, t = graph.index_of(src), graph.index_of(dst)
    adj = graph.adjacency
    wm = graph.weight_map
    found = []

    def walk(path, cost):
        u = path[-1]
        if u == t:
            found.append((cost, tuple(graph.node_names[i] for i in path)))
            return
        for v in adj[u]:
            if v not in path and (u, v) in wm:
                walk(path + [v], cost + wm[(u, v)])

    walk([s], 0)
    if not found:
        return []
    best = min(cost for cost, _ in found)
    return sorted(path for cost, path in found if cost == best)


def brute_tour_cost(graph):
    """Optimal tour cost by scanning all permutations (n <= 9 or so)."""
    n = graph.node_count
    wm = graph.weight_map
    best = None
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        cost = wm[(order[-1], 0)]
        for a, b in zip(order, order[1:]):
            cost += wm[(a, b)]
        if best is None or cost < best:
            best = cost
    return best


def held_karp_tour_cost(graph):
    """Optimal tour cost by the Held-Karp subset DP, O(n^2 * 2^n) (n <= 16).

    ``dp[mask][i]`` is the cheapest path that starts at node 0, visits
    exactly the nodes in ``mask`` and ends at ``i``.
    """
    n = graph.node_count
    wm = graph.weight_map
    full = 1 << n
    dp = [[None] * n for _ in range(full)]
    dp[1][0] = 0
    for mask in range(1, full, 2):
        for i in range(n):
            cost = dp[mask][i]
            if cost is None:
                continue
            for j in range(1, n):
                if (mask >> j) & 1:
                    continue
                nxt = mask | (1 << j)
                cand = cost + wm[(i, j)]
                if dp[nxt][j] is None or cand < dp[nxt][j]:
                    dp[nxt][j] = cand
    return min(dp[full - 1][j] + wm[(j, 0)] for j in range(1, n))


def brute_chromatic_number(graph):
    """Chromatic number by pruned enumeration of colorings."""
    n = graph.node_count
    if n == 0:
        return 0
    adj = graph.adjacency
    for k in range(1, n + 1):
        colors = [-1] * n

        def assign(v):
            if v == n:
                return True
            # First vertex pinned to color 0 kills pure relabelings.
            top = 1 if v == 0 else k
            for c in range(top):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if assign(v + 1):
                        return True
                    colors[v] = -1
            return False

        if assign(0):
            return k
    return n


def brute_min_cover_size(graph):
    """Minimum vertex cover size by subset enumeration."""
    n = graph.node_count
    pairs = [(u, v) for u, v, _ in graph.edges]
    if not pairs:
        return 0
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in pairs):
                return k
    return n


def has_cycle_undirected(graph):
    """m > n - c detects a cycle without any union-find or DFS."""
    n = graph.node_count
    seen = set()
    components = 0
    neigh = [[] for _ in range(n)]
    for u, v, _ in graph.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    for root in range(n):
        if root in seen:
            continue
        components += 1
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            for v in neigh[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return graph.edge_count > n - components


def has_cycle_directed(graph):
    """Kahn's algorithm: a cycle exists iff the topological order is short."""
    n = graph.node_count
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for u, v, _ in graph.edges:
        out[u].append(v)
        indeg[v] += 1
    queue = [u for u in range(n) if indeg[u] == 0]
    removed = 0
    while queue:
        u = queue.pop()
        removed += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return removed < n


def exact_price(input_tokens, output_tokens, rate_in_per_million, rate_out_per_million):
    """Token price as an exact Fraction of currency units."""
    return (
        Fraction(input_tokens) * Fraction(rate_in_per_million)
        + Fraction(output_tokens) * Fraction(rate_out_per_million)
    ) / 1_000_000
