"""Independent reference implementations used only by tests.

Deliberately written with different algorithms than the package solvers:
shortest paths via Bellman-Ford instead of Dijkstra, chromatic number by
prefix-pruned color enumeration, vertex cover by subset enumeration,
tours by direct permutation scan, the Held-Karp subset dynamic program
or integer programming with subtour cuts instead of branch and bound,
cycles by edge/component counting and Kahn's algorithm, and weights and
edge-list text read the slow way, every weight string through
``Fraction`` and every line stripped first, and answers scored by
recomputing their objective outside the verifier.
Slow and obviously correct beats fast here.

The set-based cover and coloring searches and the regex block reader
are the package's former implementations, kept so that tests can show
their faster replacements return the same answers.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, permutations

from graphcrew.problems import COLORING, NODE_SET
from graphcrew.solvers import Solution, vertex_cover_approx
from graphcrew.solvers.solution import canonical_coloring

INF = float("inf")


def weight_table(graph):
    """Edge weight by index pair, each edge both ways round."""
    table = {}
    for u, v, w in graph.edges:
        table[u, v] = table[v, u] = w
    return table


def bellman_ford_cost(graph, src, dst):
    """Exact shortest-path cost from src to dst (names), or None."""
    n = graph.node_count
    s, t = graph.index_of(src), graph.index_of(dst)
    dist = [INF] * n
    dist[s] = 0
    arcs = [arc for u, v, w in graph.edges for arc in ((u, v, w), (v, u, w))]
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
    wm = weight_table(graph)
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


def tour_cost(graph, order):
    """Exact cost of the closed tour visiting ``order`` (names)."""
    idx = [graph.index_of(name) for name in order]
    wm = weight_table(graph)
    return sum(wm[(a, b)] for a, b in zip(idx, idx[1:] + idx[:1]))


def brute_tour_cost(graph):
    """Optimal tour cost by scanning all permutations (n <= 9 or so)."""
    n = graph.node_count
    wm = weight_table(graph)
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
    wm = weight_table(graph)
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


def milp_tour_cost(graph):
    """Optimal tour cost by integer programming (scipy's HiGHS).

    One binary per edge, degree 2 at every node, and the
    Dantzig-Fulkerson-Johnson cut ``x(E(S)) <= |S| - 1`` for every subtour
    of an optimum, re-solved until the optimum is one tour.  Weights are
    scaled to integers by the LCM of their denominators, the cost is summed
    exactly over the chosen edges, and only a zero-gap optimum counts as
    proof.  Fine to n = 25 or so.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = graph.node_count
    pairs = [(u, v) for u, v, _ in graph.edges]
    weights = [Fraction(w) for _, _, w in graph.edges]
    scale = math.lcm(*(w.denominator for w in weights))
    cost = [int(w * scale) for w in weights]
    degree = np.zeros((n, len(pairs)))
    for e, (u, v) in enumerate(pairs):
        degree[u, e] = degree[v, e] = 1
    constraints = [LinearConstraint(degree, 2, 2)]
    while True:
        result = milp(
            np.array(cost, dtype=float),
            integrality=np.ones(len(pairs)),
            bounds=Bounds(0, 1),
            constraints=constraints,
            options={"mip_rel_gap": 0},
        )
        if result.status != 0 or result.mip_gap != 0:
            raise AssertionError(f"no proven optimum: {result.message}")
        chosen = [e for e in range(len(pairs)) if result.x[e] > 0.5]
        subtours = _cycles(n, [pairs[e] for e in chosen])
        if len(subtours) == 1:
            return Fraction(sum(cost[e] for e in chosen), scale)
        for nodes in subtours:
            inside = [float(u in nodes and v in nodes) for u, v in pairs]
            constraints.append(LinearConstraint(inside, -np.inf, len(nodes) - 1))


def _cycles(n, edges):
    """Node sets of the cycles that a 2-regular edge list splits into."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    assert all(len(ns) == 2 for ns in neighbors)
    seen, cycles = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, nodes = [start], set()
        while stack:
            u = stack.pop()
            if u not in nodes:
                nodes.add(u)
                stack.extend(neighbors[u])
        seen |= nodes
        cycles.append(nodes)
    return cycles


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


def set_vertex_cover(graph):
    """Minimum cover by the set-based branch and bound the bitmask search
    replaced: the same reductions, bound and branch order on a
    dict-of-sets adjacency copied at every search node."""
    seed = {graph.index_of(name) for name in vertex_cover_approx(graph)}
    best = seed

    def matching_lower_bound(adj):
        taken = set()
        size = 0
        for u in sorted(adj):
            if u in taken:
                continue
            for v in sorted(adj[u]):
                if v not in taken:
                    taken.add(u)
                    taken.add(v)
                    size += 1
                    break
        return size

    def search(adj, chosen):
        nonlocal best
        while True:
            isolated = [v for v in adj if not adj[v]]
            for v in isolated:
                del adj[v]
            leaf = next((v for v in sorted(adj) if len(adj[v]) == 1), None)
            if leaf is None:
                break
            neighbor = next(iter(adj[leaf]))
            chosen.add(neighbor)
            for u in list(adj[neighbor]):
                adj[u].discard(neighbor)
            del adj[neighbor]
        if not adj:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + matching_lower_bound(adj) >= len(best):
            return
        v = max(adj, key=lambda u: (len(adj[u]), -u))
        neighbors = sorted(adj[v])

        branch_adj = {u: set(ns) for u, ns in adj.items()}
        for u in branch_adj[v]:
            branch_adj[u].discard(v)
        del branch_adj[v]
        search(branch_adj, chosen | {v})

        branch_adj = {u: set(ns) for u, ns in adj.items()}
        for w in neighbors:
            for u in list(branch_adj[w]):
                branch_adj[u].discard(w)
            del branch_adj[w]
        search(branch_adj, chosen | set(neighbors))

    search({v: set(ns) for v, ns in enumerate(graph.adjacency)}, set())
    nodes = tuple(sorted(graph.node_names[v] for v in best))
    return Solution(NODE_SET, nodes, len(nodes), "bnb_cover", exact=True)


def set_dsatur_colors(graph):
    """DSATUR as the set-based coloring ran it: name -> color."""
    n = graph.node_count
    adj = graph.adjacency
    degree = [len(adj[v]) for v in range(n)]
    colors = {}
    neighbor_colors = [set() for _ in range(n)]
    while len(colors) < n:
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


def set_coloring(graph):
    """Minimum coloring by the set-based search the bitmask one replaced:
    DSATUR upper bound, greedy clique lower bound, then backtracking
    over the fixed degree order with a ``forbidden`` set per node."""
    n = graph.node_count
    if n == 0:
        return Solution(COLORING, {}, 0, "exact_coloring", exact=True)
    adj = graph.adjacency
    witness = set_dsatur_colors(graph)
    upper = len(set(witness.values()))
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    clique = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    for k in range(max(1, len(clique)), upper):
        colors = {}

        def branch(pos, opened):
            if pos == len(order):
                return True
            v = order[pos]
            forbidden = {colors[u] for u in adj[v] if u in colors}
            for c in range(min(opened, k - 1) + 1):
                if c in forbidden:
                    continue
                colors[v] = c
                if branch(pos + 1, max(opened, c + 1)):
                    return True
                del colors[v]
            return False

        if branch(0, 0):
            witness = {graph.node_names[v]: c for v, c in colors.items()}
            break
    colors = canonical_coloring(witness)
    return Solution(COLORING, colors, len(set(colors.values())), "exact_coloring", exact=True)


_BLOCK_RE = re.compile(r"```result:([a-z_]+)[ \t\r]*\n(.*?)```", re.DOTALL)


def regex_extract_block(text, tag):
    """The body of the last ``result:<tag>`` block, read by one lazy
    DOTALL regex over the whole reply."""
    body = None
    for match in _BLOCK_RE.finditer(text):
        if match.group(1) == tag:
            body = match.group(2)
    return body.strip() if body is not None else None


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


def exact_price(input_tokens, output_tokens, rate_in_per_million, rate_out_per_million):
    """Token price as an exact Fraction of currency units."""
    return (
        Fraction(input_tokens) * Fraction(rate_in_per_million)
        + Fraction(output_tokens) * Fraction(rate_out_per_million)
    ) / 1_000_000


def fraction_coerce_weight(value):
    """Weight reading with every string through ``Fraction``, no ``int()``
    shortcut; exponent notation is refused before ``Fraction`` sees it."""
    from graphcrew.graph import GraphError

    if isinstance(value, bool):
        raise GraphError(f"weight must be a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise GraphError(f"bad weight {value!r}")
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphError(f"bad weight {value!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    if isinstance(value, float):
        raise GraphError(
            f"float weight {value!r} not accepted; pass an int, Fraction, or decimal string"
        )
    raise GraphError(f"bad weight {value!r}")


_HEADER_RE = re.compile(r"^#\s*([A-Za-z]+)\s*:\s*(.*)$")


def _token_column(raw, index):
    return [m.start() for m in re.finditer(r"\S+", raw)][index] + 1


def scan_edge_list(text):
    """The edge-list reader that strips every line before reading it.

    Rows go through :func:`fraction_coerce_weight`, and each row keeps its
    own line, so the roster is checked without finding the row again.
    Returns the first problem as ``parse_graph`` orders them (an unreadable
    line first, then an endpoint missing from the last ``# nodes:`` roster)
    as a ``ParseError``; else the parts ``(names, weighted, triples)`` for
    ``build_graph``, with the rows' endpoints as the roster when there is
    no ``# nodes:`` line.  Header keys and their ``true``/``false`` are
    read in any case.  A ``# directed:`` line is read only to refuse any
    value but ``false``.
    """
    from graphcrew.formats import ParseError
    from graphcrew.graph import GraphError

    names = weighted = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            tokens = line.split()
            if len(tokens) == 2:
                rows.append((lineno, raw, tokens[0], tokens[1], None))
            elif len(tokens) != 3:
                return ParseError(f"expected 'U V' or 'U V W', got {line!r}", lineno)
            else:
                try:
                    weight = fraction_coerce_weight(tokens[2])
                except GraphError as exc:
                    return ParseError(str(exc), lineno, _token_column(raw, 2))
                rows.append((lineno, raw, tokens[0], tokens[1], weight))
            continue
        match = _HEADER_RE.match(line)
        if match is None or match.group(1).lower() not in ("nodes", "directed", "weighted"):
            return ParseError(f"bad header line {line!r}", lineno)
        key, value = match.group(1).lower(), match.group(2).strip()
        # the value's first character, or the one after the colon when it is empty
        colon = raw.index(":")
        column = raw.index(value, colon) + 1 if value else colon + 2
        if key == "nodes":
            names = value.split()
            if not names:
                return ParseError("empty node roster", lineno, column)
        elif key == "directed":
            if value.lower() != "false":
                return ParseError("every connection a statement gives runs both ways, so "
                                  f"the graph cannot be directed (got {value!r})", lineno, column)
        elif value.lower() not in ("true", "false"):
            return ParseError(f"expected 'true' or 'false', got {value!r}", lineno, column)
        else:
            weighted = value.lower() == "true"
    if names is None:
        names = sorted({name for row in rows for name in row[2:4]})
    for lineno, raw, u, v, _ in rows:
        for index, name in enumerate((u, v)):
            if name not in names:
                return ParseError(f"endpoint {name!r} missing from roster", lineno,
                                  _token_column(raw, index))
    if weighted is None:
        weighted = any(w is not None for *_, w in rows)
    triples = [(u, v, 1 if w is None else w) for _, _, u, v, w in rows]
    return names, weighted, triples


def _recompute_objective(graph, solution):
    """Objective implied by the payload alone, walked and counted here; None if broken."""
    from graphcrew.graph import GraphError

    try:
        wm = weight_table(graph)
        if solution.kind == "tour":
            order = solution.payload
            if not order:
                return None
            total = 0
            for i, name in enumerate(order):
                u = graph.index_of(name)
                v = graph.index_of(order[(i + 1) % len(order)])
                total += wm[(u, v)]
            return total
        if solution.kind == "coloring":
            return len(set(solution.payload.values()))
        if solution.kind == "node_set":
            return len(solution.payload)
        if solution.kind == "path":
            path = solution.payload
            if not path:
                return None
            total = 0
            for a, b in zip(path, path[1:]):
                total += wm[(graph.index_of(a), graph.index_of(b))]
            return total
        if solution.kind == "boolean":
            return int(bool(solution.payload))
    except (GraphError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return None


def recomputing_score_prediction(prediction, truth, problem_type, graph,
                                 source=None, target=None, instance_id=""):
    """Scoring that recomputes the payload's objective itself, then verifies a
    copy of the prediction that states it; returns the same ``InstanceScore``
    and raises the same errors as ``score_prediction``."""
    from dataclasses import replace

    from graphcrew.evaluation import InstanceScore, TruthDefectError
    from graphcrew.problems import KIND_BY_PROBLEM, check_problem_type
    from graphcrew.solvers import verify_solution

    check_problem_type(problem_type)
    expected_kind = KIND_BY_PROBLEM[problem_type]
    if prediction.kind != expected_kind:
        zero = Fraction(0)
        return InstanceScore(instance_id, problem_type, zero, zero, zero,
                             f"{problem_type} expects a {expected_kind} answer, "
                             f"got {prediction.kind}")
    half = Fraction(1, 2)
    acc_result = Fraction(int(prediction.objective == truth.objective))
    if expected_kind == "boolean":
        acc_nodes = acc_all = acc_result
    else:
        acc_nodes = Fraction(0)
        recomputed = _recompute_objective(graph, prediction)
        if recomputed is not None and recomputed <= truth.objective:
            candidate = replace(prediction, objective=recomputed)
            try:
                report = verify_solution(
                    problem_type, graph, candidate, source=source, target=target
                )
            except (ValueError, KeyError):
                report = None
            if report is not None and report.valid:
                if recomputed < truth.objective:
                    raise TruthDefectError(recomputed, truth.objective)
                acc_nodes = Fraction(1)
        acc_all = half * acc_nodes + half * acc_result
    return InstanceScore(instance_id, problem_type, acc_nodes, acc_result, acc_all)
