"""Small helpers shared across tests: a route's answer, seeded graph
builders, a dead endpoint and a fresh interpreter."""

import os
import random
import socket
import subprocess
import sys
from pathlib import Path

from graphcrew.execute import run_algorithm
from graphcrew.graph import build_graph, is_connected
from graphcrew.knowledge import ROUTES


def catalogue_limit(algorithm_id):
    """The node limit the route table sets for ``algorithm_id``."""
    return next(r.max_nodes for r in ROUTES if r.algorithm_id == algorithm_id)


def solve(algorithm_id, graph, source=None, target=None):
    """The checked :class:`Solution` that the route ``algorithm_id`` gives for
    ``graph``, as :func:`run_algorithm` stamps it."""
    row = next(r for r in ROUTES if r.algorithm_id == algorithm_id)
    return run_algorithm(row, graph, source=source, target=target)


def names_for(n):
    return [f"N{i:02d}" for i in range(n)]


def complete_graph(n, seed, low=1, high=100):
    rng = random.Random(seed)
    names = names_for(n)
    edges = [
        (names[i], names[j], rng.randint(low, high))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return build_graph(names, True, edges)


def gnp_graph(n, p, seed, weighted=False, connected=False):
    rng = random.Random(seed)
    names = names_for(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = []
        for i, j in pairs:
            if rng.random() < p:
                if weighted:
                    edges.append((names[i], names[j], rng.randint(1, 100)))
                else:
                    edges.append((names[i], names[j]))
        g = build_graph(names, weighted, edges)
        if not connected or is_connected(g):
            return g


def mixed_gnp_graphs(count, max_nodes):
    """``count`` seeded undirected graphs of 0 to ``max_nodes`` nodes and
    densities from sparse to dense."""
    rng = random.Random(1807)
    for seed in range(count):
        yield gnp_graph(rng.randint(0, max_nodes), rng.choice((0.1, 0.2, 0.35, 0.5, 0.8)),
                        seed=seed)


def closed_port_url():
    """A loopback chat endpoint URL on a port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1"


def run_python(*args, env=None):
    """Run ``python *args`` in a fresh interpreter that imports graphcrew from
    this checkout, with ``env`` added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})
