"""Workbench for natural-language graph problems.

The package splits into five subsystems that share one canonical graph
representation:

- ``dataset``: seeded generators that hide a known graph inside prose.
  The reference extractor that recovers it lives in ``dataset.extract``
  and is not re-exported: only the offline stub backend loads it.
- ``solvers``: native exact and heuristic algorithms over that graph type.
- ``knowledge``: the route table and the deterministic selector.
- ``agents``: the staged chat pipeline that turns prose into a solved,
  verified answer via a pluggable backend.
- ``evaluation``: exact-arithmetic scoring and token cost accounting.

``prices`` holds the token rates that the backend config loader reads
and cost accounting spends, so neither layer loads the other.
"""

__version__ = "0.1.0"
