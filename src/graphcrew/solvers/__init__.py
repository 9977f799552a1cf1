"""Native graph algorithms with exact arithmetic and fixed tie-breaking."""

from .solution import (
    Solution,
    ValidityReport,
    measure,
    solution_from_dict,
    solution_to_dict,
    verify_solution,
)
from .tsp import tsp_exact_held_karp, tsp_nearest_neighbor_two_opt
from .coloring import coloring_dsatur, coloring_exact
from .vertex_cover import vertex_cover_approx, vertex_cover_exact
from .shortest_path import NoPathError, shortest_path_dijkstra
from .cycles import detect_cycle

__all__ = [
    "NoPathError",
    "Solution",
    "ValidityReport",
    "coloring_dsatur",
    "coloring_exact",
    "detect_cycle",
    "measure",
    "shortest_path_dijkstra",
    "solution_from_dict",
    "solution_to_dict",
    "tsp_exact_held_karp",
    "tsp_nearest_neighbor_two_opt",
    "vertex_cover_approx",
    "vertex_cover_exact",
]
