"""Exact search algorithms: Dijkstra, BBS, m_BBS, one-to-all."""

from repro.search.bbs import (
    SearchStats,
    SkylineResult,
    brute_force_skyline,
    skyline_paths,
)
from repro.search.dijkstra import (
    path_hops,
    per_dimension_shortest_paths,
    shortest_costs,
    shortest_path,
)
from repro.search.mbbs import ManyToManyResult, Seed, many_to_many_skyline
from repro.search.onetoall import one_to_all_skyline

__all__ = [
    "ManyToManyResult",
    "SearchStats",
    "Seed",
    "SkylineResult",
    "brute_force_skyline",
    "many_to_many_skyline",
    "one_to_all_skyline",
    "path_hops",
    "per_dimension_shortest_paths",
    "shortest_costs",
    "shortest_path",
    "skyline_paths",
]
