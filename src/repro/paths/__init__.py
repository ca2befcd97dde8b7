"""Path and Pareto-skyline primitives."""

from repro.paths.dominance import (
    CostVector,
    add_costs,
    dominates,
    dominates_or_equal,
    incomparable,
    skyline_of,
    zero_cost,
)
from repro.paths.frontier import ParetoSet, PathSet
from repro.paths.path import Path

__all__ = [
    "CostVector",
    "ParetoSet",
    "Path",
    "PathSet",
    "add_costs",
    "dominates",
    "dominates_or_equal",
    "incomparable",
    "skyline_of",
    "zero_cost",
]
