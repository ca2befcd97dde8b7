"""repro — Backbone Index for Skyline Path Queries over Multi-cost Road Networks.

A faithful, pure-Python reproduction of the EDBT 2022 paper by Gong and
Cao.  The package provides:

* :mod:`repro.graph` — the multi-cost road network substrate,
  generators, and DIMACS I/O;
* :mod:`repro.paths` — paths, dominance, Pareto frontiers;
* :mod:`repro.search` — exact algorithms (Dijkstra, BBS, m_BBS,
  one-to-all skyline);
* :mod:`repro.core` — the backbone index (construction, querying,
  maintenance), the paper's primary contribution;
* :mod:`repro.baselines` — GTree and CH adapted to skyline paths, plus
  BFS partitioning, the paper's comparison methods;
* :mod:`repro.eval` — quality metrics (RAC, goodness), workloads,
  experiment harness;
* :mod:`repro.datasets` — named synthetic stand-ins for the paper's
  nine road networks;
* :mod:`repro.obs` — zero-dependency tracing (nested spans, Chrome
  trace export, span->metrics aggregation) over build, query, search,
  and serving;
* :mod:`repro.service` — the serving layer (warm engine, result
  cache, batch executor, metrics);
* :mod:`repro.store` — binary index persistence (checksummed
  sectioned format, lazy loading, generation snapshots) for fast
  warm starts.

Quickstart::

    from repro import road_network, build_backbone_index, skyline_paths

    graph = road_network(2000, dim=3, seed=7)
    index = build_backbone_index(graph)
    nodes = list(graph.nodes())
    approx = index.query(nodes[0], nodes[-1])
    exact = skyline_paths(graph, nodes[0], nodes[-1]).paths
"""

from repro.core import (
    AggressiveMode,
    BackboneIndex,
    BackboneParams,
    ClusteringStrategy,
    backbone_one_to_all,
    backbone_query,
    build_backbone_index,
)
from repro.core.directed import DirectedBackboneIndex
from repro.core.maintenance import MaintainableIndex
from repro.errors import (
    BuildError,
    DimensionMismatchError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    QueryError,
    ReproError,
    SearchTimeoutError,
)
from repro.eval import goodness, rac, random_queries
from repro.graph import (
    CostDistribution,
    MultiCostGraph,
    assign_costs,
    bfs_subgraph,
    graph_stats,
    road_network,
)
from repro.obs import Tracer, get_tracer, set_tracer, use_tracer
from repro.paths import Path, PathSet, dominates, skyline_of
from repro.search import many_to_many_skyline, one_to_all_skyline, skyline_paths
from repro.store import Snapshotter, load_index, save_index

__version__ = "1.0.0"

__all__ = [
    "AggressiveMode",
    "BackboneIndex",
    "BackboneParams",
    "BuildError",
    "ClusteringStrategy",
    "CostDistribution",
    "DirectedBackboneIndex",
    "DimensionMismatchError",
    "EdgeNotFoundError",
    "GraphError",
    "MaintainableIndex",
    "MultiCostGraph",
    "NodeNotFoundError",
    "Path",
    "PathSet",
    "QueryError",
    "ReproError",
    "SearchTimeoutError",
    "Snapshotter",
    "Tracer",
    "assign_costs",
    "backbone_one_to_all",
    "backbone_query",
    "bfs_subgraph",
    "build_backbone_index",
    "dominates",
    "get_tracer",
    "goodness",
    "graph_stats",
    "load_index",
    "many_to_many_skyline",
    "one_to_all_skyline",
    "rac",
    "random_queries",
    "road_network",
    "save_index",
    "set_tracer",
    "skyline_of",
    "skyline_paths",
    "use_tracer",
]
