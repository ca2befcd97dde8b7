"""The backbone index: construction, querying, and maintenance."""

from repro.core.builder import build_backbone_index
from repro.core.directed import DirectedBackboneIndex, project_undirected
from repro.core.clustering import Clustering, find_dense_clusters
from repro.core.coefficients import (
    all_cluster_coefficients,
    all_two_hop_cardinalities,
    cluster_coefficient,
    two_hop_cardinality,
    two_hop_neighborhood,
)
from repro.core.index import BackboneIndex, BuildStats, LevelStats
from repro.core.labels import LevelIndex, NodeLabel, build_cluster_labels
from repro.core.params import (
    AggressiveMode,
    BackboneParams,
    ClusteringStrategy,
    LabelScope,
    TreePolicy,
)
from repro.core.query import (
    QueryResult,
    QueryStats,
    backbone_one_to_all,
    backbone_query,
    backbone_query_shared_source,
)
from repro.core.segments import (
    AggressiveResult,
    Segment,
    condense_segments,
    find_single_segments,
)
from repro.core.spanning import (
    CondensedCluster,
    condense_cluster,
    degree_pair_spanning_forest,
)
from repro.core.summarize import (
    RoundResult,
    bfs_partitions,
    condense_round,
    strip_degree_one,
)
from repro.core.threshold import condensing_threshold, is_noise
from repro.core.verify import VerificationReport, verify_index

__all__ = [
    "AggressiveMode",
    "AggressiveResult",
    "BackboneIndex",
    "BackboneParams",
    "BuildStats",
    "Clustering",
    "ClusteringStrategy",
    "CondensedCluster",
    "DirectedBackboneIndex",
    "LabelScope",
    "LevelIndex",
    "LevelStats",
    "NodeLabel",
    "QueryResult",
    "QueryStats",
    "RoundResult",
    "VerificationReport",
    "Segment",
    "TreePolicy",
    "all_cluster_coefficients",
    "all_two_hop_cardinalities",
    "backbone_one_to_all",
    "backbone_query",
    "backbone_query_shared_source",
    "bfs_partitions",
    "build_backbone_index",
    "build_cluster_labels",
    "cluster_coefficient",
    "condense_cluster",
    "condense_round",
    "condense_segments",
    "condensing_threshold",
    "degree_pair_spanning_forest",
    "find_dense_clusters",
    "find_single_segments",
    "is_noise",
    "project_undirected",
    "strip_degree_one",
    "two_hop_cardinality",
    "two_hop_neighborhood",
    "verify_index",
]
