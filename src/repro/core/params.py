"""Backbone-index construction parameters (Definition 4.8, Section 6.1).

The paper's defaults: condensing-threshold percentage ``p_ind = 0.3``,
minimum cluster size ``m_min = 30``, maximum cluster size
``m_max = 200``, and minimum per-level edge-removal fraction
``p = 0.01``.  Three construction variants differ in *when* the
aggressive single-segment summarization fires (Section 6.1):

* ``NONE`` — never (``backbone_none``);
* ``NORMAL`` — only when regular summarization removed fewer than
  ``p * |G_0.E|`` edges (``backbone_normal``, Algorithm 2);
* ``EACH`` — at every level (``backbone_each``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import BuildError


class AggressiveMode(enum.Enum):
    """When the aggressive single-segment summarization is triggered."""

    NONE = "none"
    NORMAL = "normal"
    EACH = "each"


class ClusteringStrategy(enum.Enum):
    """How a level's local units are discovered (Section 6.2.3)."""

    DENSE = "dense"  # the paper's cluster-coefficient growth (Algorithm 1)
    BFS = "bfs"  # BFS chunking, the ablation comparator


class TreePolicy(enum.Enum):
    """Edge preference when building a cluster's spanning tree.

    The paper keeps *higher degree-pair* edges "because they can keep
    more information in the original graph" (Section 4.2.3); the
    ARBITRARY policy (plain Kruskal in edge-id order) is the ablation
    comparator for that design choice.
    """

    DEGREE_PAIR = "degree_pair"
    ARBITRARY = "arbitrary"


class LabelScope(enum.Enum):
    """Which edges label searches may use (Section 4.3.1).

    The paper restricts label paths to each cluster's *removed* edges —
    "this strategy not only preserves the deleted edge information in
    the skyline paths, but also speeds up the query process".  The
    FULL_CLUSTER scope (removed + kept cluster edges) is the ablation
    comparator: better labels, costlier construction.
    """

    REMOVED_EDGES = "removed_edges"
    FULL_CLUSTER = "full_cluster"


@dataclass(frozen=True)
class BackboneParams:
    """Parameters controlling backbone-index construction.

    Attributes
    ----------
    m_max:
        Maximum nodes per dense cluster.
    m_min:
        Clusters smaller than this merge into a neighbor.
    p:
        Minimum fraction of the *original* edge count that each level
        must remove; controls the index height L.
    p_ind:
        Condensing-threshold percentage for noise detection.
    aggressive:
        Aggressive-summarization trigger policy (the paper's variants).
    clustering:
        Dense-cluster discovery (paper) or BFS partitioning (ablation).
    tree_policy:
        Spanning-tree edge preference (paper: degree pairs; ablation:
        arbitrary Kruskal).
    label_scope:
        Edges available to label searches (paper: removed edges only;
        ablation: the whole cluster subgraph).
    max_levels:
        Safety cap on index height.
    """

    m_max: int = 200
    m_min: int = 30
    p: float = 0.01
    p_ind: float = 0.3
    aggressive: AggressiveMode = AggressiveMode.NORMAL
    clustering: ClusteringStrategy = ClusteringStrategy.DENSE
    tree_policy: TreePolicy = TreePolicy.DEGREE_PAIR
    label_scope: LabelScope = LabelScope.REMOVED_EDGES
    max_levels: int = 64

    def __post_init__(self) -> None:
        if self.m_max < 1:
            raise BuildError(f"m_max must be >= 1, got {self.m_max}")
        if self.m_min < 0:
            raise BuildError(f"m_min must be >= 0, got {self.m_min}")
        if self.m_min > self.m_max:
            raise BuildError(
                f"m_min ({self.m_min}) cannot exceed m_max ({self.m_max})"
            )
        if not 0.0 < self.p < 1.0:
            raise BuildError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 <= self.p_ind < 1.0:
            raise BuildError(f"p_ind must lie in [0, 1), got {self.p_ind}")
        if self.max_levels < 1:
            raise BuildError(f"max_levels must be >= 1, got {self.max_levels}")
