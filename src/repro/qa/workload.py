"""Seeded random graphs, query workloads, and update scripts for qa.

Everything a differential case needs is derived deterministically from
one integer seed: the topology style and cost dimensionality rotate
through the configured grid, the network comes from
:func:`repro.graph.generators.road_network`, queries are sampled node
pairs, and the update script is a short list of structural ops
(cost bumps, edge inserts/deletes, an occasional node delete) that the
runner later replays through a
:class:`~repro.core.maintenance.MaintainableIndex`.

Graphs are kept small (tens of nodes) on purpose: exact BBS is the
oracle for every query, and a store round-trip plus two metamorphic
index builds run per case, so a case must stay in the tens of
milliseconds for a 50-seed fuzz run to finish interactively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.params import BackboneParams
from repro.graph.costs import CostDistribution
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph

STYLES = ("delaunay", "grid")
DIMS = (2, 3, 4)

# An update op is ("bump", u, v) / ("insert", u, v, cost) /
# ("delete_edge", u, v) / ("delete_node", n) — costs for bumps are read
# off the live graph at apply time so ops stay valid in sequence.
UpdateOp = tuple


@dataclass(frozen=True)
class CaseSpec:
    """Deterministic description of one differential case."""

    seed: int
    style: str = "delaunay"
    dim: int = 3
    n_nodes: int = 70
    n_queries: int = 5
    n_updates: int = 3
    distribution: str = "uniform"

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        n_nodes: int = 70,
        n_queries: int = 5,
        n_updates: int = 3,
    ) -> "CaseSpec":
        """Rotate style and dimensionality through the qa grid so a
        contiguous seed range covers every (style, dim) combination."""
        return cls(
            seed=seed,
            style=STYLES[seed % len(STYLES)],
            dim=DIMS[(seed // len(STYLES)) % len(DIMS)],
            n_nodes=n_nodes,
            n_queries=n_queries,
            n_updates=n_updates,
        )


@dataclass
class QACase:
    """One generated case: the network, its workload, and updates."""

    spec: CaseSpec
    graph: MultiCostGraph
    queries: list[tuple[int, int]] = field(default_factory=list)
    updates: list[UpdateOp] = field(default_factory=list)


def qa_params(spec: CaseSpec) -> BackboneParams:
    """Construction parameters sized for qa-scale graphs: small
    clusters and an aggressive removal quota force several index
    levels even on ~70-node networks, so every query exercises the
    full grow/grow/connect pipeline."""
    return BackboneParams(m_max=10, m_min=2, p=0.2)


def build_case(spec: CaseSpec) -> QACase:
    """Materialize a spec into a graph, queries, and an update script."""
    graph = road_network(
        spec.n_nodes,
        dim=spec.dim,
        style=spec.style,
        distribution=CostDistribution(spec.distribution),
        seed=spec.seed,
    )
    rng = random.Random(spec.seed * 7919 + 17)
    nodes = sorted(graph.nodes())
    queries = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(spec.n_queries)
    ]
    endpoint_nodes = {n for pair in queries for n in pair}

    updates: list[UpdateOp] = []
    edge_pairs = sorted(graph.edge_pairs())
    for _ in range(spec.n_updates):
        roll = rng.random()
        if roll < 0.5 and edge_pairs:
            u, v = rng.choice(edge_pairs)
            updates.append(("bump", u, v))
        elif roll < 0.75:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u != v:
                cost = tuple(
                    round(rng.uniform(1.0, 9.0), 2) for _ in range(spec.dim)
                )
                updates.append(("insert", u, v, cost))
        elif roll < 0.9 and edge_pairs:
            u, v = rng.choice(edge_pairs)
            updates.append(("delete_edge", u, v))
        else:
            victims = [n for n in nodes if n not in endpoint_nodes]
            if victims:
                updates.append(("delete_node", rng.choice(victims)))
    return QACase(spec=spec, graph=graph, queries=queries, updates=updates)


def apply_updates(maintainer, updates: list[UpdateOp]) -> int:
    """Replay an update script against a maintainable index.

    Ops made moot by earlier ops (the edge was deleted, the node is
    gone) are skipped; returns how many ops actually applied.
    """
    applied = 0
    for op in updates:
        kind = op[0]
        graph = maintainer.graph
        if kind == "bump":
            _, u, v = op
            if not graph.has_edge(u, v):
                continue
            old = graph.edge_costs(u, v)[0]
            new = tuple(c * 1.5 for c in old)
            maintainer.update_edge_cost(u, v, old, new)
        elif kind == "insert":
            _, u, v, cost = op
            if not (graph.has_node(u) and graph.has_node(v)):
                continue
            maintainer.insert_edge(u, v, cost)
        elif kind == "delete_edge":
            _, u, v = op
            if not graph.has_edge(u, v):
                continue
            maintainer.delete_edge(u, v)
        elif kind == "delete_node":
            _, node = op
            if not graph.has_node(node):
                continue
            maintainer.delete_node(node)
        else:  # pragma: no cover - internal dispatch
            raise ValueError(f"unknown update op {op!r}")
        applied += 1
    return applied
