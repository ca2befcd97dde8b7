"""One-to-all skyline path search.

A label-correcting best-first search that computes, from one source,
the Pareto-skyline paths to *every* reachable node.  Two callers rely
on it:

* backbone-index label construction — each cluster node needs its
  skyline paths (over the cluster's removed edges) to every highway
  entrance, which is exactly a one-to-all run on a small restricted
  subgraph (Section 4.3.1);
* the paper's one-to-all SPQ extension (Section 5, "Support to other
  types of queries").

Like the point-to-point searches, the hot loop is the flat CSR kernel
of :mod:`repro.accel.onetoall_kernel`; the dict-based loop it is held
bit-identical to lives in :mod:`repro.qa.reference`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path


def one_to_all_skyline(
    graph: MultiCostGraph,
    source: int,
    *,
    targets: Iterable[int] | None = None,
    time_budget: float | None = None,
    stats=None,
    snapshot=None,
) -> dict[int, list[Path]]:
    """Skyline paths from ``source`` to every node (or just ``targets``).

    Parameters
    ----------
    targets:
        When given, only these nodes appear in the result map (the
        search itself still explores everything reachable — any node can
        lie on a skyline path to a target).
    time_budget:
        Optional wall-clock budget in seconds.  Checked on a monotone
        iteration counter (every 512 pops) so a pathological cluster
        cannot hang the builder; a timed-out search returns the partial
        skyline found so far and flags ``stats.timed_out``.
    stats:
        Optional :class:`repro.search.bbs.SearchStats` filled in place.
    snapshot:
        Pre-built :class:`~repro.accel.csr.CSRSnapshot` of ``graph``;
        built on demand when None.  Callers sweeping one graph from
        many sources should build it once and pass it.

    Returns a map ``node -> skyline paths``; the source maps to its
    trivial path.  Unreachable nodes are absent.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    from repro.accel.onetoall_kernel import flat_one_to_all

    if snapshot is None:
        from repro.accel.csr import CSRSnapshot

        snapshot = CSRSnapshot.from_graph(graph)
    return flat_one_to_all(
        snapshot,
        source,
        targets=targets,
        time_budget=time_budget,
        stats=stats,
    )
