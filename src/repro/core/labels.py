"""Label structures — the facilitating structure I_i (Definition 4.7).

When level i condenses a cluster, the removed nodes and edges would be
lost to queries.  The *label* of a cluster node ``v`` compensates: it
stores the skyline paths from ``v`` to each of the cluster's highway
entrances (the surviving nodes ``C.Ṽ``), computed **over the cluster's
removed edges only** — exactly the information a query needs to climb
from level i to level i+1.

A :class:`LevelIndex` collects the labels of one level.  Because a
level may run several condensing rounds (and an aggressive
summarization pass), the index supports :meth:`absorb`: labels whose
entrances were themselves removed by a later round are re-targeted by
concatenating with the later round's labels (Algorithm 2, line 12).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.paths.dominance import CostVector
from repro.paths.frontier import PathSet
from repro.paths.path import Path

CostedEdge = tuple[int, int, CostVector]
# One label path: (labelled node, entrance, path node -> entrance).
LabelRow = tuple[int, int, Path]


@dataclass
class NodeLabel:
    """label(v): skyline paths from one node to its highway entrances."""

    node: int
    entrances: dict[int, PathSet] = field(default_factory=dict)

    def add_path(self, entrance: int, path: Path) -> bool:
        """Record a skyline path ``node -> entrance``."""
        bucket = self.entrances.get(entrance)
        if bucket is None:
            bucket = self.entrances[entrance] = PathSet()
        return bucket.add(path)

    def paths_to(self, entrance: int) -> list[Path]:
        """Skyline paths to one entrance (empty list when unreachable)."""
        bucket = self.entrances.get(entrance)
        return bucket.paths() if bucket is not None else []

    def path_count(self) -> int:
        """Total stored skyline paths across all entrances."""
        return sum(len(bucket) for bucket in self.entrances.values())


class LevelIndex:
    """I_i: the labels of every condensed-cluster node at one level."""

    def __init__(self) -> None:
        self._labels: dict[int, NodeLabel] = {}

    def get(self, node: int) -> NodeLabel | None:
        """The node's label, or None when the node has no label here."""
        return self._labels.get(node)

    def add_path(self, node: int, entrance: int, path: Path) -> bool:
        """Record one skyline path for a node's label."""
        if node == entrance:
            return False
        label = self._labels.get(node)
        if label is None:
            label = self._labels[node] = NodeLabel(node)
        return label.add_path(entrance, path)

    def nodes(self) -> Iterable[int]:
        """Nodes that carry a label at this level."""
        return self._labels.keys()

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, node: int) -> bool:
        return node in self._labels

    def path_count(self) -> int:
        """Total skyline paths stored at this level."""
        return sum(label.path_count() for label in self._labels.values())

    def entrance_count(self) -> int:
        """Total (node, entrance) pairs stored at this level."""
        return sum(len(label.entrances) for label in self._labels.values())

    def absorb(
        self, later: "LevelIndex", surviving: set[int], *, steal: bool = False
    ) -> None:
        """Fold a later condensing round's labels into this index.

        Existing paths ending at an entrance that the later round
        removed are extended with that entrance's new paths (skyline
        concatenation); then the later round's own labels merge in.
        After absorbing, every stored entrance is in ``surviving``.

        ``steal=True`` moves each of ``later``'s :class:`NodeLabel`
        objects wholesale when this index has no label for that node
        yet — the dominant case, since successive rounds condense
        disjoint clusters.  Content and ordering are identical to the
        path-by-path merge (a ``PathSet``'s members are mutually
        non-dominated, so re-adding them one by one into an empty set
        keeps all of them in the same order), but the per-path Pareto
        scans disappear.  The caller gives up ownership of ``later``.
        """
        for label in self._labels.values():
            stale = [h for h in label.entrances if h not in surviving]
            for entrance in stale:
                old_paths = label.entrances.pop(entrance).paths()
                extension = later.get(entrance)
                if extension is None:
                    continue  # the entrance vanished unreachable; drop
                for new_entrance, suffixes in extension.entrances.items():
                    if new_entrance == label.node:
                        continue
                    for prefix in old_paths:
                        for suffix in suffixes:
                            label.add_path(new_entrance, prefix.concat(suffix))
        labels = self._labels
        for node, new_label in later._labels.items():
            if steal and node not in labels:
                labels[node] = new_label
                continue
            for entrance, paths in new_label.entrances.items():
                for path in paths:
                    self.add_path(node, entrance, path)


@dataclass
class LabelTask:
    """One cluster's deferred label-construction work.

    Pure in its arguments: the costed removed edges are captured before
    the level graph mutates, so a task can run any time after its
    cluster condensed.  Executing tasks in cluster order reproduces the
    inline construction path for path.
    """

    dim: int
    cluster_nodes: set[int]
    removed_edges: list[CostedEdge]
    entrances: set[int]


def run_label_task(task: LabelTask) -> list[LabelRow]:
    """Execute one label task, returning ``(node, entrance, path)`` rows.

    The removed edges freeze straight into a
    :class:`~repro.accel.csr.CSRSnapshot` (no restricted graph object)
    and the flat one-to-all kernel runs once per entrance.  Entrances
    are visited in sorted order and each entrance's reached nodes in
    first-pop order, so the row sequence — and therefore every
    downstream ``PathSet`` insertion order — is deterministic,
    independent of who runs the task, and bit-identical to the
    reference build's restricted-graph searches
    (:mod:`repro.qa.reference`).
    """
    if not task.removed_edges or not task.entrances:
        return []
    from repro.accel.csr import CSRSnapshot
    from repro.accel.onetoall_kernel import flat_label_rows

    snapshot = CSRSnapshot.from_edges(
        task.dim, task.cluster_nodes, task.removed_edges
    )
    return flat_label_rows(snapshot, task.cluster_nodes, task.entrances)


def record_label_rows(into: LevelIndex, rows: Iterable[LabelRow]) -> None:
    """Replay task rows into a level index (order-preserving)."""
    for node, entrance, path in rows:
        into.add_path(node, entrance, path)


def build_cluster_labels(
    dim: int,
    cluster_nodes: set[int],
    removed_edges: list[CostedEdge],
    entrances: set[int],
    *,
    into: LevelIndex,
) -> None:
    """Build labels for one condensed cluster (Definition 4.7).

    The skyline searches run on the *restricted graph* formed by the
    cluster's removed edges only — the paper's strategy that "preserves
    the deleted edge information in the skyline paths" while keeping
    the searches tiny.  One one-to-all run per entrance (paths are then
    reversed) covers every (node, entrance) pair.
    """
    task = LabelTask(
        dim=dim,
        cluster_nodes=cluster_nodes,
        removed_edges=removed_edges,
        entrances=entrances,
    )
    record_label_rows(into, run_label_task(task))
