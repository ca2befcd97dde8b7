"""Structural self-validation of a built backbone index.

``verify_index`` checks every invariant the construction algorithm is
supposed to guarantee — the index analogue of a filesystem ``fsck``.
It is used by the test suite, by the CLI's ``build --verify`` flag, and
is available to downstream users who persist indexes and want to check
them after loading.

Checked invariants:

1. every label path starts at its node and ends at its entrance;
2. every label entrance survives its level — it is a node of the top
   graph or carries a label at a *later* level;
3. label path costs are positive and dimensionally correct;
4. per-(node, entrance) path sets are mutually non-dominated;
5. the top graph is non-empty, matches the index dimensionality, and
   every one of its nodes exists in the original graph;
6. every shortcut provenance sequence expands (recursively) to original
   edges, and its endpoints match its key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.index import BackboneIndex
from repro.paths.dominance import dominates


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_index`."""

    problems: list[str] = field(default_factory=list)
    labels_checked: int = 0
    paths_checked: int = 0
    shortcuts_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.problems)} problems"
        return (
            f"VerificationReport({status}, labels={self.labels_checked}, "
            f"paths={self.paths_checked}, shortcuts={self.shortcuts_checked})"
        )


def verify_index(index: BackboneIndex) -> VerificationReport:
    """Check a backbone index's structural invariants.

    Returns a report; ``report.ok`` is True when every invariant holds.
    Problems are collected (not raised) so one inspection surfaces
    everything at once.
    """
    report = VerificationReport()
    problem = report.problems.append
    dim = index.dim
    top_nodes = set(index.top_graph.nodes())

    # nodes labelled at any level AFTER level i, per level
    later_labelled: list[set[int]] = []
    accumulator: set[int] = set()
    for level in reversed(index.levels):
        later_labelled.append(set(accumulator))
        accumulator |= set(level.nodes())
    later_labelled.reverse()

    for level_number, level in enumerate(index.levels):
        for node in level.nodes():
            label = level.get(node)
            report.labels_checked += 1
            for entrance, paths in label.entrances.items():
                if entrance == node:
                    problem(
                        f"level {level_number}: node {node} has a "
                        "self-entrance"
                    )
                if (
                    entrance not in top_nodes
                    and entrance not in later_labelled[level_number]
                ):
                    problem(
                        f"level {level_number}: entrance {entrance} of node "
                        f"{node} neither survives to G_L nor is condensed "
                        "later"
                    )
                costs = []
                for path in paths:
                    report.paths_checked += 1
                    if path.source != node or path.target != entrance:
                        problem(
                            f"level {level_number}: path endpoints "
                            f"{path.source}->{path.target} disagree with "
                            f"label ({node} -> {entrance})"
                        )
                    if path.dim != dim:
                        problem(
                            f"level {level_number}: path with {path.dim} "
                            f"dimensions in a {dim}-dimensional index"
                        )
                    if any(c < 0 for c in path.cost):
                        problem(
                            f"level {level_number}: negative path cost "
                            f"{path.cost}"
                        )
                    costs.append(path.cost)
                for i, a in enumerate(costs):
                    for j, b in enumerate(costs):
                        if i != j and dominates(a, b):
                            problem(
                                f"level {level_number}: dominated path kept "
                                f"for ({node} -> {entrance})"
                            )

    if index.top_graph.num_nodes == 0:
        problem("top graph is empty")
    if index.top_graph.dim != dim:
        problem("top graph dimensionality disagrees with the index")
    for node in top_nodes:
        if not index.original_graph.has_node(node):
            problem(f"top-graph node {node} does not exist in G_0")

    for (u, v, cost), sequence in index.provenance.items():
        report.shortcuts_checked += 1
        if {sequence[0], sequence[-1]} != {u, v}:
            problem(
                f"shortcut ({u}, {v}) provenance endpoints "
                f"{sequence[0]}..{sequence[-1]} disagree"
            )
        if len(cost) != dim:
            problem(f"shortcut ({u}, {v}) cost has wrong dimensionality")
        try:
            expanded = index._expand_pair(u, v, depth=0)
        except Exception as error:  # noqa: BLE001 - reported, not raised
            problem(f"shortcut ({u}, {v}) fails to expand: {error}")
            continue
        if expanded[0] != u or expanded[-1] != v:
            problem(f"shortcut ({u}, {v}) expansion endpoints disagree")

    return report
