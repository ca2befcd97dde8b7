"""Shared search-label machinery for skyline searches.

A *label* is a partial path: the node it ends at, the accumulated cost
vector, and a parent link for O(length) path materialization.  Every
skyline search in the library (BBS, m_BBS, one-to-all) manages one
Pareto frontier of labels per node; a label dominated-or-equalled at its
node can never extend into a new skyline path, so it is pruned.

Keeping one label per *distinct* cost per node is the standard
multi-objective search compromise: equal-cost alternatives that diverge
and re-merge at a node are collapsed, while equal-cost paths through
different nodes all survive.
"""

from __future__ import annotations

from repro.paths.dominance import CostVector, dominates, dominates_or_equal
from repro.paths.path import Path


class Label:
    """A partial path ending at ``node`` with accumulated ``cost``."""

    __slots__ = ("node", "cost", "parent", "seed")

    def __init__(
        self,
        node: int,
        cost: CostVector,
        parent: "Label | None" = None,
        seed: object = None,
    ) -> None:
        self.node = node
        self.cost = cost
        self.parent = parent
        # Arbitrary payload threaded from the label's origin (m_BBS uses
        # it to remember which prefix path seeded the search).
        self.seed = seed if seed is not None or parent is None else parent.seed

    def to_path(self) -> Path:
        """Materialize the node sequence from the parent chain."""
        nodes = []
        label: Label | None = self
        while label is not None:
            nodes.append(label.node)
            label = label.parent
        nodes.reverse()
        return Path(nodes, self.cost)

    def __repr__(self) -> str:
        return f"Label(node={self.node}, cost={self.cost})"


class NodeFrontier:
    """Per-node Pareto frontier of label costs.

    ``try_add`` is the single admission point: it rejects a cost
    dominated-or-equalled by the node's frontier and evicts anything the
    new cost dominates.  ``is_current`` supports lazy heap deletion —
    a popped label whose cost has been evicted since its push is stale.
    """

    __slots__ = ("_costs",)

    def __init__(self) -> None:
        self._costs: list[CostVector] = []

    def try_add(self, cost: CostVector) -> bool:
        """Admit a cost to the frontier; return False if pruned."""
        costs = self._costs
        for kept in costs:
            if dominates_or_equal(kept, cost):
                return False
        self._costs = [kept for kept in costs if not dominates(cost, kept)]
        self._costs.append(cost)
        return True

    def is_current(self, cost: CostVector) -> bool:
        """True iff the cost is still on the frontier (not evicted)."""
        return cost in self._costs

    def __len__(self) -> int:
        return len(self._costs)
