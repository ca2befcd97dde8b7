"""Executable correctness invariants for skyline path answers.

Every checker returns a list of human-readable problem strings (empty
when the invariant holds) instead of raising, so the differential
runner can aggregate findings across variants and the shrinker can use
"still produces a problem" as its reduction predicate.  The same
predicates back the qa regression tests, keeping the harness and the
test suite in agreement about what *correct* means:

* :func:`path_errors` — the node sequence is a real walk in the graph
  and the stored cost is achievable along it (parallel edges induce a
  small dynamic program over cost choices);
* :func:`non_dominance_errors` — a result set is mutually
  non-dominated; exact cost ties are allowed (Definition 3.2 keeps
  equal-cost alternatives);
* :func:`approximation_errors` — an approximate set is
  dominance-consistent with the exact skyline: nothing beats exact,
  nothing escapes it, and RAC stays within a configured bound;
* :func:`identical_answer_errors` — two variants that must agree
  bit-for-bit (cached vs. uncached, store round-trip vs. fresh) really
  return the same multiset of (cost, node-sequence) pairs;
* :func:`answer_set_errors` — two variants that must agree as *answer
  sets* (searches that prune differently, such as the reference bound
  providers): same skyline costs with the same multiplicities, and
  identical node sequences wherever a cost is unique — only which
  equal-cost alternate survives may differ (with the graph at hand,
  divergent representatives are accepted exactly when both walks price
  to the claimed cost);
* :func:`index_identity_errors` — two backbone indexes are the same
  index: labels, top graph, provenance, level statistics and the top
  graph's CSR arrays (the maintained-index contract).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

from repro.eval.metrics import rac
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import dominates
from repro.paths.path import Path

# Parallel-edge cost combinations explored per walk before the pricing
# check gives up; real qa graphs stay far below this.
_MAX_ACHIEVABLE = 4096

_TOLERANCE = 1e-6


def path_errors(
    graph: MultiCostGraph,
    path: Path,
    *,
    source: int | None = None,
    target: int | None = None,
    tolerance: float = _TOLERANCE,
) -> list[str]:
    """Problems with one returned path: endpoints, walk, and pricing."""
    problems: list[str] = []
    if source is not None and path.source != source:
        problems.append(
            f"path starts at {path.source}, query source is {source}"
        )
    if target is not None and path.target != target:
        problems.append(
            f"path ends at {path.target}, query target is {target}"
        )
    if path.is_trivial():
        if any(abs(c) > tolerance for c in path.cost):
            problems.append(
                f"trivial path carries non-zero cost {path.cost}"
            )
        return problems
    achievable: set[tuple[float, ...]] = {(0.0,) * graph.dim}
    for u, v in zip(path.nodes, path.nodes[1:]):
        if not graph.has_edge(u, v):
            problems.append(f"edge ({u}, {v}) does not exist in the graph")
            return problems
        options = graph.edge_costs(u, v)
        achievable = {
            tuple(a + o for a, o in zip(acc, option))
            for acc in achievable
            for option in options
        }
        if len(achievable) > _MAX_ACHIEVABLE:
            problems.append(
                f"parallel-edge blow-up pricing walk {path.nodes}"
            )
            return problems
    if not any(
        all(abs(a - c) <= tolerance for a, c in zip(candidate, path.cost))
        for candidate in achievable
    ):
        problems.append(
            f"cost {path.cost} is not achievable along {path.nodes}"
        )
    return problems


def non_dominance_errors(paths: Sequence[Path]) -> list[str]:
    """Pairs in which one path strictly dominates another.

    Exactly equal cost vectors are fine — the paper's result-set
    semantics keep equal-cost alternatives — so only strict dominance
    (every dimension <=, at least one <) is a violation.
    """
    problems: list[str] = []
    for i, a in enumerate(paths):
        for b in paths[i + 1 :]:
            if dominates(a.cost, b.cost):
                problems.append(f"{a.cost} dominates {b.cost} in one result set")
            elif dominates(b.cost, a.cost):
                problems.append(f"{b.cost} dominates {a.cost} in one result set")
    return problems


def _tol(value: float, tolerance: float) -> float:
    # Backbone label pricing and edge-by-edge BBS pricing sum the same
    # terms in different orders, so equal paths can differ by a few
    # ULPs; comparisons against the exact front use a relative band.
    return max(tolerance, tolerance * abs(value))


def _dominates_beyond_tolerance(
    a: Sequence[float], b: Sequence[float], tolerance: float
) -> bool:
    """Strict dominance that survives float summation-order noise."""
    strictly_better = False
    for x, y in zip(a, b, strict=True):
        if x > y + _tol(y, tolerance):
            return False
        if x < y - _tol(y, tolerance):
            strictly_better = True
    return strictly_better


def _covered_within_tolerance(
    cost: Sequence[float], exact_costs: Sequence[Sequence[float]],
    tolerance: float,
) -> bool:
    """True when some exact cost dominates-or-equals ``cost`` modulo noise."""
    return any(
        all(
            e <= c + _tol(c, tolerance)
            for e, c in zip(exact_cost, cost, strict=True)
        )
        for exact_cost in exact_costs
    )


def approximation_errors(
    approximate: Sequence[Path],
    exact: Sequence[Path],
    *,
    rac_bound: float | None = None,
    tolerance: float = 1e-9,
) -> list[str]:
    """Dominance-consistency of an approximate set with the exact skyline.

    Three one-sided checks (the approximate set may legitimately be a
    strict subset/superset in cost space, so set equality is *not*
    required):

    * no approximate cost strictly dominates an exact skyline cost —
      otherwise the "exact" search missed a better path;
    * every approximate cost is dominated-or-equalled by some exact
      cost — a valid path can never beat the true skyline, so an
      uncovered cost means the approximate path is mispriced or the
      exact set is incomplete;
    * when both sets are non-empty and ``rac_bound`` is given, every
      RAC component stays within it (the paper's quality metric).
    """
    problems: list[str] = []
    if exact and not approximate:
        problems.append(
            f"approximate set is empty while the exact skyline has "
            f"{len(exact)} paths"
        )
        return problems
    exact_costs = [path.cost for path in exact]
    for path in approximate:
        for exact_cost in exact_costs:
            if _dominates_beyond_tolerance(path.cost, exact_cost, tolerance):
                problems.append(
                    f"approximate cost {path.cost} dominates exact "
                    f"skyline cost {exact_cost}"
                )
        if exact_costs and not _covered_within_tolerance(
            path.cost, exact_costs, tolerance
        ):
            problems.append(
                f"approximate cost {path.cost} is not covered by any "
                f"exact skyline cost"
            )
    if rac_bound is not None and approximate and exact:
        ratios = rac(list(approximate), list(exact))
        for i, ratio in enumerate(ratios):
            # A zero exact mean (trivial same-node query) yields an
            # infinite ratio with no quality signal; genuine quality
            # loss on a priced dimension is always finite.
            if math.isfinite(ratio) and ratio > rac_bound:
                problems.append(
                    f"RAC[{i}] = {ratio:.3f} exceeds the bound {rac_bound}"
                )
    return problems


def _answer_key(paths: Sequence[Path]) -> Counter:
    return Counter((path.cost, path.nodes) for path in paths)


def identical_answer_errors(
    label_a: str,
    paths_a: Sequence[Path],
    label_b: str,
    paths_b: Sequence[Path],
) -> list[str]:
    """Two variants required to agree bit-for-bit, compared as
    multisets of (cost vector, node sequence) pairs."""
    key_a, key_b = _answer_key(paths_a), _answer_key(paths_b)
    if key_a == key_b:
        return []
    only_a = list((key_a - key_b).elements())
    only_b = list((key_b - key_a).elements())
    detail = []
    if only_a:
        detail.append(f"only in {label_a}: {only_a[:3]}")
    if only_b:
        detail.append(f"only in {label_b}: {only_b[:3]}")
    return [
        f"{label_a} and {label_b} disagree "
        f"({len(paths_a)} vs {len(paths_b)} paths; {'; '.join(detail)})"
    ]


def answer_set_errors(
    label_a: str,
    paths_a: Sequence[Path],
    label_b: str,
    paths_b: Sequence[Path],
    graph: MultiCostGraph | None = None,
) -> list[str]:
    """Two variants required to return the same *answer set*.

    This is the contract between searches that expand labels in
    different orders, such as the reference BBS under its zero or
    landmark bound providers (:mod:`repro.qa.bounds`) against exact
    bounds: the answers must match as a set of (cost vector, node
    sequence) pairs, but among *exactly* equal-cost alternatives the
    surviving representative may differ.  Concretely:

    * the skyline cost sets must be equal, with equal multiplicities
      per cost vector (``keep_equal_costs`` semantics are preserved);
    * wherever a cost vector is held by exactly one path on both
      sides, the node sequences must match too — unless ``graph`` is
      given and *both* walks price to that cost in it.  Engines prune
      equal-cost duplicates keep-first, so when the graph holds two
      distinct walks of identical cost each engine may legitimately
      keep a different one; with the graph at hand the checker verifies
      the divergent walk really achieves the claimed cost instead of
      flagging the permitted divergence.

    Counters and expansion statistics are explicitly out of scope —
    see the "counters may differ" tier note in the batch kernel.
    """
    problems = cost_skyline_errors(label_a, paths_a, label_b, paths_b)
    if problems:
        # A cost-front disagreement subsumes any per-path detail.
        return problems

    def grouped(paths: Sequence[Path]) -> dict:
        groups: dict[tuple[float, ...], list[Path]] = {}
        for path in paths:
            groups.setdefault(path.cost, []).append(path)
        return groups

    groups_a, groups_b = grouped(paths_a), grouped(paths_b)
    problems = []
    for cost, group_a in sorted(groups_a.items()):
        group_b = groups_b.get(cost, [])
        if len(group_a) != len(group_b):
            problems.append(
                f"{label_a} keeps {len(group_a)} paths at cost {cost}, "
                f"{label_b} keeps {len(group_b)}"
            )
        elif len(group_a) == 1 and group_a[0].nodes != group_b[0].nodes:
            if graph is not None and not path_errors(
                graph, group_a[0]
            ) and not path_errors(graph, group_b[0]):
                continue  # distinct but genuine equal-cost walks
            problems.append(
                f"unique-cost answers disagree at {cost}: "
                f"{label_a} {group_a[0].nodes} vs {label_b} {group_b[0].nodes}"
            )
    return problems


def cost_skyline_errors(
    label_a: str,
    paths_a: Sequence[Path],
    label_b: str,
    paths_b: Sequence[Path],
) -> list[str]:
    """Two variants required to agree on the *set* of skyline costs.

    Weaker than :func:`identical_answer_errors`: retained equal-cost
    alternatives may differ (their survival depends on search order),
    but the cost front itself must match.
    """
    costs_a = {path.cost for path in paths_a}
    costs_b = {path.cost for path in paths_b}
    if costs_a == costs_b:
        return []
    return [
        f"{label_a} and {label_b} disagree on skyline costs "
        f"(only in {label_a}: {sorted(costs_a - costs_b)[:3]}; "
        f"only in {label_b}: {sorted(costs_b - costs_a)[:3]})"
    ]


def _label_rows(level) -> list:
    """A level's labels as nested lists, in storage order."""
    return [
        (
            node,
            [
                (entrance, [(p.nodes, p.cost) for p in bucket])
                for entrance, bucket in level.get(node).entrances.items()
            ],
        )
        for node in level.nodes()
    ]


def index_identity_errors(expected, actual) -> list[str]:
    """Where two backbone indexes differ; empty when they are identical.

    Compares, level by level, every label (node -> entrance -> paths
    with their costs, all in storage order), the top graph's nodes and
    per-pair parallel costs, the shortcut provenance, the structural
    per-level build statistics, and the top graph's CSR arrays.
    """
    problems: list[str] = []
    if len(expected.levels) != len(actual.levels):
        problems.append(
            f"height: {len(expected.levels)} vs {len(actual.levels)}"
        )
    for i, (ours, theirs) in enumerate(zip(expected.levels, actual.levels)):
        if _label_rows(ours) != _label_rows(theirs):
            problems.append(f"level {i}: labels differ")
    top_a, top_b = expected.top_graph, actual.top_graph
    if sorted(top_a.nodes()) != sorted(top_b.nodes()):
        problems.append("top graph: node sets differ")
    edges_a = {pair: top_a.edge_costs(*pair) for pair in top_a.edge_pairs()}
    edges_b = {pair: top_b.edge_costs(*pair) for pair in top_b.edge_pairs()}
    if edges_a != edges_b:
        problems.append("top graph: edges differ")
    if expected.provenance != actual.provenance:
        problems.append("provenance differs")
    if expected.build_stats.levels != actual.build_stats.levels:
        problems.append(
            f"level stats: {expected.build_stats.levels} vs "
            f"{actual.build_stats.levels}"
        )
    csr_a, csr_b = expected.csr_top(), actual.csr_top()
    for name in ("node_ids", "indptr", "indices", "costs"):
        a, b = getattr(csr_a, name), getattr(csr_b, name)
        if a.shape != b.shape or not (a == b).all():
            problems.append(f"csr_top.{name} differs")
    return problems
