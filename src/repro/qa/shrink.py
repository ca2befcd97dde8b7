"""Minimizing reducer: shrink a failing (graph, query) pair.

A fuzz discrepancy on a 70-node network is a poor debugging artifact;
this module applies greedy delta debugging to the graph's edge list —
drop half, then a quarter, ..., then single edge entries — keeping any
removal under which the failure predicate still fires, until no single
edge can be removed.  Nodes disappear implicitly when their last edge
does (query endpoints are pinned).

The default predicate re-runs the *static* differential battery on one
query (exact BBS vs. a freshly built backbone index: validity, mutual
non-dominance, dominance consistency); maintenance- or engine-level
failures are reported unshuffled with their seed and op list instead,
since replaying an update script against a shrinking graph rarely
stays meaningful.

:func:`emit_fixture` renders the reduced case as a self-contained
pytest function, ready to paste into ``tests/`` as a regression test.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.builder import build_backbone_index
from repro.core.params import BackboneParams
from repro.core.query import backbone_query
from repro.graph.mcrn import MultiCostGraph
from repro.qa.invariants import (
    approximation_errors,
    non_dominance_errors,
    path_errors,
)
from repro.paths.path import Path
from repro.search.bbs import skyline_paths

Edge = tuple[int, int, tuple[float, ...]]
Predicate = Callable[[MultiCostGraph, int, int], list[str]]


@dataclass
class ShrunkCase:
    """The reduced reproduction of one failing check."""

    edges: list[Edge]
    source: int
    target: int
    dim: int
    problems: list[str] = field(default_factory=list)
    trials: int = 0

    @property
    def nodes(self) -> set[int]:
        found = {self.source, self.target}
        for u, v, _ in self.edges:
            found.update((u, v))
        return found


def static_differential_problems(
    graph: MultiCostGraph,
    source: int,
    target: int,
    *,
    params: BackboneParams | None = None,
    rac_bound: float | None = None,
) -> list[str]:
    """The default shrink predicate: one query, exact vs. backbone."""
    if not (graph.has_node(source) and graph.has_node(target)):
        return []
    params = params if params is not None else BackboneParams(
        m_max=10, m_min=2, p=0.2
    )
    exact = skyline_paths(graph, source, target).paths
    index = build_backbone_index(graph, params)
    result = backbone_query(index, source, target)
    problems: list[str] = []
    for path in result.paths:
        walk = path
        if not path.is_trivial():
            # Answers may traverse aggressive-summarization shortcuts;
            # validity is judged on the expanded original-graph walk.
            try:
                walk = Path(index.expand_path(path).nodes, path.cost)
            except Exception as error:
                problems.append(f"expansion of {path} failed: {error}")
                continue
        problems.extend(path_errors(graph, walk, source=source, target=target))
    problems.extend(non_dominance_errors(result.paths))
    problems.extend(
        approximation_errors(result.paths, exact, rac_bound=rac_bound)
    )
    return problems


def _build(edges: Sequence[Edge], source: int, target: int, dim: int):
    graph = MultiCostGraph(dim)
    graph.add_node(source)
    graph.add_node(target)
    for u, v, cost in edges:
        graph.add_edge(u, v, cost)
    return graph


def shrink_case(
    graph: MultiCostGraph,
    source: int,
    target: int,
    *,
    predicate: Predicate | None = None,
    max_trials: int = 2000,
) -> ShrunkCase | None:
    """Reduce the graph while the predicate keeps reporting problems.

    Returns None when the predicate does not fire on the full input
    (nothing to shrink).  Deterministic: edge order comes from the
    graph, chunk sweeps are in order, and the first successful removal
    in a sweep is taken.
    """
    predicate = (
        predicate if predicate is not None else static_differential_problems
    )
    edges: list[Edge] = [(u, v, tuple(c)) for u, v, c in graph.edges()]
    dim = graph.dim
    try:
        problems = predicate(
            _build(edges, source, target, dim), source, target
        )
    except Exception as error:  # a crash is also a reproduction
        problems = [f"predicate raised {type(error).__name__}: {error}"]
    if not problems:
        return None

    trials = 0
    chunk = max(1, len(edges) // 2)
    while chunk >= 1 and trials < max_trials:
        reduced_this_pass = False
        start = 0
        while start < len(edges) and trials < max_trials:
            candidate = edges[:start] + edges[start + chunk :]
            trials += 1
            try:
                found = predicate(
                    _build(candidate, source, target, dim), source, target
                )
            except Exception as error:  # a crash is also a reproduction
                found = [f"predicate raised {type(error).__name__}: {error}"]
            if found:
                edges = candidate
                problems = found
                reduced_this_pass = True
                # Retry the same offset: the next chunk slid into place.
            else:
                start += chunk
        if chunk == 1 and not reduced_this_pass:
            break
        if not reduced_this_pass or chunk > len(edges):
            chunk = max(1, chunk // 2) if chunk > 1 else 0
    return ShrunkCase(
        edges=edges,
        source=source,
        target=target,
        dim=dim,
        problems=problems,
        trials=trials,
    )


_FIXTURE_TEMPLATE = '''\
"""Regression fixture generated by `repro qa shrink`{origin}.

Reproduces: {summary}
"""

from repro.core.builder import build_backbone_index
from repro.core.params import BackboneParams
from repro.core.query import backbone_query
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path
from repro.qa.invariants import (
    approximation_errors,
    non_dominance_errors,
    path_errors,
)
from repro.search.bbs import skyline_paths

EDGES = [
{edges}
]
SOURCE, TARGET = {source}, {target}
PARAMS = BackboneParams(m_max=10, m_min=2, p=0.2)


def {name}():
    graph = MultiCostGraph({dim})
    graph.add_node(SOURCE)
    graph.add_node(TARGET)
    for u, v, cost in EDGES:
        graph.add_edge(u, v, cost)
    exact = skyline_paths(graph, SOURCE, TARGET).paths
    index = build_backbone_index(graph, PARAMS)
    result = backbone_query(index, SOURCE, TARGET)
    problems = []
    for path in result.paths:
        walk = path
        if not path.is_trivial():
            walk = Path(index.expand_path(path).nodes, path.cost)
        problems += path_errors(graph, walk, source=SOURCE, target=TARGET)
    problems += non_dominance_errors(result.paths)
    problems += approximation_errors(result.paths, exact)
    assert not problems, problems
'''


def emit_fixture(
    shrunk: ShrunkCase,
    *,
    name: str = "test_qa_shrunk_regression",
    seed: int | None = None,
) -> str:
    """Render a shrunk case as a ready-to-paste pytest regression test."""
    edge_lines = "\n".join(
        f"    ({u}, {v}, {cost!r})," for u, v, cost in shrunk.edges
    )
    summary = shrunk.problems[0] if shrunk.problems else "(no problem recorded)"
    return _FIXTURE_TEMPLATE.format(
        origin=f" (seed {seed})" if seed is not None else "",
        summary=summary,
        edges=edge_lines,
        source=shrunk.source,
        target=shrunk.target,
        dim=shrunk.dim,
        name=name,
    )
