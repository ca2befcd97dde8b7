"""The three serving workloads: inputs, cold set-up, client calls, checks.

Every workload derives all of its inputs from the run seed before any
clock starts, then drives the program only through its public serving
API: ``SkylineQueryEngine``, ``execute_batch``, ``MaintainableIndex``
and ``BackboneIndex.save``.  No tier knob (kernel engine, bound
provider, crossover, build engine or workers) is ever passed, so the
benchmark measures what a user gets by default.  See README.md for why
each workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import BackboneParams, build_backbone_index
from repro.core.maintenance import MaintainableIndex
from repro.datasets import load, load_subgraph
from repro.eval import random_queries
from repro.qa.invariants import (
    answer_set_errors,
    approximation_errors,
    non_dominance_errors,
    path_errors,
)
from repro.search import skyline_paths
from repro.service import SkylineQueryEngine, execute_batch

# The scaled paper parameters of benchmarks/conftest.py (paper m_max=400
# column, m_min=30 and p=0.01 scaled to the ~100x smaller stand-ins).
PARAMS = BackboneParams(m_max=40, m_min=4, p=0.12)

# execute_batch's thread-pool width: never more than the box's cores.
# Every exact-batch call fuses its pairs into one traversal, which
# execute_batch runs inline, so in practice each call is one thread.
MAX_WORKERS = 2


def derive_seed(seed: int, label: str) -> int:
    """An independent, process-stable 63-bit seed for one input stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def unique_pairs(queries, exclude=()) -> list[tuple[int, int]]:
    """Query pairs in draw order with repeats (and ``exclude``) removed."""
    seen = set(exclude)
    pairs = []
    for query in queries:
        pair = (query.source, query.target)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def banded_pairs(graph, count, rng, low, high, exclude=()):
    """``count`` distinct pairs; the i-th lies ``low + i % (high - low + 1)``
    BFS hops apart.

    Exact skyline cost grows steeply with distance: on C9_NY~1200 a
    10-hop pair answers in ~10 ms and a 100-hop pair in seconds, so
    unbanded ``min_hops=10`` draws make a run's total work depend on
    the one or two far pairs the seed happens to pick.  Giving every
    position a fixed distance keeps the same profile under every seed.
    """
    nodes = sorted(graph.nodes())
    seen = set(exclude)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        want = low + len(pairs) % (high - low + 1)
        source = nodes[rng.randrange(len(nodes))]
        hops = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if hops[node] >= want:
                continue
            for neighbor in graph.neighbors(node):
                if neighbor not in hops:
                    hops[neighbor] = hops[node] + 1
                    queue.append(neighbor)
        band = sorted(n for n, h in hops.items() if h == want)
        if not band:
            continue
        pair = (source, band[rng.randrange(len(band))])
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def answer_problems(graph, source, target, paths, walks=True) -> list[str]:
    """Problems of one answer: every path, then mutual non-dominance.

    ``walks=False`` is for backbone (approx) answers, whose paths step
    over summarization shortcuts: pricing them needs the index's
    cost-aware ``expand_path``, which on C9_CTR takes up to tens of
    seconds for one answer.  Those paths are checked for endpoints and
    a finite, non-negative cost vector of the graph's dimension.
    """
    if not paths:
        return ["empty answer"]
    problems = []
    for path in paths:
        if walks:
            problems += path_errors(graph, path, source=source, target=target)
            continue
        if (path.source, path.target) != (source, target):
            problems.append(
                f"path runs {path.source}->{path.target}, "
                f"query is {source}->{target}"
            )
        if len(path.cost) != graph.dim or not all(
            0.0 <= c < math.inf for c in path.cost
        ):
            problems.append(f"bad cost vector {path.cost}")
    return problems + non_dominance_errors(paths)


@dataclass
class Step:
    """One client call: ``op`` is "query", "batch" or "update"."""

    op: str
    pairs: list[tuple[int, int]] = field(default_factory=list)
    mode: str = "auto"
    edge: tuple[int, int] | None = None
    factor: float = 1.0

    @property
    def requests(self) -> int:
        return len(self.pairs)


@dataclass
class State:
    """What one cold set-up leaves behind for serving."""

    engine: SkylineQueryEngine
    timings: dict
    maintainer: MaintainableIndex | None = None


class Workload:
    """Base: subclasses fill in inputs, set-up, the step stream and checks."""

    name = ""
    # Cold set-ups per run; setup_s is their median.
    setups = 16
    # Passes over the run's script after each set-up.  Passes after
    # the first on one engine start from a cleared result cache, so
    # every pass does the same work.
    passes = 1
    # Steps per second of serving on the reference box, used only to
    # size the script so that all passes together serve about
    # ``--seconds``.
    rate = 100.0
    # Steps whose counts the traced run reports (a fixed prefix of the
    # stream, so the counts repeat exactly for one seed).
    count_steps = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, span) -> State:  # pragma: no cover - abstract
        raise NotImplementedError

    def steps(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def script(self, seconds: float, *, traced: bool = False) -> list[Step]:
        """The run's fixed step list: a prefix of ``steps()`` long
        enough for ``seconds`` of serving spread over all passes, and
        in a traced run for the traced counts."""
        length = math.ceil(self.rate * seconds / (self.setups * self.passes))
        if traced:
            length = max(length, self.count_steps)
        return list(itertools.islice(self.steps(), length))

    def reset(self, state: State) -> None:
        """Make the next pass on ``state`` repeat the previous one."""
        state.engine.cache.clear()

    def call(self, state: State, step: Step):
        """Run one step through the public API; returns its responses."""
        engine = state.engine
        if step.op == "query":
            (source, target) = step.pairs[0]
            return [engine.query(source, target, mode=step.mode)]
        if step.op == "batch":
            result = execute_batch(
                engine, step.pairs, mode=step.mode, max_workers=MAX_WORKERS
            )
            return result.responses
        maintainer = state.maintainer
        u, v = step.edge
        old = maintainer.graph.edge_costs(u, v)[0]
        maintainer.update_edge_cost(
            u, v, old, tuple(c * step.factor for c in old)
        )
        return []

    def check(self, state: State, step: Step, responses, full=True) -> list:
        """``(position, problem)`` for each bad answer of one step.

        ``full=False`` skips the comparisons with a reference search;
        passes after the first are instead compared with the first.
        """
        problems = []
        engine = state.engine
        for position, response in enumerate(responses):
            source, target = step.pairs[position]
            if response.truncated:
                problems.append((position, "truncated"))
            problems += [
                (position, p)
                for p in answer_problems(
                    engine.graph, source, target, response.paths,
                    walks=response.mode != "approx",
                )
            ]
        return problems


class ApproxUnique(Workload):
    """Alg. 3 over a deployed index: unique pairs, approx mode, serial."""

    name = "approx-unique"
    # Set-up (build, save, load, warm) takes ~3 s, so one engine serves
    # several passes.
    setups = 3
    passes = 5
    rate = 300.0
    count_steps = 400
    # Distinct pairs; the result cache is cleared between passes, so
    # it only misses.
    pool_size = 1024
    warmup_size = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph = load("C9_CTR")
        self.warmup = unique_pairs(
            random_queries(
                self.graph, self.warmup_size,
                seed=derive_seed(seed, "warmup"), min_hops=8,
            )
        )
        self.pool = unique_pairs(
            random_queries(
                self.graph, self.pool_size + 16,
                seed=derive_seed(seed, "pool"), min_hops=8,
            ),
            exclude=self.warmup,
        )[: self.pool_size]
        self.store_path = workdir / "index.rbi"

    def setup(self, span):
        timings = {}
        started = time.perf_counter()
        with span("build"):
            index = build_backbone_index(self.graph, PARAMS)
        timings["build_s"] = time.perf_counter() - started
        timings["label_paths"] = sum(
            level.label_paths for level in index.build_stats.levels
        )
        started = time.perf_counter()
        with span("save"):
            index.save(self.store_path)
        timings["save_s"] = time.perf_counter() - started
        del index
        started = time.perf_counter()
        with span("load"):
            engine = SkylineQueryEngine(self.graph, params=PARAMS)
            engine.warm_from_store(self.store_path)
        timings["load_s"] = time.perf_counter() - started
        with span("warm"):
            timings.update(engine.warm())
        started = time.perf_counter()
        with span("warmup"):
            for source, target in self.warmup:
                engine.query(source, target, mode="approx")
        timings["warmup_s"] = time.perf_counter() - started
        return State(engine, timings)

    def steps(self):
        for source, target in self.pool:
            yield Step("query", [(source, target)], mode="approx")


class ExactBatch(Workload):
    """The fused exact kernel: fixed-size batches of unique exact pairs."""

    name = "exact-batch"
    rate = 10.0
    count_steps = 12
    batch_size = 8
    pool_size = 1100
    hop_band = (10, 40)
    # Every n-th pool pair (seed-chosen offset) is re-answered by
    # reference BBS.
    sample_every = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph = load_subgraph("C9_NY", 1200)
        rng = random.Random(derive_seed(seed, "pairs"))
        low, high = self.hop_band
        self.warmup = banded_pairs(self.graph, self.batch_size, rng, low, high)
        self.pool = banded_pairs(
            self.graph, self.pool_size, rng, low, high, exclude=self.warmup
        )
        offset = derive_seed(seed, "sample") % self.sample_every
        self.sampled = set(self.pool[offset :: self.sample_every])

    def setup(self, span):
        timings = {}
        with span("engine"):
            engine = SkylineQueryEngine(self.graph, params=PARAMS)
        with span("warm"):
            timings.update(engine.warm())
        timings["build_s"] = timings["index_seconds"]
        timings["label_paths"] = sum(
            level.label_paths for level in engine.index.build_stats.levels
        )
        started = time.perf_counter()
        with span("warmup"):
            execute_batch(
                engine, self.warmup, mode="exact", max_workers=MAX_WORKERS
            )
        timings["warmup_s"] = time.perf_counter() - started
        return State(engine, timings)

    def steps(self):
        size = self.batch_size
        for start in itertools.cycle(range(0, len(self.pool) - size + 1, size)):
            yield Step("batch", self.pool[start : start + size], mode="exact")

    def check(self, state, step, responses, full=True):
        """Also re-answer the seed-fixed sample with reference BBS."""
        problems = super().check(state, step, responses)
        if not full:
            return problems
        for position, response in enumerate(responses):
            pair = step.pairs[position]
            if pair in self.sampled:
                reference = skyline_paths(self.graph, *pair)
                problems += [
                    (position, p)
                    for p in answer_set_errors(
                        "served", response.paths,
                        "reference", reference.paths, graph=self.graph,
                    )
                ]
        return problems


class Churn(Workload):
    """Reads on a Zipf hot set beside edge-cost updates."""

    name = "churn"
    setups = 10
    rate = 100.0
    count_steps = 250
    # Large enough that about a quarter of reads hit, so the median
    # read sits mid-way through the approx misses instead of on the
    # edge between hits and misses; small enough to fit the cache.
    hot_size = 384
    zipf_exponent = 1.0
    reads_per_update = 24
    # Short pairs: their exact answers cost 5-12 ms each, so the handful
    # of top-ranked exact pairs a seed draws cannot dominate a run.
    hop_band = (10, 20)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph = load_subgraph("C9_NY", 1200)
        rng = random.Random(derive_seed(seed, "hot"))
        low, high = self.hop_band
        self.warmup = banded_pairs(self.graph, 8, rng, low, high)
        self.hot = banded_pairs(
            self.graph, self.hot_size, rng, low, high, exclude=self.warmup
        )
        # Every fourth Zipf rank, from the second, asks for exact.  The
        # phase is fixed: with Zipf weights, a seed-chosen phase would
        # move the exact share of reads between about 0.17 and 0.37.
        self.modes = [
            "exact" if rank % 4 == 1 else "auto"
            for rank in range(self.hot_size)
        ]
        self.weights = [
            1.0 / rank ** self.zipf_exponent
            for rank in range(1, self.hot_size + 1)
        ]
        self.edges = sorted({(u, v) for u, v, _ in self.graph.edges()})

    def setup(self, span):
        timings = {}
        started = time.perf_counter()
        with span("maintainer"):
            maintainer = MaintainableIndex(self.graph, PARAMS)
        timings["build_s"] = time.perf_counter() - started
        timings["label_paths"] = sum(
            level.label_paths
            for level in maintainer.index.build_stats.levels
        )
        with span("engine"):
            engine = SkylineQueryEngine(maintainer=maintainer, params=PARAMS)
        with span("warm"):
            timings.update(engine.warm())
        started = time.perf_counter()
        with span("warmup"):
            for i, (source, target) in enumerate(self.warmup):
                engine.query(
                    source, target, mode="exact" if i % 4 == 0 else "auto"
                )
        timings["warmup_s"] = time.perf_counter() - started
        return State(engine, timings, maintainer)

    def steps(self):
        rng = random.Random(derive_seed(self.seed, "script"))
        positions = range(self.hot_size)
        for i in itertools.count(1):
            if i % (self.reads_per_update + 1) == 0:
                edge = self.edges[rng.randrange(len(self.edges))]
                yield Step("update", edge=edge, factor=rng.choice((0.8, 1.25)))
            else:
                [k] = rng.choices(positions, weights=self.weights)
                yield Step("query", [self.hot[k]], mode=self.modes[k])

    def check(self, state, step, responses, full=True):
        """Also staleness, and with ``full`` every computed approx
        answer against reference BBS on the current graph."""
        problems = super().check(state, step, responses)
        current = state.maintainer.generation
        for position, response in enumerate(responses):
            if response.generation != current:
                problems.append((
                    position,
                    f"stale: generation {response.generation}, "
                    f"maintainer at {current}",
                ))
            if full and response.mode == "approx" and not response.cache_hit:
                reference = skyline_paths(
                    state.engine.graph, *step.pairs[position]
                )
                problems += [
                    (position, p)
                    for p in approximation_errors(
                        response.paths, reference.paths
                    )
                ]
        return problems


WORKLOADS = {cls.name: cls for cls in (ApproxUnique, ExactBatch, Churn)}
