"""Cluster-parallel label construction workers.

Index construction spends a large share of its time in
:func:`repro.core.labels.run_label_task` — one independent bundle of
one-to-all searches per condensed cluster.  Tasks are pure in their
arguments (the costed removed edges are captured before the level
graph mutates) and clusters are node-disjoint, so a condensing round
can hand its whole task list to a pool of forked workers and merge the
results **in task submission order** — which reproduces the inline
serial construction path for path, label for label.

The pool is deliberately simpler than the serving-side
:mod:`repro.mp.worker` machinery: tasks are small and self-contained,
so plain ``multiprocessing.Pool`` pickling beats shared-memory
plumbing here.  Fork start is preferred (workers inherit nothing they
need beyond the code), falling back to the platform default where fork
is unavailable.
"""

from __future__ import annotations

import multiprocessing

from repro.core.labels import LabelTask, run_label_task
from repro.errors import BuildError
from repro.paths.path import Path

Row = tuple[int, int, Path]


class BuildLabelPool:
    """A process pool executing :class:`LabelTask` batches.

    ``run`` returns one row list per task, ordered like the input —
    deterministic merge by cluster id regardless of which worker
    finished first.  Use as a context manager (or call :meth:`close`)
    so worker processes never outlive the build.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise BuildError(
                f"a build pool needs at least 2 workers, got {workers}"
            )
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            ctx = multiprocessing.get_context()
        self.workers = workers
        self._pool = ctx.Pool(workers)

    def run(self, tasks: list[LabelTask]) -> list[list[Row]]:
        """Execute tasks on the pool; results in submission order."""
        if not tasks:
            return []
        if len(tasks) == 1:
            # IPC for a lone task costs more than running it here.
            return [run_label_task(tasks[0])]
        return self._pool.map(run_label_task, tasks, chunksize=1)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "BuildLabelPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
