"""Multi-process serving over zero-copy shared CSR snapshots.

One process cannot push the flat kernels past the GIL; this package
fans serving out over a pool of worker processes that all read the
*same* generation-stamped :class:`~repro.accel.csr.CSRSnapshot` —
published once into ``multiprocessing.shared_memory`` and attached
zero-copy by every worker:

* :mod:`repro.mp.shm` — publishing snapshots into named shared-memory
  segments and attaching back as read-only array views.
* :mod:`repro.mp.worker` — the worker process: attach, build a local
  :class:`~repro.service.engine.SkylineQueryEngine` around the shared
  buffers, serve query groups, ship metrics dumps.
* :mod:`repro.mp.dispatcher` — :class:`MPBatchServer`: source-grouped
  sharding, bounded-inflight admission control with backpressure,
  per-worker metrics rolled up into the parent registry, and the
  generation-swap protocol (maintenance publishes a new shared
  snapshot; batches route to the new cohort at batch boundaries; old
  segments are refcounted and unlinked once drained).

See ``docs/multiprocess.md`` for the architecture and tuning notes.
"""

from repro.mp.dispatcher import (
    MPBatchResult,
    MPBatchServer,
    MPQueryError,
    MPServingError,
)
from repro.mp.shm import SharedCSR

__all__ = [
    "MPBatchResult",
    "MPBatchServer",
    "MPQueryError",
    "MPServingError",
    "SharedCSR",
]
