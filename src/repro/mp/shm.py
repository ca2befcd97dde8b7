"""Publishing CSR snapshots into shared memory and attaching back.

A :class:`SharedCSR` owns (or attaches to) one named POSIX
shared-memory segment holding a snapshot's raw array pack
(:mod:`repro.accel.blob`).  The publisher pays the one copy — arrays
into the segment — and every attacher gets read-only numpy views of
the *same* physical pages: attaching is O(header), independent of the
snapshot size, which is what keeps per-worker RSS flat.

``SharedCSR.attach(name)`` opens the segment by name (spawned
workers, other processes).  Forked workers inherit the publisher's
mapping and skip even this step.

Segment lifetime is explicit: the publisher ``unlink()``s when the
generation drains (see :class:`repro.mp.dispatcher.MPBatchServer`);
attachers only ever ``close()``.
"""

from __future__ import annotations

from multiprocessing import shared_memory

from repro.accel.csr import CSRSnapshot
from repro.errors import ReproError


class MPServingError(ReproError):
    """A multi-process serving failure (dead worker, bad segment, ...)."""


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach an *attached* segment from this process's resource tracker.

    Before Python 3.13 every ``SharedMemory`` registers with the
    resource tracker, even attach-only handles, so an attaching process
    exiting would tear the segment down underneath the publisher.
    Unregistering attach-only handles restores publisher-owns-lifetime
    semantics; the private API is wrapped defensively so a future
    stdlib that fixes this (or renames internals) degrades to a
    harmless no-op.
    """
    try:  # pragma: no cover - depends on stdlib internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


# Segments whose close() found live numpy views: parked here so the
# stdlib SharedMemory.__del__ never runs against exported buffers
# (which would raise an unraisable BufferError mid-GC).  The mappings
# are reclaimed when the process exits — same lifetime the live views
# were forcing anyway.
_parked_segments: list[shared_memory.SharedMemory] = []


class SharedCSR:
    """One CSR snapshot published in a named shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self._snapshot: CSRSnapshot | None = None
        self._unlinked = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def publish(
        cls, snapshot: CSRSnapshot, *, name: str | None = None
    ) -> "SharedCSR":
        """Copy ``snapshot`` into a new shared segment (publisher side)."""
        size = snapshot.raw_nbytes()
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except OSError as error:
            raise MPServingError(
                f"cannot create {size}-byte shared segment: {error}"
            ) from error
        snapshot.write_raw_into(shm.buf)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedCSR":
        """Attach to an already published segment by name (worker side)."""
        try:
            shm = shared_memory.SharedMemory(name=name)
        except OSError as error:
            raise MPServingError(
                f"cannot attach shared segment {name!r}: {error}"
            ) from error
        _untrack(shm)
        return cls(shm, owner=False)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name workers attach with."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """The segment size in bytes."""
        return self._shm.size

    def snapshot(self) -> CSRSnapshot:
        """The shared snapshot: read-only views into the segment.

        Built at most once per handle; repeated calls return the same
        object so memoized python-list mirrors are shared too.
        """
        if self._snapshot is None:
            self._snapshot = CSRSnapshot.from_raw_buffer(self._shm.buf)
        return self._snapshot

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (segment survives for others).

        Live numpy views keep the underlying pages mapped until they
        are garbage-collected; closing is therefore best-effort.
        """
        self._snapshot = None
        try:
            self._shm.close()
        except BufferError:
            # Arrays still alias the buffer somewhere in this process.
            # Park the handle so its __del__ never races those views;
            # the mapping goes away when the process does.
            _parked_segments.append(self._shm)

    def unlink(self) -> None:
        """Remove the segment system-wide (publisher only, once)."""
        if not self._owner:
            raise MPServingError(
                f"segment {self.name!r} was attached, not published; "
                f"only the publisher may unlink it"
            )
        if not self._unlinked:
            self._unlinked = True
            # A same-process attacher's _untrack() may have removed this
            # segment's resource-tracker entry; re-register so unlink's
            # own unregister finds it (registration is idempotent).
            try:  # pragma: no cover - depends on stdlib internals
                from multiprocessing import resource_tracker

                resource_tracker.register(self._shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
            self._shm.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "publisher" if self._owner else "attached"
        return f"SharedCSR({self.name!r}, {role}, {self.nbytes} bytes)"
