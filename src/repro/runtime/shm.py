"""Shared-memory column arena for the process executor.

Every :class:`~repro.core.columnar.ColumnarRapTree` column is exactly
one contiguous numpy array, which is precisely the shape
``multiprocessing.shared_memory`` hands out: a shard worker builds its
tree with :class:`ShmArena` as the column allocator, so every column —
and every ``_grow`` remap — lands in a ``SharedMemory`` segment the
parent can map by name. Snapshot folds then attach the quiesced
worker's segments read-only (:class:`ShmAttachment`) and wrap them via
``ColumnarRapTree.attach_columns`` without copying a single column.

This module is the **only** place in the package that may touch
``multiprocessing.shared_memory`` directly (RAP-LINT024 enforces
this), because the stdlib's lifecycle needs three corrections that
must not be scattered around call sites:

* **Ownership is manual.** CPython's ``resource_tracker`` registers
  every segment on *both* create and attach (3.9–3.12), then unlinks
  registered segments when the first process exits — which would tear
  shared columns out from under a still-running sibling and spam
  ``KeyError`` warnings at shutdown. Both sides here unregister
  immediately and own unlink explicitly: the worker unlinks what it
  created, the parent sweeps the name prefix as a crash backstop
  (:func:`sweep_prefix`).
* **Grow is remap, not resize.** POSIX shared memory cannot grow a
  mapping in place portably, so ``_grow`` re-allocates every column
  and copies the live prefix. The arena is a *slab* allocator: each
  ``SharedMemory`` segment is a bump-allocated slab holding many
  column regions (segment creation is three syscalls plus tracker
  traffic — per column per generation it dominated worker ingest), and
  a slab is retired only when its last live column has been remapped
  away: *unlinked immediately* (Linux keeps the mapping alive until
  the last unmap, so grow-copies still read it) but *closed only at
  quiescent points* (``reap_retired`` on sync, or ``close``). Closing
  earlier would unmap under the tree's feet: ``SharedMemory.close``
  only sees memoryview exports, and a numpy array built over
  ``segment.buf`` is **not** one — close unmaps immediately and the
  next column read is a segfault, not an exception.
* **Names are the contract.** Slabs are named ``<prefix>slab-g<n>``;
  the worker ships the current column table (slab name, dtype,
  capacity, byte offset) to the parent in its sync frame, and the
  parent never guesses — except in :func:`sweep_prefix`, which
  deliberately matches the whole prefix so even slabs orphaned
  mid-grow by a crash are reclaimed.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ShmArena", "ShmAttachment", "sweep_prefix"]

#: Where Linux exposes POSIX shared memory as files; the crash-backstop
#: sweep works on this directory directly so it needs no attach dance.
_SHM_DIR = "/dev/shm"


def _disown(shm: shared_memory.SharedMemory) -> shared_memory.SharedMemory:
    """Remove ``shm`` from the resource tracker's cleanup list.

    The tracker would otherwise unlink the segment when *any* process
    that touched it exits — exactly wrong for segments whose lifetime
    this module manages explicitly. Best-effort: a tracker that never
    saw the name (or is already gone at interpreter teardown) is fine.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001 - _name is the tracker-registered key; no public accessor exists
    except Exception:
        pass
    return shm


#: Smallest slab, in bytes. A fresh tree's full column set (thirteen
#: columns at the initial capacity) fits in one slab, and doubling from
#: here keeps a worker's lifetime segment count logarithmic in its peak
#: footprint — the whole point of slab allocation (see module
#: docstring).
_SLAB_MIN = 1 << 18

#: Column regions start on cache-line boundaries.
_ALIGN = 64


class ShmArena:
    """Worker-side slab allocator placing tree columns in shared memory.

    Pass :meth:`allocate` as the ``allocator=`` hook of
    :class:`~repro.core.columnar.ColumnarRapTree`: each call carves a
    zero-filled, cache-line-aligned region for the column out of the
    current slab segment, creating a new (doubled) slab when the
    current one is exhausted. A repeat call for the same column (a
    ``_grow`` remap) vacates the column's old region; when a slab's
    last region is vacated, the slab is retired — unlinked at once,
    closed only when :meth:`reap_retired` runs at a quiescent point
    (the caller's ``_grow`` still reads old arrays for the prefix
    copies *after* ``allocate`` returns, and close() would unmap them
    mid-copy).
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        # Slabs by index; retired entries become None. Parallel lists
        # hold each slab's byte size and live-region count.
        self._slabs: List[Optional[shared_memory.SharedMemory]] = []
        self._slab_size: List[int] = []
        self._slab_live: List[int] = []
        self._current = -1  # index of the bump slab, -1 before the first
        self._bump = 0  # next free byte offset in the bump slab
        # column name -> (slab index, byte offset, dtype, capacity).
        self._columns: Dict[str, Tuple[int, int, np.dtype, int]] = {}
        # Unlinked slabs awaiting a quiescent-point close (reap_retired);
        # closing any earlier unmaps memory the tree's grow-copy may
        # still be reading.
        self._retired: List[shared_memory.SharedMemory] = []
        self._closed = False

    def _retire_slab(self, index: int) -> None:
        segment = self._slabs[index]
        self._slabs[index] = None
        _unlink_quietly(segment)
        self._retired.append(segment)

    def allocate(self, name: str, dtype: np.dtype, capacity: int) -> np.ndarray:
        """Create (or grow-remap) the column ``name``; zero-filled.

        The zeros come from the kernel, not from a fill: every slab is
        a fresh segment sized with ``ftruncate``, which POSIX defines
        to read as zero bytes, and bump regions are never handed out
        twice. A grow-remap therefore reads zero past the prefix its
        caller copies. Not filling also means no page is faulted in
        before the column's first write: a fill would fault in all of
        a 4 MiB ring (~2.5 ms) inside ``open()``.
        """
        if self._closed:
            raise RuntimeError(f"ShmArena {self.prefix!r} is closed")
        dtype = np.dtype(dtype)
        nbytes = max(1, capacity * dtype.itemsize)
        if (
            self._current < 0
            or self._slab_size[self._current] - self._bump < nbytes
        ):
            size = _SLAB_MIN
            if self._current >= 0:
                size = max(size, 2 * self._slab_size[self._current])
            while size < nbytes:
                size *= 2
            segment = _disown(
                shared_memory.SharedMemory(
                    name=f"{self.prefix}slab-g{len(self._slabs)}",
                    create=True,
                    size=size,
                )
            )
            if self._current >= 0 and self._slab_live[self._current] == 0:
                # The outgoing bump slab was fully vacated by earlier
                # remaps in this grow pass; it only survived as the
                # bump target.
                self._retire_slab(self._current)
            self._current = len(self._slabs)
            self._slabs.append(segment)
            self._slab_size.append(size)
            self._slab_live.append(0)
            self._bump = 0
        index = self._current
        offset = self._bump
        self._bump = -(-(offset + nbytes) // _ALIGN) * _ALIGN
        self._slab_live[index] += 1
        previous = self._columns.get(name)
        self._columns[name] = (index, offset, dtype, capacity)
        if previous is not None:
            # The caller still holds the old array for the prefix copy;
            # if this vacated its slab, unlink now (the mapping survives
            # until unmapped) and close once the buffer export is gone.
            old_index = previous[0]
            self._slab_live[old_index] -= 1
            if self._slab_live[old_index] == 0 and old_index != index:
                self._retire_slab(old_index)
        return np.ndarray(
            capacity, dtype=dtype, buffer=self._slabs[index].buf, offset=offset
        )

    def segment_table(self) -> Dict[str, Tuple[str, str, int, int]]:
        """Current ``column -> (slab name, dtype str, capacity, offset)``.

        Plain strings and ints — the shape that crosses the pipe in a
        worker's sync frame for :class:`ShmAttachment` to consume.
        """
        return {
            name: (self._slabs[index].name, dtype.str, capacity, offset)
            for name, (index, offset, dtype, capacity)
            in self._columns.items()
        }

    def reap_retired(self) -> None:
        """Close retired slabs; call only when the tree is quiescent.

        After a ``_grow`` completes, the tree holds no reference into
        any retired slab (columns replaced, views rebound), so at a
        quiescent point — a worker sync, with no ingest in flight —
        the mappings can close safely. ``close()`` unmaps even under
        live numpy views (see module docstring), which is exactly why
        this must never run between an ``allocate`` and the end of the
        grow-copy that follows it.
        """
        still = []
        for segment in self._retired:
            try:
                segment.close()
            except (BufferError, ValueError):
                still.append(segment)
        self._retired = still

    def close(self) -> None:
        """Unlink every slab this arena ever created.

        Unlink is the part that matters for leaks — the backing memory
        of any mapping that cannot be closed yet (live ndarray views)
        is released when the process unmaps it at exit.
        """
        if self._closed:
            return
        self._closed = True
        for segment in self._slabs:
            if segment is None:
                continue
            _unlink_quietly(segment)
            try:
                segment.close()
            except (BufferError, ValueError):
                pass
        for segment in self._retired:
            try:
                segment.close()
            except (BufferError, ValueError):
                pass
        self._slabs.clear()
        self._slab_size.clear()
        self._slab_live.clear()
        self._columns.clear()
        self._retired.clear()


class ShmAttachment:
    """Parent-side read-only mapping of a worker's segment table.

    Attaches each named slab once (columns share slabs) and exposes
    ``column -> ndarray`` views at their recorded offsets;
    :meth:`close` drops the mappings (never unlinks — the worker owns
    segment lifetime while it lives). Callers must drop every
    array/tree reference derived from :attr:`arrays` before closing,
    or the stdlib raises ``BufferError``; close therefore swallows
    that error and leaves such mappings to process exit.
    """

    def __init__(self, table: Dict[str, Tuple[str, str, int, int]]) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self.arrays: Dict[str, np.ndarray] = {}
        attached: Dict[str, shared_memory.SharedMemory] = {}
        try:
            for column, (slab_name, dtype_str, capacity, offset) in (
                table.items()
            ):
                segment = attached.get(slab_name)
                if segment is None:
                    segment = _disown(
                        shared_memory.SharedMemory(name=slab_name)
                    )
                    attached[slab_name] = segment
                    self._segments.append(segment)
                self.arrays[column] = np.ndarray(
                    capacity,
                    dtype=np.dtype(dtype_str),
                    buffer=segment.buf,
                    offset=offset,
                )
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        """Unmap the attached segments (best-effort, never unlink)."""
        self.arrays = {}
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                # A derived view outlived the fold; the mapping falls
                # with the process, and unlink is the worker's job.
                pass
        self._segments = []


def _unlink_quietly(segment: shared_memory.SharedMemory) -> None:
    # unlink() unregisters the name with the resource tracker, but
    # _disown already did — re-register first so the pair balances and
    # the tracker process does not spam KeyError at shutdown.
    try:
        resource_tracker.register(segment._name, "shared_memory")  # noqa: SLF001 - _name is the tracker-registered key; no public accessor exists
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def sweep_prefix(prefix: str) -> List[str]:
    """Unlink every leftover ``/dev/shm`` entry under ``prefix``.

    The parent's crash backstop: normally workers unlink their own
    segments and this finds nothing, but a SIGKILLed worker (or a
    crash between a grow's create and retire) leaves named segments
    behind. Returns the names it removed. No-op on platforms without
    a ``/dev/shm`` view of POSIX shared memory.
    """
    removed: List[str] = []
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return removed
    for entry in entries:
        if entry.startswith(prefix):
            try:
                os.unlink(os.path.join(_SHM_DIR, entry))
            except OSError:
                continue
            removed.append(entry)
    return removed
