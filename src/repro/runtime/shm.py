"""Shared-memory segments for the process executor's rings.

The parent allocates each shard's frame ring in a :class:`ShmArena`,
and the worker maps it by name (:class:`ShmAttachment`). Nothing else
lives in shared memory: a worker's tree columns are ordinary heap
arrays, and the parent folds the counter rows each worker sends with
its sync reply.

This module is the **only** place in the package that may touch
``multiprocessing.shared_memory`` directly (RAP-LINT024 enforces
this), because the stdlib's lifecycle needs three corrections that
must not be scattered around call sites:

* **Ownership is manual.** CPython's ``resource_tracker`` registers
  every segment on *both* create and attach (3.9–3.12), then unlinks
  registered segments when the first process exits — which would tear
  a ring out from under a still-running peer and spam ``KeyError``
  warnings at shutdown. Both sides here unregister immediately and
  own unlink explicitly: the arena unlinks what it created, and the
  parent sweeps the name prefix as a crash backstop
  (:func:`sweep_prefix`), as does a worker whose parent died.
* **Close only after the views are gone.** ``SharedMemory.close``
  only sees memoryview exports, and a numpy array built over
  ``segment.buf`` is **not** one — close unmaps immediately and the
  next read through such an array is a segfault, not an exception.
  Callers drop their ring views before closing the arena or the
  attachment.
* **Names are the contract.** Each region is its own segment, named
  ``<prefix><region>``; an arena's :meth:`ShmArena.segment_table`
  (segment name, dtype, capacity per region) is what a peer maps, and
  nobody guesses a name — except :func:`sweep_prefix`, which
  deliberately matches the whole prefix so segments orphaned by a
  crash are reclaimed.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Tuple

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


class ShmArena:
    """Owner of a set of named shared-memory regions, one segment each.

    The parent allocates each shard's ring with :meth:`allocate` before
    forking, hands :meth:`segment_table` to the worker and unlinks
    every segment with :meth:`close`.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        # region name -> (segment, dtype, capacity)
        self._regions: Dict[
            str, Tuple[shared_memory.SharedMemory, np.dtype, int]
        ] = {}
        self._closed = False

    def allocate(self, name: str, dtype: np.dtype, capacity: int) -> np.ndarray:
        """Create the region ``name``, zero-filled, as a fresh segment.

        The zeros come from the kernel, not from a fill: a fresh
        segment is sized with ``ftruncate``, which POSIX defines to
        read as zero bytes. Not filling also means no page is faulted
        in before its first write: a fill would fault in all of a
        4 MiB ring (~2.5 ms) inside ``open()``.
        """
        if self._closed:
            raise RuntimeError(f"ShmArena {self.prefix!r} is closed")
        dtype = np.dtype(dtype)
        segment = _disown(
            shared_memory.SharedMemory(
                name=f"{self.prefix}{name}",
                create=True,
                size=max(1, capacity * dtype.itemsize),
            )
        )
        self._regions[name] = (segment, dtype, capacity)
        return np.ndarray(capacity, dtype=dtype, buffer=segment.buf)

    def segment_table(self) -> Dict[str, Tuple[str, str, int]]:
        """Current ``region -> (segment name, dtype str, capacity)``.

        Plain strings and ints — the shape that crosses to the peer
        process (a ring's table goes to its worker as a start-up
        argument) for :class:`ShmAttachment` to consume.
        """
        return {
            name: (segment.name, dtype.str, capacity)
            for name, (segment, dtype, capacity) in self._regions.items()
        }

    def close(self) -> None:
        """Unlink every segment this arena created (idempotent).

        Unlink is the part that matters for leaks — the backing memory
        of any mapping that cannot be closed yet (live ndarray views)
        is released when the process unmaps it at exit.
        """
        if self._closed:
            return
        self._closed = True
        for segment, _, _ in self._regions.values():
            _unlink_quietly(segment)
            try:
                segment.close()
            except (BufferError, ValueError):
                pass
        self._regions.clear()


class ShmAttachment:
    """A peer's mapping of an arena's segment table.

    A worker maps its shard's ring, allocated by the parent, with one:
    it exposes ``region -> ndarray`` views over the named segments.
    :meth:`close` drops the mappings (never unlinks — the arena's owner
    owns segment lifetime). Callers must drop every array derived from
    :attr:`arrays` before closing, or the stdlib raises
    ``BufferError``; close therefore swallows that error and leaves
    such mappings to process exit.
    """

    def __init__(self, table: Dict[str, Tuple[str, str, int]]) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self.arrays: Dict[str, np.ndarray] = {}
        try:
            for region, (segment_name, dtype_str, capacity) in table.items():
                segment = _disown(shared_memory.SharedMemory(segment_name))
                self._segments.append(segment)
                self.arrays[region] = np.ndarray(
                    capacity, dtype=np.dtype(dtype_str), buffer=segment.buf
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
                # A derived view outlived its user; the mapping falls
                # with the process, and unlink is the arena's job.
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
        _disown(segment)  # swept already: undo the registration above


def sweep_prefix(prefix: str) -> List[str]:
    """Unlink every leftover ``/dev/shm`` entry under ``prefix``.

    The crash backstop: normally every arena unlinks its own segments
    and this finds nothing, but a SIGKILLed parent leaves its rings
    behind (its orphaned workers sweep them). Returns the names it
    removed. No-op on platforms without a ``/dev/shm`` view of POSIX
    shared memory.
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
