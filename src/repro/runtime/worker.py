"""Shard worker process: a columnar tree in shared memory.

``worker_main`` is the entry point the process executor spawns once per
shard. The worker owns a :class:`~repro.core.columnar.ColumnarRapTree`
whose columns live in a :class:`~repro.runtime.shm.ShmArena` (so the
parent can attach them zero-copy at fold time), confines it to itself,
and consumes the partitioned event stream from a shared-memory SPSC
ring (:class:`~repro.runtime.ring.RingConsumer`) the parent allocated.

Data frames arrive as binary counted frames (:mod:`repro.core.serialize`),
decoded as read-only ndarray *views* over ring memory — zero copies
until the combining flush. Frames are *buffered*, not ingested one by
one: the worker accumulates them in a combining buffer and
duplicate-combines the whole buffered substream in a single
``np.unique`` pass right before feeding one sorted counted frame to
``add_counted_arrays`` — the paper's event-combining buffer (Section
3.3, stage 0) stretched across frames. Raw value frames weight each
occurrence 1; pre-counted frames (the ``ingest_counted`` path) carry
their counts as weights. The buffer flushes when it holds
``_COMBINE_WINDOW`` events and at every sync, so its memory is bounded
and its flush points are a pure function of the frame sequence (ring
order = producer dispatch order): repeat runs build bit-identical
trees. An ingest failure is remembered and surfaced on the next sync.

Sync frames travel *in-band* through the ring, so they order behind
every data frame by construction: a sync flushes the combining buffer,
then the worker replies ``("synced", payload)`` on the control pipe.
The payload carries the shared-memory segment table, the tree's scalar
state (:meth:`~repro.core.columnar.ColumnarRapTree.column_state`),
ingest statistics, the recorded failure (if any), the worker
sanitizer's report and the sync frame's sequence number.

The duplex control pipe carries only low-rate messages. The worker
sends ``("ready", None)`` once warmed up, ``("synced", payload)`` per
sync frame and ``("bye",)`` on the way out. A worker whose columns
cannot be placed in shared memory sends ``("ready", reason)`` instead
and exits at once; the parent's ``open()`` turns that into an
``OSError``. It accepts:

``("wake",)``
    Nudge: the producer wrote into an empty ring.
``("exit",)``
    Tear down: drop the tree, unlink every shared-memory segment,
    reply ``("bye",)`` and return. The reply comes *after* the unlink,
    so a parent that has seen it knows ``/dev/shm`` is clean.

The exit path collects garbage once, to break the sanitizer's cycle
with the tree before the arena closes. ``worker_main`` calls
``gc.freeze()`` on entry, so that collection (like any other in the
worker) walks only the objects the worker itself allocated, never the
heap it inherited from the parent under fork: walking that heap costs
a forked child ~10 ms at exit and copy-on-write faults every page it
touches.

The worker never touches the parent's locks; backpressure lives
entirely on the parent side, where the producer blocks/drops/spills
against the ring itself. If the pipe dies (parent crash), the worker
cleans up its segments and exits — the arena is unlinked on every path
out of :func:`worker_main`.
"""

from __future__ import annotations

import gc
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import RapConfig
from ..core.columnar import ColumnarRapTree  # noqa: RAP-LINT012 - the worker owns its shard kernel: the shm allocator hook and column_state/attach protocol are columnar-only by design
from ..core.serialize import FRAME_CBATCH, FRAME_SYNC
from .ring import RingConsumer
from .shm import ShmArena, ShmAttachment

# Combining-buffer flush threshold, in buffered events. Large enough
# that a typical drain-bounded burst coalesces into one tree pass,
# small enough to bound worker memory under sustained overload (2**17
# uint64 values is 1 MiB). Flushes depend only on the frame sequence,
# never on timing, so the built tree stays a pure function of the
# stream.
_COMBINE_WINDOW = 1 << 17

# How long the ring consumer parks on the control pipe when the ring is
# empty. The producer nudges the pipe ("wake") whenever it writes into
# an empty ring, so this timeout is only a lost-wakeup backstop — it
# bounds the worst-case latency of noticing an in-band frame after a
# nudge raced the park, not the steady-state latency (which is the
# nudge itself).
_RING_IDLE_POLL = 0.05


def _combine_frames(
    raw: List[np.ndarray],
    counted: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Duplicate-combine buffered frames into one sorted counted frame.

    ``raw`` frames weight each occurrence 1; ``counted`` frames carry
    explicit counts. The result is exactly ``np.unique`` with counts
    over the concatenated expansion — ascending values, summed
    weights — without ever materializing the expansion. Dtypes pass
    through untouched: ``add_counted_arrays`` owns validation, so
    malformed values raise there exactly as they would have
    frame by frame.
    """
    if not counted:
        uniques, counts = np.unique(
            np.concatenate(raw), return_counts=True
        )
        return uniques, counts.astype(np.int64, copy=False)
    parts = list(raw) + [values for values, _ in counted]
    weights = [
        np.ones(len(values), dtype=np.int64) for values in raw
    ] + [counts for _, counts in counted]
    uniques, inverse = np.unique(
        np.concatenate(parts), return_inverse=True
    )
    combined = np.zeros(uniques.size, dtype=np.int64)
    np.add.at(combined, inverse, np.concatenate(weights))
    return uniques, combined


def _warm_ingest_path(config: RapConfig) -> None:
    """Exercise the flush pipeline once on a scratch tree (then drop it).

    Runs the exact code the first real flush runs — cross-frame
    combining, the offline bootstrap build, the online counted kernel —
    over a tiny synthetic stream on heap-backed columns. Purely a
    warm-up: nothing escapes, and the profiler's trees are untouched.
    """
    try:
        span = min(4096, config.range_max)
        values = (np.arange(2048, dtype=np.uint64) * 7) % span
        uniques, counts = _combine_frames(
            [values], [(np.arange(8, dtype=np.uint64), np.ones(8, np.int64))]
        )
        scratch = ColumnarRapTree(config)
        if not scratch.bootstrap_counted_arrays(uniques, counts):
            scratch.add_counted_arrays(uniques, counts)
        scratch.add_counted_arrays(
            np.arange(16, dtype=np.uint64), np.full(16, 2, dtype=np.int64)
        )
    except BaseException:
        # Best-effort by definition: a failed warm-up must never take
        # the worker down — the real stream decides what actually fails.
        pass


def worker_main(
    conn: Any,
    config: RapConfig,
    shard_index: int,
    shm_prefix: str,
    ring_table: Dict[str, Tuple[str, str, int, int]],
) -> None:
    """Run one shard worker until ``exit`` or pipe loss.

    ``conn`` is the worker end of a duplex pipe; ``config`` is the
    (epsilon-adjusted) shard tree configuration; ``shm_prefix`` names
    this worker's shared-memory namespace, where its tree columns live.
    ``ring_table`` is the parent-allocated ring region's segment table.
    """
    # Everything alive now was inherited from the parent (under fork)
    # or built by the import (under spawn), and none of it is this
    # worker's garbage. Freezing it moves it out of the collector's
    # generations, so no collection here — the exit path's included —
    # walks the inherited heap and copy-on-write faults its pages.
    gc.freeze()
    label = f"shard[{shard_index}]"
    arena = ShmArena(f"{shm_prefix}s{shard_index}-")
    try:
        tree = ColumnarRapTree(config, allocator=arena.allocate)
    except OSError as error:
        # No usable POSIX shared memory for the columns: refuse to
        # start rather than run a shard the parent cannot attach.
        arena.close()
        try:
            conn.send(("ready", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        conn.close()
        return

    sanitizer = None
    if config.debug_sanitize:
        # Lazy import, same reasoning as the profiler: the runtime must
        # stay importable without the checks package.
        from ..checks.sanitizer import RapSanitizer

        sanitizer = RapSanitizer()
        sanitizer.attach_tree(tree, label)
    tree.confine_to_current_thread()

    # Warm the ingest path on a throwaway heap tree before reporting
    # ready: the first pass through the combining/bootstrap code in a
    # fresh process pays interpreter specialization and allocator
    # cold-start costs that belong to open(), not to the first
    # ingest's latency. The parent waits for the ``ready`` below, so
    # all of this happens before it dispatches a single frame.
    _warm_ingest_path(config)
    try:
        conn.send(("ready", None))
    except (BrokenPipeError, OSError):
        pass  # parent gone already; the loops below exit the same way

    failed: Optional[str] = None
    pending_raw: List[np.ndarray] = []
    pending_counted: List[Tuple[np.ndarray, np.ndarray]] = []
    buffered = 0

    def flush() -> None:
        # One combining pass over everything buffered, then one tree
        # ingest. Buffers are cleared even on failure (and after one,
        # dropped unprocessed) so a poisoned batch cannot cascade into
        # misleading follow-ups or pin memory.
        nonlocal failed, buffered
        raw = pending_raw[:]
        counted = pending_counted[:]
        pending_raw.clear()
        pending_counted.clear()
        buffered = 0
        if failed is not None or not (raw or counted):
            return
        try:
            values, counts = _combine_frames(raw, counted)
            # First flush on a fresh tree: build the partition offline
            # in one pass (same bounds, far cheaper than cascading a
            # cold tree through per-event splits). Preconditions not
            # met — or any later flush — take the online kernel.
            if not (
                tree.events == 0
                and tree.bootstrap_counted_arrays(values, counts)
            ):
                tree.add_counted_arrays(values, counts)
        except BaseException:
            # Remembered, reported on the next sync.
            failed = traceback.format_exc()

    def materialize() -> None:
        # Copy buffered ring views into worker-owned arrays so the ring
        # bytes under them can be released early (congestion relief).
        # Invisible to the tree: flush points and the combined stream
        # are unchanged — this only rebinds where the bytes live.
        pending_raw[:] = [np.array(part) for part in pending_raw]
        pending_counted[:] = [
            (np.array(values), np.array(counts))
            for values, counts in pending_counted
        ]

    def sync_payload(sync_seq: int) -> Dict[str, object]:
        arena.reap_retired()
        payload = _sync_payload(label, tree, arena, failed, sanitizer)
        payload["sync_seq"] = sync_seq
        return payload

    def ring_loop(consumer: RingConsumer) -> None:
        # Data and sync frames arrive in-band through the ring; the
        # pipe is polled only when the ring runs empty, and then with a
        # timeout, so a "wake" nudge (or the backstop timeout) gets the
        # worker back onto the ring. Frames are *views* into ring
        # memory: the ring bytes are released right after each flush
        # copies them out, or copied aside (``materialize``) if the
        # buffered window starts crowding the producer.
        nonlocal failed, buffered
        congested = consumer.capacity // 2
        while True:
            frame = consumer.try_next()
            if frame is not None:
                if frame.kind == FRAME_SYNC:
                    flush()
                    consumer.release()
                    conn.send(("synced", sync_payload(frame.sequence)))
                elif frame.kind == FRAME_CBATCH:
                    pending_counted.append((frame.values, frame.counts))
                    buffered += int(np.sum(frame.counts))
                    if buffered >= _COMBINE_WINDOW:
                        flush()
                        consumer.release()
                    elif consumer.bytes_held > congested:
                        materialize()
                        consumer.release()
                else:
                    pending_raw.append(frame.values)
                    buffered += len(frame.values)
                    if buffered >= _COMBINE_WINDOW:
                        flush()
                        consumer.release()
                    elif consumer.bytes_held > congested:
                        materialize()
                        consumer.release()
                continue
            try:
                if not conn.poll(_RING_IDLE_POLL):
                    # Idle a full poll period with ring bytes still
                    # pinned by buffered views: copy them aside and
                    # free the space. Without this a producer whose
                    # next frame needs more than the unpinned
                    # remainder (large frame, small ring) would wait
                    # on a consumer that is parked waiting for it —
                    # a standoff neither side can break.
                    if consumer.bytes_held:
                        materialize()
                        consumer.release()
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "wake":
                continue  # nudge: data is (or was) in the ring
            if kind == "exit":
                return
            else:  # pragma: no cover - protocol bug, not a data path
                failed = f"unknown worker control {kind!r}"

    ring_attachment: Optional[ShmAttachment] = None
    try:
        ring_attachment = ShmAttachment(ring_table)
        ring_loop(RingConsumer(ring_attachment.arrays["ring"]))
    finally:
        tree.unconfine()
        # Drop every ndarray/memoryview export over the arena's buffers
        # before unlinking, so the segments can actually close. The
        # sanitizer's method wrappers form a reference cycle with the
        # tree, so a collect is needed to actually release the views;
        # it walks only what this worker allocated since ``gc.freeze``.
        del tree
        pending_raw.clear()
        pending_counted.clear()
        gc.collect()
        arena.close()
        if ring_attachment is not None:
            ring_attachment.close()
        try:
            conn.send(("bye",))
        except (BrokenPipeError, OSError):
            pass
        conn.close()


def _sync_payload(
    label: str,
    tree: ColumnarRapTree,
    arena: ShmArena,
    failed: Optional[str],
    sanitizer: Any,
) -> Dict[str, object]:
    stats = tree.stats
    return {
        "label": label,
        "table": arena.segment_table(),
        "state": tree.column_state(),
        "events": tree.events,
        "node_count": tree.node_count,
        "splits": stats.splits,
        "merge_batches": stats.merge_batches,
        "error": failed,
        "sanitizer": sanitizer.report() if sanitizer is not None else None,
    }
