"""Shard worker process: a columnar tree fed through a ring.

``worker_main`` is the entry point the process executor spawns once per
shard. The worker owns a columnar shard tree on its own heap, confines
it to itself, and consumes the partitioned event stream from a
shared-memory SPSC ring (:class:`~repro.runtime.ring.RingConsumer`)
the parent allocated.

Data frames arrive as binary counted frames (:mod:`repro.core.serialize`),
decoded as read-only ndarray *views* over ring memory. Frames are
*buffered*, not ingested one by one: the worker pushes each into the
shard's :class:`~repro.runtime.window.CombiningWindow`, which copies
it, and releases the frame's ring bytes at once; the window
duplicate-combines the whole buffered substream in one pass before
feeding the tree. The window flushes when full and at every sync; the
serial executor runs the same window over the same frames at the same
points, so its shard trees are byte-identical to the worker's. An
ingest failure is remembered and surfaced on the next sync.

Sync frames travel *in-band* through the ring, so they order behind
every data frame by construction: a sync flushes the combining buffer,
then the worker replies ``("synced", payload)`` on the control pipe.
The payload carries the tree's generation (the parent's snapshot epoch
key), ingest statistics, the recorded failure (if any), the worker
sanitizer's report and the sync frame's sequence number. Exactly one
raw block follows it (``send_bytes``; format in
:mod:`repro.core.serialize`), the shard's fold input, gathered into a
buffer reused across syncs: the nonzero counter rows, or for the
profile's only shard its compact columns (the payload then carries
their ``column_state`` too), which the parent clones as the serial
executor clones its lone tree. The parent never maps the columns.

The duplex control pipe carries only low-rate messages. The worker
sends ``("ready", None)`` once warmed up, ``("synced", payload)`` and
its block per sync frame, and ``("bye",)`` on the way out. It accepts:

``("wake",)``
    Nudge: the producer wrote into an empty ring.
``("exit",)``
    Tear down: unmap the ring, reply ``("bye",)`` and return.

``worker_main`` calls ``gc.freeze()`` on entry, so every collection in
the worker walks only the objects the worker itself allocated, never
the heap it inherited from the parent under fork: walking that heap
costs a forked child ~10 ms per full collection and copy-on-write
faults every page it touches.

The worker never touches the parent's locks; flow control lives
entirely on the parent side, where the producer blocks on the ring
itself. Since the worker holds no ring bytes past a push, a producer
blocked on space always waits on progress the worker can make. If the
pipe dies (parent crash), the worker sweeps the whole session's
shared-memory prefix on its way out, since no parent is left to
unlink the rings. A forked worker sees the pipe die only
because it first closes the parent ends it inherited: a copy kept open
here would hide the parent's death from every worker.
"""

from __future__ import annotations

import gc
import traceback
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.config import RapConfig
from ..core.serialize import (
    FRAME_SYNC,
    ROW_FIELDS,
    BlockBuffer,
    encode_columns,
)
from ..core.tree import RapTree
from .ring import RingConsumer
from .shm import ShmAttachment, sweep_prefix
from .window import CombiningWindow

# How long the ring consumer parks on the control pipe when the ring is
# empty. The producer nudges the pipe ("wake") whenever it writes into
# an empty ring, so this timeout is only a lost-wakeup backstop — it
# bounds the worst-case latency of noticing an in-band frame after a
# nudge raced the park, not the steady-state latency (which is the
# nudge itself).
_RING_IDLE_POLL = 0.05


def _warm_ingest_path(config: RapConfig) -> None:
    """Exercise the flush pipeline once on a scratch tree (then drop it).

    Runs the exact code the first real flush runs — cross-frame
    combining, the offline bootstrap build, the online counted kernel —
    over a tiny synthetic stream. Purely a warm-up: nothing escapes,
    and the profiler's trees are untouched.
    The scratch universe is capped at 2**12, which holds every warm-up
    value: over a 2**64 universe the hot values would burst ~30 levels
    down, several times the cost for the same functions exercised.
    """
    try:
        span = min(1 << 12, config.range_max)
        window = CombiningWindow(2048)
        window.push((np.arange(2048, dtype=np.uint64) * 7) % span)
        window.push(np.arange(8, dtype=np.uint64), np.ones(8, np.int64))
        scratch = RapTree.from_config(config.with_updates(range_max=span))
        window.flush(scratch)
        window.push(
            np.arange(16, dtype=np.uint64), np.full(16, 2, dtype=np.int64)
        )
        window.flush(scratch)
    except BaseException:
        # Best-effort by definition: a failed warm-up must never take
        # the worker down — the real stream decides what actually fails.
        pass


def worker_main(
    conn: Any,
    parent_ends: Sequence[Any],
    config: RapConfig,
    shard_index: int,
    lone: bool,
    shm_prefix: str,
    ring_table: Dict[str, Tuple[str, str, int]],
    frame_events: int,
) -> None:
    """Run one shard worker until ``exit`` or pipe loss.

    ``conn`` is the worker end of a duplex pipe; ``parent_ends`` are
    the parent's ends of every control pipe made so far, which a forked
    worker inherits and closes at once. ``config`` is the
    (epsilon-adjusted) shard tree configuration; ``lone`` says this is
    the profile's only shard, which syncs its compact columns rather
    than its counter rows. ``shm_prefix`` is the profiler's
    shared-memory namespace, swept if the parent dies. ``ring_table``
    is the parent-allocated ring region's segment table;
    ``frame_events`` is the longest frame the parent writes into it.
    """
    # A copy of a parent end held here would keep the pipe open after
    # the parent dies, and this worker would never see EOF.
    for end in parent_ends:
        end.close()
    # Everything alive now was inherited from the parent (under fork)
    # or built by the import (under spawn), and none of it is this
    # worker's garbage. Freezing it moves it out of the collector's
    # generations, so no collection here walks the inherited heap and
    # copy-on-write faults its pages.
    gc.freeze()
    label = f"shard[{shard_index}]"
    # A Profiler's shards are columnar (it rejects backend="object"),
    # so the tree has the counter-row and compact-column sync surface.
    tree = RapTree.from_config(config)

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
    window = CombiningWindow(frame_events)
    block = BlockBuffer()

    def reply_synced(sync_seq: int) -> None:
        payload = _sync_payload(label, tree, failed, sanitizer)
        payload["sync_seq"] = sync_seq
        if lone:
            columns, state = tree.compact_columns()
            payload["column_state"] = state
            data = encode_columns(columns, block)
        else:
            los = tree.counter_rows(block.rows)[0]
            data = block.words(ROW_FIELDS * los.size)  # the block just filled
        conn.send(("synced", payload))
        conn.send_bytes(data)

    def ring_loop(consumer: RingConsumer) -> bool:
        # Data and sync frames arrive in-band through the ring; the
        # pipe is polled only when the ring runs empty, and then with a
        # timeout, so a "wake" nudge (or the backstop timeout) gets the
        # worker back onto the ring. Frames are *views* into ring
        # memory: each is released as soon as the window has copied it.
        # Returns whether the parent is gone (the pipe hit EOF).
        nonlocal failed
        while True:
            frame = consumer.try_next()
            if frame is not None:
                if frame.kind == FRAME_SYNC:
                    consumer.release()
                    failed = _flush(window, tree, failed)
                    try:
                        reply_synced(frame.sequence)
                    except (BrokenPipeError, OSError):
                        return True
                else:
                    full = window.push(frame.values, frame.counts)
                    consumer.release()
                    if full:
                        failed = _flush(window, tree, failed)
                continue
            try:
                if not conn.poll(_RING_IDLE_POLL):
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                return True
            kind = message[0]
            if kind == "wake":
                continue  # nudge: data is (or was) in the ring
            if kind == "exit":
                return False
            else:  # pragma: no cover - protocol bug, not a data path
                failed = f"unknown worker control {kind!r}"

    ring_attachment: Optional[ShmAttachment] = None
    orphaned = False
    try:
        ring_attachment = ShmAttachment(ring_table)
        orphaned = ring_loop(RingConsumer(ring_attachment.arrays["ring"]))
    finally:
        tree.unconfine()
        if ring_attachment is not None:
            ring_attachment.close()
        if orphaned:
            # No parent is left to unlink its rings: the whole
            # session's namespace goes.
            sweep_prefix(shm_prefix)
        try:
            conn.send(("bye",))
        except (BrokenPipeError, OSError):
            pass
        conn.close()


def _flush(
    window: CombiningWindow, tree: RapTree, failed: Optional[str]
) -> Optional[str]:
    """Flush ``window`` into ``tree``; return the shard's failure, if any.

    A failure is remembered (and reported on the next sync) instead of
    raised; once one is recorded, later windows are dropped
    unprocessed, so a poisoned batch cannot cascade into misleading
    follow-ups or pin memory.
    """
    if failed is not None:
        window.clear()
        return failed
    try:
        window.flush(tree)
    except BaseException:
        return traceback.format_exc()
    return None


def _sync_payload(
    label: str,
    tree: RapTree,
    failed: Optional[str],
    sanitizer: Any,
) -> Dict[str, object]:
    stats = tree.stats
    return {
        "label": label,
        "generation": tree.mutation_generation,
        "events": tree.events,
        "node_count": tree.node_count,
        "splits": stats.splits,
        "merge_batches": stats.merge_batches,
        "error": failed,
        "sanitizer": sanitizer.report() if sanitizer is not None else None,
    }
