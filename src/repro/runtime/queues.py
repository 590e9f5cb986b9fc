"""Bounded per-shard batch queues with explicit backpressure.

Each worker shard is fed through one :class:`ShardQueue`. The queue is
bounded (``capacity`` batches); what happens when it is full is an
explicit, named policy chosen by the producer:

* ``"block"`` — the producer waits until the worker drains a slot. The
  default: end-to-end deterministic (every batch is processed, FIFO per
  shard) and self-throttling.
* ``"drop"`` — the batch is discarded and counted. Bounded latency at
  the cost of data loss; the drop count is surfaced in shard metrics so
  lost weight is never silent. Which batches drop depends on thread
  scheduling, so drop mode is *not* deterministic.
* ``"spill"`` — the batch is diverted to an unbounded overflow list the
  worker drains opportunistically. No loss and no producer stall, at
  the cost of unbounded memory under sustained overload. Per-shard FIFO
  is preserved: the worker only takes spilled batches when the main
  queue is empty, and producers keep spilling while any spill backlog
  remains (so spilled batches can never be overtaken by newer ones).

The queue also tracks ``outstanding`` work (queued + spilled + currently
being processed) so :meth:`join` can quiesce a shard — the barrier the
snapshot fold uses to get a consistent epoch.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

Batch = Sequence[Tuple[int, int]]

_POLICIES = ("block", "drop", "spill")


class QueueClosed(RuntimeError):
    """Raised when putting to or taking from a closed, drained queue."""


class ShardQueue:
    """Bounded FIFO of batches feeding one worker shard."""

    def __init__(self, capacity: int, policy: str = "block") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._queue: Deque[Batch] = deque()
        self._spill: Deque[Batch] = deque()
        self._closed = False
        # Batches accepted but not yet fully processed (queued, spilled,
        # or in the worker's hands). join() waits for this to hit zero.
        self._outstanding = 0
        # Constituent counts of combined takes, FIFO: task_done() after a
        # take_combined() acknowledges this many accepted batches at once.
        self._acks: Deque[int] = deque()
        self.dropped_batches = 0
        self.dropped_events = 0
        self.spilled_batches = 0
        self.max_depth = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, batch: Batch, weight: int) -> str:
        """Enqueue one batch; returns its disposition.

        ``weight`` is the total event count of the batch (used for the
        dropped-events counter). Returns ``"queued"``, ``"dropped"`` or
        ``"spilled"``.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed")
            if self.policy == "block":
                while len(self._queue) >= self.capacity:
                    self._not_full.wait()
                    if self._closed:
                        raise QueueClosed("queue closed while blocked")
                disposition = "queued"
            elif len(self._queue) >= self.capacity or self._spill:
                # Spill while a backlog exists even if a main slot just
                # freed up, else spilled batches would be overtaken.
                if self.policy == "drop":
                    self.dropped_batches += 1
                    self.dropped_events += weight
                    return "dropped"
                self._spill.append(batch)
                self.spilled_batches += 1
                self._outstanding += 1
                self._not_empty.notify()
                return "spilled"
            else:
                disposition = "queued"
            self._queue.append(batch)
            depth = len(self._queue) + len(self._spill)
            if depth > self.max_depth:
                self.max_depth = depth
            self._outstanding += 1
            self._not_empty.notify()
            return disposition

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def take(self) -> Optional[Batch]:
        """Dequeue the next batch, blocking; ``None`` once closed + empty."""
        with self._lock:
            while not self._queue and not self._spill:
                if self._closed:
                    return None
                self._not_empty.wait()
            if self._queue:
                batch = self._queue.popleft()
                self._not_full.notify()
            else:
                batch = self._spill.popleft()
            self._acks.append(1)
            return batch

    def take_combined(self) -> Optional[Batch]:
        """Dequeue *everything* available as one FIFO-ordered counted batch.

        Blocks like :meth:`take`; ``None`` once closed and empty. The
        main queue drains first (oldest batches), then the whole spill
        backlog — the acceptance order, so per-shard FIFO holds. Each
        constituent batch is value-sorted individually, which reuses the
        batch-combining sort path: feeding the result to
        ``RapTree.add_counted`` is observably identical to calling
        ``add_batch`` on each constituent in turn (``add_batch(pairs)``
        ≡ ``add_counted(sorted(pairs))``), while the worker pays one
        lock round-trip and one tree-ingest call for the entire backlog
        instead of re-entering per spilled batch.

        The matching :meth:`task_done` acknowledges every constituent at
        once; combined and plain takes can be mixed freely (every take
        records its constituent count, acknowledged FIFO).
        """
        with self._lock:
            while not self._queue and not self._spill:
                if self._closed:
                    return None
                self._not_empty.wait()
            taken = 0
            combined: List[Tuple[int, int]] = []
            while self._queue:
                combined.extend(sorted(self._queue.popleft()))
                taken += 1
            self._not_full.notify_all()
            while self._spill:
                combined.extend(sorted(self._spill.popleft()))
                taken += 1
            self._acks.append(taken)
            return combined

    def task_done(self) -> None:
        """Worker acknowledgement that the last taken batch is processed.

        After a :meth:`take_combined`, acknowledges every batch folded
        into that take.
        """
        with self._lock:
            self._outstanding -= self._acks.popleft() if self._acks else 1
            if self._outstanding == 0:
                self._drained.notify_all()

    # ------------------------------------------------------------------
    # Coordination
    # ------------------------------------------------------------------

    def join(self) -> None:
        """Block until every accepted batch has been fully processed."""
        with self._lock:
            while self._outstanding:
                self._drained.wait()

    def close(self) -> None:
        """Stop accepting batches; the worker drains what remains."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def depth(self) -> int:
        """Current queued + spilled batch count (racy snapshot)."""
        return len(self._queue) + len(self._spill)
