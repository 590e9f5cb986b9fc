"""The ``Profiler`` front: sharded ingestion over RAP trees.

``Profiler`` is the API v2 top-level entry point for profiling a
stream (the :mod:`repro.runtime` overview draws the pipeline). The
front does validation, the frame length, chunking and partitioning,
the ingest lock, the lifecycle, the snapshot cache and epoch, the
fold, ``query``/``hot_ranges`` and ``metrics``. The shards live in one
executor, selected once at construction: :mod:`repro.runtime.serial`
or :mod:`repro.runtime.process`. Both answer the same calls under the
ingest lock: ``open``, ``submit``, ``sync`` (returns the epoch key),
``fold_inputs`` (what ``combine_many`` folds), ``shard_counters``,
``trees``, ``close`` and ``errors`` (ingest failures workers reported).

Shard trees are columnar only, so a profiler needs gcc for the
compiled kernel (:class:`~repro.core.native.NativeKernelError` without
it). The constructor rejects ``backend="object"`` and a universe past
2**64 (frames carry ``uint64`` values) with a ``ValueError``, before
any tree, ring or worker exists.

Frames fit by construction: the constructor fixes one frame length,
``batch_size`` or the longest counted frame a ``ring_bytes`` ring
holds, whichever is smaller, and both executors cut every ``ingest``
chunk and every ``ingest_counted`` shard bucket to it. Serial and
process therefore push identical frame sequences into identical
windows.

Lifecycle: ``open() → ingest()* → snapshot()* → close()``; the object
is also a context manager. ``query(lo, hi)`` is sugar for
``snapshot().estimate(lo, hi)`` (snapshots are cached per epoch, so
repeated queries between ingests sync and fold only once).

Accuracy: the folded snapshot never overcounts a range and keeps
every shard's weight (``tests/core/test_combine.py`` checks both). Its
undercount is *not* bounded by the shards' summed undercounts (see
:func:`repro.core.combine.combine_many`; ROADMAP item 10).
"""

from __future__ import annotations

import operator
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import RapConfig
from ..core.combine import combine_many
from ..core.hot_ranges import DEFAULT_HOT_FRACTION, HotRange, find_hot_ranges
from ..core.tree import RapTree
from .metrics import RuntimeMetrics, ShardMetrics
from .partition import Partitioner, make_partitioner
from .process import ProcessExecutor
from .ring import DEFAULT_RING_BYTES, MIN_RING_BYTES, max_frame_events
from .serial import SerialExecutor

Clock = Callable[[], float]
Values = Union[np.ndarray, Iterable[int]]


def _outside_universe(value: int, range_max: int) -> ValueError:
    """The error for an event value outside the universe, worded like
    the trees'."""
    return ValueError(f"value {value} outside universe [0, {range_max - 1}]")


def _integer(item: object, what: str) -> int:
    """One ``ingest_counted`` field as an ``int``, or ``ValueError``.

    ``operator.index`` accepts exactly the integer types (Python and
    numpy ints) and refuses floats and strings instead of truncating
    them; ``bool`` is an ``int`` subclass, so it is refused by name,
    as ``ingest`` refuses bool arrays.
    """
    if not isinstance(item, bool):
        try:
            return operator.index(item)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise ValueError(
        f"event {what} must be integers, got {type(item).__name__} "
        f"{item!r}"
    )


def _event_array(values: Values, range_max: int) -> np.ndarray:
    """The ``ingest`` boundary: ``values`` as an array of event values.

    Rejects non-integer input (float, complex, bool, string arrays)
    with one O(1) dtype-kind check, negative values in signed arrays
    with one ``min()``, and values past the top of the universe with
    one ``max()`` — skipped when the dtype cannot exceed it, as
    ``uint64`` cannot under a 2^64 universe (every workload stream).
    """
    array = np.asarray(
        values if isinstance(values, np.ndarray) else list(values)
    )
    if len(array) == 0:
        return array
    kind = array.dtype.kind
    if kind not in "iuO":
        raise ValueError(
            f"event values must be integers, got dtype {array.dtype}"
        )
    if kind in "iO":
        low = int(array.min())
        if low < 0:
            raise _outside_universe(low, range_max)
    if kind == "O" or int(np.iinfo(array.dtype).max) >= range_max:
        high = int(array.max())
        if high >= range_max:
            raise _outside_universe(high, range_max)
    return array


class Profiler:
    """Sharded, concurrent RAP profiling service.

    Parameters
    ----------
    config:
        Tree configuration; ``config.epsilon`` is the accuracy target of
        the folded snapshot (see ``shard_epsilon`` for the trade-off).
        ``config.executor`` and ``config.shards`` are the declarative
        defaults for the two runtime knobs below.
    shards:
        Number of shard trees (``>= 1``). ``None`` (default) inherits
        ``config.shards``.
    executor:
        ``None`` (default) inherits ``config.executor``. ``"serial"``
        flushes every shard's combining window inline on the calling
        thread — no workers, deterministic, the oracle; ``"process"`` runs one
        worker process per shard, fed through shared-memory rings.
    partition:
        ``"hash"`` (default) or ``"range"`` — see
        :mod:`repro.runtime.partition`.
    shard_epsilon:
        Epsilon each shard profiles at. ``None`` (default) inherits
        ``config.epsilon``: shards then split ~N× more in aggregate
        (each sees ``n/N`` events against the same epsilon).
        ``N * config.epsilon`` keeps the single-tree node budget (the
        equal-memory config the multi-shard benchmark uses).
    batch_size:
        Ingest calls chop their input into chunks of at most this many
        events before partitioning, bounding the size of each frame.
    ring_bytes:
        Size of each shard's shared ring region under the process
        executor (counter header included). A full ring makes the
        producer wait for its worker. The default (4 MiB) holds
        several combining windows' worth of frames; tests use small
        rings to exercise wrap-around and producer waits. Frames are
        cut short enough to fit it, under both executors alike.
    clock:
        Optional zero-arg callable returning seconds (e.g.
        ``time.perf_counter`` passed *as a function*). When provided,
        time-shaped metrics are recorded; when ``None`` they stay
        ``0.0`` and every metric is deterministic.
    """

    def __init__(
        self,
        config: RapConfig,
        *,
        shards: Optional[int] = None,
        executor: Optional[str] = None,
        partition: str = "hash",
        shard_epsilon: Optional[float] = None,
        batch_size: int = 4096,
        ring_bytes: int = DEFAULT_RING_BYTES,
        clock: Optional[Clock] = None,
    ) -> None:
        shards = config.shards if shards is None else shards
        executor = config.executor if executor is None else executor
        # Route the resolved knobs through the config's own validation
        # so every executor/shards combination fails with one message.
        config.with_updates(executor=executor, shards=shards)
        if config.backend != "columnar":
            raise ValueError(
                "Profiler runs columnar shard trees only, got backend="
                f'{config.backend!r}; use backend="columnar" (the default)'
            )
        if config.range_max > 1 << 64:
            raise ValueError(
                "range_max must be at most 2**64 (frames carry uint64 "
                f"values), got {config.range_max}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if ring_bytes < MIN_RING_BYTES:
            raise ValueError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
            )
        self._config = config
        self._shards = shards
        self._partitioner: Partitioner = make_partitioner(
            partition, shards, config.range_max
        )
        shard_config = config
        if shard_epsilon is not None:
            shard_config = config.with_updates(epsilon=shard_epsilon)
        # The one frame length both executors cut to: every frame fits
        # the ring, and serial pushes the frames process writes.
        self._frame_events = min(batch_size, max_frame_events(ring_bytes))
        self._clock = clock
        # created → open → closed
        self._state = "created"
        # Serializes producers against snapshot epochs.
        self._ingest_lock = threading.Lock()
        # Optional race sanitizer: tracks the ingest lock, which guards
        # every in-process shard tree; the process executor merges the
        # reports of the sanitizers inside its workers on every sync.
        self._sanitizer = None
        if config.debug_sanitize:
            # Lazy import: checks.sanitizer is a debug facility and the
            # runtime must stay importable without the checks package.
            from ..checks.sanitizer import RapSanitizer

            self._sanitizer = RapSanitizer()
            self._ingest_lock = self._sanitizer.track_lock(
                self._ingest_lock, "Profiler._ingest_lock"
            )
        if executor == "process":
            self._executor = ProcessExecutor(
                shard_config, shards, self._frame_events, ring_bytes, clock,
                self._sanitizer,
            )
        else:
            self._executor = SerialExecutor(
                shard_config, shards, self._frame_events, self._sanitizer
            )
        # Per-shard accepted-event / batch counters (producer side).
        self._shard_events = [0] * shards
        self._shard_batches = [0] * shards
        self._snapshots = 0
        self._snapshot_seconds = 0.0
        self._ingest_seconds = 0.0
        self._snapshot_cache: Optional[RapTree] = None
        self._snapshot_epoch: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_config(cls, config: RapConfig, **options: object) -> "Profiler":
        """API v2 constructor; ``options`` are the keyword knobs above."""
        return cls(config, **options)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def config(self) -> RapConfig:
        return self._config

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def executor(self) -> str:
        """The resolved executor this profiler runs on."""
        return self._executor.name

    @property
    def transport(self) -> str:
        """The frame transport: always ``"ring"``.

        The process executor moves frames through shared-memory rings
        only; the serial executor moves no frames.
        """
        return "ring"

    @property
    def closed(self) -> bool:
        return self._state == "closed"

    @property
    def sanitizer(self):
        """The attached RapSanitizer, or None when ``debug_sanitize`` is off."""
        return self._sanitizer

    def open(self) -> "Profiler":
        """Start the runtime: the process executor loads the kernel,
        maps its rings and spawns its workers (a missing compiler fails
        here, leaving nothing behind)."""
        if self._state != "created":
            raise RuntimeError(f"cannot open a {self._state} Profiler")
        self._executor.open()
        self._state = "open"
        return self

    def __enter__(self) -> "Profiler":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        if self._state == "open":
            self.close()

    def close(self) -> RapTree:
        """Drain every shard, stop workers, return the final snapshot.

        After ``close()`` the profiler accepts no more events;
        ``snapshot()`` and ``query()`` keep answering from the final
        fold. Unlike the reads, ``close()`` syncs every worker, news or
        not, so a worker that died at any point since open surfaces
        here as :class:`~repro.runtime.process.WorkerCrashed`. Worker
        teardown is unconditional: even when a shard failed mid-ingest
        and this raises, every worker process is exited (terminated if
        it will not go) and every shared-memory segment is unlinked.
        """
        if self._state == "closed":
            return self._final_snapshot()
        if self._state != "open":
            raise RuntimeError("cannot close a Profiler that was never opened")
        with self._ingest_lock:
            try:
                return self._fold_locked(self._quiesce_locked(every=True))
            finally:
                self._state = "closed"
                self._executor.close()

    def _final_snapshot(self) -> RapTree:
        if self._snapshot_cache is None:
            raise RuntimeError(
                "Profiler was closed after a worker failure; "
                "no final snapshot exists"
            )
        return self._snapshot_cache

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, values: Values) -> None:
        """Feed raw event values (any iterable of ints or numpy array).

        Values are chopped into chunks of the frame length and
        partitioned to shards; each shard's part becomes one raw frame,
        pushed into the shard's combining window (serial) or written to
        its ring (process). Returns once every chunk is accepted, which
        may wait for ring space. Non-integer dtypes and values outside
        the universe raise ``ValueError`` before any event is accepted.
        """
        self._check_ingestible()
        array = _event_array(values, self._config.range_max)
        clock = self._clock
        start = clock() if clock is not None else 0.0
        with self._ingest_lock:
            self._check_ingestible()
            step = self._frame_events
            for at in range(0, len(array), step):
                self._dispatch_chunk(array[at:at + step])
        if clock is not None:
            self._ingest_seconds += clock() - start

    def ingest_counted(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed pre-combined ``(value, count)`` pairs.

        Each shard's pairs are sorted by value and cut into counted
        frames of the frame length; its window treats the counts as
        weights. A value or count that is not an integer (floats,
        bools, strings), a value outside the universe, a count outside
        ``[1, 2**63 - 1]``, or pairs that would take a shard's accepted
        event total past ``2**63 - 1`` (what its int64 counters and
        combining sums hold) raise ``ValueError`` before any pair is
        accepted, under every executor.
        """
        self._check_ingestible()
        range_max = self._config.range_max
        items = [
            (_integer(value, "values"), _integer(count, "counts"))
            for value, count in pairs
        ]
        for value, count in items:
            if not 0 <= value < range_max:
                raise _outside_universe(value, range_max)
            if count < 1:
                raise ValueError(f"count must be positive, got {count}")
            if count >= 1 << 63:
                raise ValueError(
                    f"count {count} does not fit a 64-bit signed counter"
                )
        clock = self._clock
        start = clock() if clock is not None else 0.0
        with self._ingest_lock:
            self._check_ingestible()
            shard_of = self._partitioner.shard_of
            buckets: List[List[Tuple[int, int]]] = [
                [] for _ in range(self._shards)
            ]
            for value, count in items:
                buckets[shard_of(value)].append((value, count))
            for shard, bucket in enumerate(buckets):
                total = self._shard_events[shard] + sum(c for _, c in bucket)
                if total >= 1 << 63:
                    raise ValueError(
                        f"shard {shard} would hold {total} events, past "
                        "the 64-bit signed event total 2**63 - 1"
                    )
            step = self._frame_events
            for shard, bucket in enumerate(buckets):
                bucket.sort()
                for at in range(0, len(bucket), step):
                    values, counts = zip(*bucket[at:at + step])
                    self._submit_frame(
                        shard,
                        np.asarray(values, dtype=np.uint64),
                        np.asarray(counts, dtype=np.int64),
                        sum(counts),
                    )
        if clock is not None:
            self._ingest_seconds += clock() - start

    def _dispatch_chunk(self, chunk: np.ndarray) -> None:
        # Raw partitioned frames: no producer-side np.unique. Each
        # shard's window duplicate-combines its whole buffered substream
        # in one pass at flush time.
        # Every frame is uint64, exact after _event_array's checks, so a
        # window never combines raw and counted frames through float64.
        for shard, part in enumerate(self._partitioner.split(chunk)):
            if len(part):
                values = part.astype(np.uint64, copy=False)
                self._submit_frame(shard, values, None, len(part))

    def _submit_frame(
        self, shard: int, values: np.ndarray, counts, weight: int
    ) -> None:
        """Hand one frame (raw when ``counts`` is ``None``) to its
        shard's executor and count it, under the ingest lock (which is
        what makes the producer side single-writer)."""
        self._executor.submit(shard, values, counts)
        self._shard_events[shard] += weight
        self._shard_batches[shard] += 1

    def _check_ingestible(self) -> None:
        if self._state != "open":
            hint = " (call open() first)" if self._state == "created" else ""
            raise RuntimeError(
                f"cannot ingest into a {self._state} Profiler{hint}"
            )
        self._raise_worker_errors()

    def _raise_worker_errors(self) -> None:
        if self._executor.errors:
            failure = RuntimeError("shard worker failed while ingesting")
            raise failure from self._executor.errors[0]

    # ------------------------------------------------------------------
    # Snapshots and queries
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Wait until every accepted batch is applied to its shard tree.

        A quiesce without the fold: after ``drain()`` returns, the shard
        trees reflect every event accepted so far (the executor's
        ``sync``: serial flushes every window, process syncs every
        worker with news), but no snapshot is built. This bounds ingest
        latency measurements and refreshes the per-shard state
        :attr:`metrics` is served from.
        """
        if self._state != "open":
            raise RuntimeError("cannot drain a Profiler that is not open")
        with self._ingest_lock:
            self._quiesce_locked()

    def _quiesce_locked(self, every: bool = False) -> Tuple[int, ...]:
        """Apply every accepted frame to its shard tree (lock held) and
        return the epoch key. Worker failures surface here."""
        epoch = self._executor.sync(every)
        self._raise_worker_errors()
        return epoch

    def snapshot(self) -> RapTree:
        """Fold every shard into one consistent tree (epoch boundary).

        Locks out new ingests, applies every accepted frame (see
        :meth:`drain`), then folds the executor's fold inputs with
        :func:`~repro.core.combine.combine_many` into a
        ``ColumnarRapTree``. The result is independent of the live
        shards (a lone tree is cloned) and cached: repeated snapshots
        with no intervening ingest return the same tree without a sync
        round trip or a re-fold. A worker that died after the last sync
        is reported by the next ``drain()`` or ``snapshot()`` after an
        ingest into its shard, or by ``close()``; the cached answer is
        exact until then.
        """
        if self._state == "closed":
            return self._final_snapshot()
        if self._state != "open":
            raise RuntimeError("cannot snapshot a Profiler that is not open")
        with self._ingest_lock:
            return self._fold_locked(self._quiesce_locked())

    def _fold_locked(self, epoch: Tuple[int, ...]) -> RapTree:
        """Fold the executor's shards, unless ``epoch`` is cached.

        One path for every executor: ``combine_many`` over the
        executor's fold inputs. It returns a lone tree as is, so that
        one is cloned; a snapshot never aliases a live shard.
        """
        if self._sanitizer is not None:
            self._sanitizer.begin_fold("Profiler._ingest_lock")
        try:
            cached = self._snapshot_cache
            if cached is not None and epoch == self._snapshot_epoch:
                return cached
            clock = self._clock
            start = clock() if clock is not None else 0.0
            inputs = self._executor.fold_inputs()
            folded = combine_many(inputs)
            if folded is inputs[0]:
                folded = folded.clone()
            if clock is not None:
                self._snapshot_seconds += clock() - start
            self._snapshots += 1
            self._snapshot_cache = folded
            self._snapshot_epoch = epoch
            return folded
        finally:
            if self._sanitizer is not None:
                self._sanitizer.end_fold()

    def query(self, lo: int, hi: int) -> int:
        """Lower-bound estimate of events in ``[lo, hi]`` (snapshot sugar).

        A query with no ingest since the last snapshot answers from
        the cached fold: no sync round trip, no re-fold.
        """
        return self.snapshot().estimate(lo, hi)

    def hot_ranges(
        self, hot_fraction: float = DEFAULT_HOT_FRACTION
    ) -> List[HotRange]:
        """The paper's hot ranges (Section 4.1) over the current snapshot.

        Sugar for :func:`~repro.core.hot_ranges.find_hot_ranges` on
        :meth:`snapshot`: heaviest exclusive weight first, interior
        ranges and nested families included; ``hot_fraction`` must lie
        in ``(0, 1]`` and an empty profile has none.
        """
        return find_hot_ranges(self.snapshot(), hot_fraction)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> RuntimeMetrics:
        """Current per-shard and aggregate runtime metrics.

        Producer-side counters (events, batches, ring stalls) are
        always live. Tree-side fields (splits, merges, node counts)
        read the live trees (serial) or each shard's latest synced
        state (process); neither flushes a window, so events still
        buffered are not in them — call :meth:`drain` (or take a
        snapshot) first for exact, deterministic values. Both stay
        readable after ``close()``.
        """
        return RuntimeMetrics(
            shards=[
                ShardMetrics(
                    shard=index,
                    events=self._shard_events[index],
                    batches=self._shard_batches[index],
                    **self._executor.shard_counters(index),
                )
                for index in range(self._shards)
            ],
            snapshots=self._snapshots,
            snapshot_seconds=self._snapshot_seconds,
            ingest_seconds=self._ingest_seconds,
        )

    def shard_trees(self) -> Sequence[RapTree]:
        """The live shard trees (read-only view; do not mutate).

        Flushes every shard's combining window first, so the trees
        reflect every accepted event. Serial executor only: the process
        executor's trees live in worker address spaces (use
        :meth:`snapshot` or :attr:`metrics`).
        """
        trees = self._executor.trees()
        with self._ingest_lock:
            self._quiesce_locked()
        return tuple(trees)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profiler(shards={self._shards}, executor={self.executor!r}, "
            f"state={self._state!r}, events={sum(self._shard_events)})"
        )
