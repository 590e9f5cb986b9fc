"""The ``Profiler`` service object: sharded ingestion over RAP trees.

``Profiler`` is the API v2 top-level entry point for profiling a
stream. It owns ``N`` shard trees and a deterministic partitioner
mapping each event value to its shard. Every shard tree is fed through
a :class:`~repro.runtime.window.CombiningWindow`; the executor decides
only where the window lives — next to the tree in this process, or in
a worker *process* fed through a shared-memory ring:

.. code-block:: text

    ingest(values)                  calling thread, ingest lock held
        └─ chunk (frame length) → partition → one frame per shard
             ├─ serial:  window[i] → shard i                  (inline)
             └─ process: ring[i] ── worker i: window → shard i (shm)
    flush       =  combine the window's frames (one sort), then one
                   tree pass; when 2**17 events are buffered and at
                   every drain() / snapshot() / close()
    snapshot()  =  flush (serial) or sync (process) every shard, then
                   fold the shards' counter rows with ``combine_many``
                   (compiled) into one consistent tree; a worker sends
                   its rows with every sync reply

The executor is selected uniformly through the config —
``RapConfig(executor="serial"|"process", shards=N)`` — with the
constructor keywords as call-site overrides:

* ``"serial"`` (default) flushes the windows inline on the calling
  thread. Its shard trees are byte-identical to the process
  executor's, which makes it the oracle.
* ``"process"`` runs one worker *process* per shard: each worker owns
  a tree whose columns live in shared memory (:mod:`repro.runtime.shm`).
  The dispatching thread writes binary counted frames straight into a
  per-shard shared-memory ring (:mod:`repro.runtime.ring`), waiting
  for space when a ring is full. Each worker answers a sync with its
  shard's counter rows (a lone shard: its compact columns) as one raw
  block on its control pipe, and snapshots fold those in the parent,
  mapping no worker memory. A host
  without usable shared memory for the rings or a worker's columns
  fails ``open()`` with an ``OSError``; nothing falls back.

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
``close()`` reaps every worker process — exited and its shared-memory
segments unlinked — on all paths, including after a worker failure.

Consistency model: a snapshot is taken on an *epoch boundary* — new
ingests are locked out and, under the process executor, every worker
whose ring took a frame since its last sync acknowledges a sync frame
that trails its batches in ring order — and only then are the shard
trees folded (a worker with no news is already in sync). The snapshot
therefore reflects exactly the events accepted before the call, no
torn batches. Both executors make the shard trees (and hence every
snapshot) the same deterministic function of the ingested stream.

Accuracy: each shard undercounts by at most ``eps_shard * n_shard``, so
the folded snapshot undercounts any range by at most
``eps_shard * n_total`` (see :func:`repro.core.combine.combine_many`).
By default shards inherit ``config.epsilon`` and the single-tree bound
``epsilon * n`` carries over verbatim — at the cost of shards splitting
~``N`` times more aggressively in aggregate (each sees ``n/N`` events
against the same epsilon). Passing ``shard_epsilon = N * epsilon``
instead holds the *total* node budget at the single-tree level (each
shard's budget guards ``n/N`` events), with the documented snapshot
bound relaxing to ``shard_epsilon * n_total``.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.config import RapConfig
from ..core.combine import CounterRows, combine_many
from ..core.hot_ranges import DEFAULT_HOT_FRACTION, HotRange, find_hot_ranges
from ..core.serialize import (
    FRAME_BATCH,
    FRAME_CBATCH,
    decode_columns,
    decode_counter_rows,
)
from ..core.native import load_kernel
from ..core.tree import RapTree
from .metrics import RuntimeMetrics, ShardMetrics
from .partition import Partitioner, make_partitioner
from .ring import (
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    RingProducer,
    RingStalled,
    max_frame_events,
)
from .shm import ShmArena, sweep_prefix
from .window import CombiningWindow

Clock = Callable[[], float]
Values = Union[np.ndarray, Iterable[int]]

#: How long (seconds) to poll a live worker for a protocol reply before
#: re-checking liveness, and how long to wait for voluntary exit before
#: escalating to terminate/kill. Generous — a live worker replies as
#: soon as it drains the frames ahead of the request.
_POLL_INTERVAL = 0.1
_EXIT_GRACE = 5.0

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


def _frame_values(part: np.ndarray) -> np.ndarray:
    """A partitioned slice as ``uint64``, the dtype of every frame.

    Exact: ``_event_array`` rejected negative and out-of-universe values.
    One dtype keeps a window holding raw and counted frames from
    combining them through float64.
    """
    return part.astype(np.uint64, copy=False)


def _ring_counters(producer: RingProducer) -> Dict[str, object]:
    """A ring producer's stall and occupancy counters, keyed by the
    :class:`ShardMetrics` fields they fill."""
    return {
        "transport_stalls": producer.stalls,
        "transport_stall_s": producer.stall_seconds,
        "ring_peak_bytes": producer.peak_bytes,
    }


class WorkerCrashed(RuntimeError):
    """A shard worker process died without completing the protocol.

    Raised by ``drain()``/``snapshot()``/``close()`` instead of hanging
    when a worker was killed (OOM, SIGKILL, crash): carries the shard
    index and exit code so the failure is diagnosable from the message.
    While the shard's ring is still mapped it also carries the ring's
    frame counters — ``committed`` frames published by the producer and
    ``consumed`` frames the worker had taken — pinpointing exactly how
    far the shard's stream got before the crash.
    """

    def __init__(
        self,
        shard: int,
        exitcode: Optional[int],
        doing: str,
        *,
        committed: Optional[int] = None,
        consumed: Optional[int] = None,
    ):
        self.shard = shard
        self.exitcode = exitcode
        self.committed = committed
        self.consumed = consumed
        detail = ""
        if committed is not None:
            detail = (
                f" Ring state at death: {committed} frames committed by "
                f"the producer, {consumed} consumed by the worker."
            )
        super().__init__(
            f"shard {shard} worker process died while {doing} "
            f"(exit code {exitcode}); its accepted events are lost — "
            "the profiler cannot produce a consistent snapshot. "
            "Check worker memory limits and logs; shared-memory "
            "segments are reclaimed on close()." + detail
        )


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
        worker process per shard over shared-memory columnar trees.
    partition:
        ``"hash"`` (default) or ``"range"`` — see
        :mod:`repro.runtime.partition`.
    shard_epsilon:
        Epsilon each shard profiles at. ``None`` (default) inherits
        ``config.epsilon`` — strict bound, ~N× aggregate node budget.
        ``N * config.epsilon`` keeps the single-tree node budget with an
        ``shard_epsilon * n`` snapshot bound (the equal-memory config
        the multi-shard benchmark uses).
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
        if shards is None:
            shards = config.shards
        if executor is None:
            executor = config.executor
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
        self._executor = executor
        self._ring_bytes = ring_bytes
        self._partitioner: Partitioner = make_partitioner(
            partition, shards, config.range_max
        )
        shard_config = config
        if shard_epsilon is not None:
            shard_config = config.with_updates(epsilon=shard_epsilon)
        self._shard_config = shard_config
        # The one frame length both executors cut to: every frame fits
        # the ring, and serial pushes the frames process writes.
        self._frame_events = min(batch_size, max_frame_events(ring_bytes))
        self._clock = clock
        # In-process shard trees and their combining windows (serial
        # executor). Under the process executor both live in the
        # workers; the parent holds per-shard sync state instead.
        self._trees: List[RapTree] = []
        self._windows: List[CombiningWindow] = []
        if executor == "serial":
            self._trees = [
                RapTree.from_config(shard_config) for _ in range(shards)
            ]
            self._windows = [
                CombiningWindow(self._frame_events) for _ in range(shards)
            ]
        # Process-executor plumbing: one worker process, duplex control
        # pipe, ring arena and ring producer per shard, plus the latest
        # synced payload. The final producer counters survive teardown
        # for post-close metrics.
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._conns: List = []
        self._ring_arenas: List[ShmArena] = []
        self._rings: List[RingProducer] = []
        self._ring_tables: List[Optional[Dict[str, object]]] = []
        self._ring_stats: List[Optional[Dict[str, object]]] = [
            None for _ in range(shards)
        ]
        self._shard_states: List[Optional[Dict[str, object]]] = [
            None for _ in range(shards)
        ]
        # Namespace for this profiler's shared-memory segments; close()
        # sweeps it as a crash backstop, so it must exist before open().
        self._shm_prefix = f"rap-{os.getpid():x}-{os.urandom(3).hex()}-"
        # created → open → closed
        self._state = "created"
        # Serializes producers against snapshot epochs.
        self._ingest_lock = threading.Lock()
        # Optional race sanitizer: tracks the ingest lock and guards
        # every in-process shard tree with it (a mutation without the
        # lock is a violation). The process executor runs one more
        # sanitizer *inside* each worker (trees in another address
        # space cannot be wrapped from here) and merges their reports
        # on every sync.
        self._sanitizer = None
        if config.debug_sanitize:
            # Lazy import: checks.sanitizer is a debug facility and the
            # runtime must stay importable without the checks package.
            from ..checks.sanitizer import RapSanitizer

            self._sanitizer = RapSanitizer()
            self._ingest_lock = self._sanitizer.track_lock(
                self._ingest_lock, "Profiler._ingest_lock"
            )
            for index, tree in enumerate(self._trees):
                self._sanitizer.attach_tree(
                    tree, f"shard[{index}]", guard="Profiler._ingest_lock"
                )
        self._errors: List[BaseException] = []
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
        return self._executor

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
        """Start the runtime (spawns the process executor's workers).

        The process executor's workers run the columnar kernel: it is
        built and loaded here, before any ring or worker exists, so a
        missing compiler fails ``open()`` with
        :class:`~repro.core.native.NativeKernelError` and leaves nothing
        behind, and the forked workers share the loaded library.
        """
        if self._state != "created":
            raise RuntimeError(f"cannot open a {self._state} Profiler")
        if self._executor == "process":
            load_kernel()
            self._setup_rings()
            self._spawn_processes()
        self._state = "open"
        return self

    def _setup_rings(self) -> None:
        """Allocate one shared ring region + producer per shard.

        Runs before the workers fork so both sides see the segments.
        If this host has no usable POSIX shared memory, every ring
        already created is unlinked and ``open()`` fails with an
        ``OSError`` before any worker is spawned.
        """
        try:
            for shard in range(self._shards):
                arena = ShmArena(f"{self._shm_prefix}r{shard}-")
                self._ring_arenas.append(arena)
                region = arena.allocate("ring", np.uint8, self._ring_bytes)
                self._rings.append(
                    RingProducer(
                        region,
                        liveness=self._worker_alive(shard),
                        on_wake=self._nudger(shard),
                        clock=self._clock,
                    )
                )
                self._ring_tables.append(arena.segment_table())
        except OSError as error:
            self._teardown_rings(keep_stats=False)
            raise OSError(
                "executor='process' needs POSIX shared memory for its "
                "shard rings and none is usable on this host; use "
                "executor='serial' instead, which needs none"
            ) from error

    def _worker_alive(self, shard: int) -> Callable[[], bool]:
        def alive() -> bool:
            if shard >= len(self._processes):
                return True  # not spawned yet — nothing to be dead
            return self._processes[shard].is_alive()

        return alive

    def _nudger(self, shard: int) -> Callable[[], None]:
        # Edge-triggered wakeup: the producer calls this when it writes
        # into an *empty* ring, so a worker parked on its control pipe
        # re-checks the ring immediately instead of after the poll
        # timeout. Low rate by construction (one nudge per
        # empty-to-non-empty transition, not per frame).
        def nudge() -> None:
            if shard >= len(self._conns):
                return
            try:
                self._conns[shard].send(("wake",))
            except (BrokenPipeError, OSError):
                pass  # a dead worker surfaces via liveness, not here

        return nudge

    def _teardown_rings(self, keep_stats: bool = True) -> None:
        """Drop producers and unlink ring arenas (idempotent).

        Producer views must die before the arena mappings close; the
        final counters are snapshotted first so :attr:`metrics` keeps
        reporting transport stalls after close().
        """
        if keep_stats:
            for shard, producer in enumerate(self._rings):
                self._ring_stats[shard] = _ring_counters(producer)
        self._rings = []
        self._ring_tables = []
        for arena in self._ring_arenas:
            arena.close()
        self._ring_arenas = []

    def _spawn_processes(self) -> None:
        """Fork one worker per shard.

        Fork context when the platform offers it (cheap, inherits the
        loaded interpreter; safe here because this executor starts no
        profiler threads), spawn otherwise. Workers are daemonic so a
        crashed parent cannot leave orphans ingesting forever.
        """
        # Lazy import, noqa'd like the fold path: the worker module
        # necessarily names the columnar kernel.
        from .worker import worker_main

        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else "spawn")
        try:
            for shard in range(self._shards):
                parent_conn, worker_conn = ctx.Pipe(duplex=True)
                # A forked worker inherits the parent end of every pipe
                # made so far, its own included, and closes them; a
                # spawned one inherits none.
                parent_ends = [*self._conns, parent_conn] if fork else []
                process = ctx.Process(
                    target=worker_main,
                    args=(
                        worker_conn,
                        parent_ends,
                        self._shard_config,
                        shard,
                        self._shards == 1,
                        self._shm_prefix,
                        self._ring_tables[shard],
                        self._frame_events,
                    ),
                    name=f"rap-shard-{shard}",
                    daemon=True,
                )
                process.start()
                worker_conn.close()  # parent keeps only its own end
                self._processes.append(process)
                self._conns.append(parent_conn)
            # Wait for every worker's ready handshake (sent after it
            # has built its tree and warmed its ingest path, or with
            # the reason it could not build one), so
            # open() returns a runtime that is actually ready to
            # ingest — start-up cost lands here, not inside the first
            # ingest/drain. Waiting after starting them all lets the
            # warm-ups overlap across workers.
            for shard in range(self._shards):
                refused = self._recv_reply(shard, "ready")
                if refused is not None:
                    raise OSError(
                        f"executor='process' could not place shard "
                        f"{shard}'s tree columns in POSIX shared memory "
                        f"({refused}); use executor='serial' instead, "
                        "which needs none"
                    )
        except BaseException:
            self._reap_processes()
            raise

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
        here as :class:`WorkerCrashed`. Worker teardown is
        unconditional: even when a shard failed mid-ingest and this
        raises, every worker process is exited (terminated if it will
        not go) and every shared-memory segment is unlinked.
        """
        if self._state == "closed":
            if self._snapshot_cache is None:
                raise RuntimeError(
                    "Profiler was closed after a worker failure; "
                    "no final snapshot exists"
                )
            return self._snapshot_cache
        if self._state != "open":
            raise RuntimeError("cannot close a Profiler that was never opened")
        with self._ingest_lock:
            try:
                self._quiesce_locked(every=True)
                return self._fold_locked()
            finally:
                self._state = "closed"
                self._reap_processes()

    def _reap_processes(self) -> None:
        """Exit, join and if necessary kill every worker process.

        Ends with a sweep of this profiler's shared-memory namespace:
        workers unlink their own segments on a clean exit, so the sweep
        normally removes nothing — it exists for killed workers. Safe
        to call repeatedly and on partially-constructed state.
        """
        if not self._processes:
            if self._executor == "process":
                self._teardown_rings()
                sweep_prefix(self._shm_prefix)
            return
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for shard, conn in enumerate(self._conns):
            # Wait for the goodbye (sent *after* the worker unlinks its
            # segments) so a clean shutdown leaves /dev/shm empty the
            # moment close() returns; a dead worker just times out.
            process = self._processes[shard]
            waited = 0.0
            try:
                while waited < _EXIT_GRACE:
                    if conn.poll(_POLL_INTERVAL):
                        kind = conn.recv()[0]
                        if kind == "bye":
                            break
                        if kind == "synced":
                            conn.recv_bytes()  # an uncollected reply's block
                    elif not process.is_alive():
                        break
                    else:
                        waited += _POLL_INTERVAL
            except (EOFError, OSError):
                pass
        for process in self._processes:
            process.join(_EXIT_GRACE)  # noqa: RAP-LINT016 - worker processes live in another address space and cannot take this lock
            if process.is_alive():
                process.terminate()
                process.join(_EXIT_GRACE)  # noqa: RAP-LINT016 - bounded wait on a terminated process; no lock interaction possible
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(_EXIT_GRACE)  # noqa: RAP-LINT016 - bounded wait on a killed process; no lock interaction possible
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._processes = []
        self._conns = []
        self._teardown_rings()
        sweep_prefix(self._shm_prefix)

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
                total = self._shard_events[shard] + sum(
                    count for _, count in bucket
                )
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
        for shard, part in enumerate(self._partitioner.split(chunk)):
            if len(part):
                self._submit_frame(shard, _frame_values(part), None, len(part))

    def _submit_frame(
        self,
        shard: int,
        values: np.ndarray,
        counts: Optional[np.ndarray],
        weight: int,
    ) -> None:
        """Hand one frame (raw when ``counts`` is ``None``) to its shard:
        its ring (process) or its window, flushed inline when full
        (serial).

        Runs on the dispatching thread under the ingest lock (which is
        what makes the producer side single-writer). A consumer that
        died while we were blocked on ring space surfaces as
        :class:`WorkerCrashed` with the ring's commit counters.
        """
        if self._executor == "process":
            try:
                self._rings[shard].write_frame(
                    FRAME_BATCH if counts is None else FRAME_CBATCH,
                    values,
                    counts,
                )
            except RingStalled:
                raise self._worker_crashed(
                    shard, "draining its ring"
                ) from None
        else:
            window = self._windows[shard]
            if window.push(values, counts):
                window.flush(self._trees[shard])
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
        if self._errors:
            raise RuntimeError(
                "shard worker failed while ingesting"
            ) from self._errors[0]

    # ------------------------------------------------------------------
    # Process-executor protocol (parent side)
    # ------------------------------------------------------------------

    def _worker_crashed(self, shard: int, doing: str) -> WorkerCrashed:
        """Build the dead-worker diagnostic, with ring counters while the
        shard's ring is mapped: the last-committed/last-consumed frame
        sequences pinpoint how far the shard's stream got."""
        committed = consumed = None
        if shard < len(self._rings):
            producer = self._rings[shard]
            committed = producer.committed_frames
            consumed = producer.consumed_frames
        return WorkerCrashed(
            shard,
            self._processes[shard].exitcode,
            doing,
            committed=committed,
            consumed=consumed,
        )

    def _receive(self, shard: int, expected: str, raw: bool = False):
        """Receive one message from a worker (a raw block when ``raw``),
        failing fast on a dead worker instead of hanging."""
        conn = self._conns[shard]
        process = self._processes[shard]
        while True:
            try:
                if conn.poll(_POLL_INTERVAL):
                    return conn.recv_bytes() if raw else conn.recv()
            except (EOFError, OSError):
                raise self._worker_crashed(
                    shard, f"answering {expected!r}"
                ) from None
            if not process.is_alive():
                raise self._worker_crashed(shard, f"answering {expected!r}")

    def _recv_reply(self, shard: int, expected: str):
        """Receive one protocol reply, failing fast on a dead worker."""
        reply = self._receive(shard, expected)
        if reply[0] != expected:
            raise RuntimeError(
                f"shard {shard} worker protocol error: expected "
                f"{expected!r}, got {reply[0]!r}"
            )
        return reply[1]

    def _sync_workers(self, every: bool = False) -> None:
        """Quiesce the workers with news and cache their synced state.

        Callers hold the ingest lock, so no frame is mid-flight. The
        sync travels *in-band* — a sync frame written behind the
        shard's data frames — so a ``synced`` reply proves the worker
        applied every accepted frame. Worker ingest failures and
        sanitizer reports ride back on the reply. Each reply is
        followed by one raw block, the shard's fold input: its counter
        rows, or a lone shard's compact columns (see
        :mod:`repro.core.serialize`). It is kept with the payload, so a
        fold maps no worker memory.

        Only a shard with news gets a sync frame: one whose ring
        committed a frame since its last acknowledged sync. A worker's
        state changes only on frames, so a clean shard's cached payload
        is exactly what a round trip would return. ``every=True``
        (``close()``) syncs every shard regardless, so a worker that
        died after its last sync still surfaces as
        :class:`WorkerCrashed`.

        The sync is broadcast to every ring that needs one before any
        reply is collected, so the workers' wakeup and flush latencies
        overlap instead of serializing one round trip per shard. Each
        reply echoes the sync frame's sequence number, proving it
        answers *this* epoch boundary.
        """
        expected: Dict[int, int] = {}
        for shard, producer in enumerate(self._rings):
            state = self._shard_states[shard]
            if not (
                every
                or state is None
                or producer.sequence != state["sync_seq"]
            ):
                continue
            try:
                expected[shard] = producer.write_sync()
            except RingStalled:
                raise self._worker_crashed(
                    shard, "accepting a sync frame"
                ) from None
        for shard, sequence in expected.items():
            payload = self._recv_reply(shard, "synced")
            payload["block"] = self._receive(shard, "synced", raw=True)
            if payload.get("sync_seq") != sequence:
                raise RuntimeError(
                    f"shard {shard} worker protocol error: sync reply "
                    f"for frame {payload.get('sync_seq')!r}, expected "
                    f"{sequence}"
                )
            self._accept_sync_payload(shard, payload)

    def _accept_sync_payload(
        self, shard: int, payload: Dict[str, object]
    ) -> None:
        """Record one shard's synced state; surface its errors/reports."""
        self._shard_states[shard] = payload
        if payload.get("sanitizer") and self._sanitizer is not None:
            self._sanitizer.merge_worker_report(
                str(payload["label"]), payload["sanitizer"]
            )
        if payload.get("error"):
            self._errors.append(
                RuntimeError(
                    f"shard {shard} worker ingest failed:\n"
                    f"{payload['error']}"
                )
            )

    # ------------------------------------------------------------------
    # Snapshots and queries
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Wait until every accepted batch is applied to its shard tree.

        A quiesce without the fold: after ``drain()`` returns, the shard
        trees reflect every event accepted so far, but no snapshot is
        built. The serial executor flushes every shard's combining
        window inline; the process executor syncs every worker whose
        ring committed a frame since its last sync, which flushes that
        worker's window. Either way this bounds ingest latency
        measurements and refreshes the per-shard state :attr:`metrics`
        is served from. With nothing new since the last sync it returns
        without a round trip.
        """
        if self._state != "open":
            raise RuntimeError("cannot drain a Profiler that is not open")
        with self._ingest_lock:
            self._quiesce_locked()

    def _quiesce_locked(self, every: bool = False) -> None:
        """Apply every accepted frame to its shard tree (lock held):
        flush each window (serial) or sync the workers (process, see
        :meth:`_sync_workers`). Worker failures surface here."""
        if self._executor == "process":
            self._sync_workers(every)
        else:
            for window, tree in zip(self._windows, self._trees):
                window.flush(tree)
        self._raise_worker_errors()

    def snapshot(self) -> RapTree:
        """Fold every shard into one consistent tree (epoch boundary).

        Locks out new ingests, flushes every serial window or syncs
        every worker with news (see :meth:`drain`), then folds the shard
        trees with :func:`~repro.core.combine.combine_many`, which
        builds the combined tree from the shards' counter rows with
        array kernels into a ``ColumnarRapTree``. The result is
        independent of the live shards (single-shard profiles are
        cloned; process-executor shards are folded from the rows their
        workers sent at sync) and cached: repeated
        snapshots with no intervening ingest return the same tree
        without a sync round trip or a re-fold. A worker that died
        after the last sync is reported by the next ``drain()`` or
        ``snapshot()`` after an ingest into its shard, or by
        ``close()``; the cached answer is exact until then.
        """
        if self._state == "closed":
            if self._snapshot_cache is None:
                raise RuntimeError(
                    "Profiler was closed after a worker failure; "
                    "no final snapshot exists"
                )
            return self._snapshot_cache
        if self._state != "open":
            raise RuntimeError("cannot snapshot a Profiler that is not open")
        with self._ingest_lock:
            self._quiesce_locked()
            return self._fold_locked()

    def _fold_locked(self) -> RapTree:
        if self._sanitizer is not None:
            self._sanitizer.begin_fold("Profiler._ingest_lock")
        try:
            if self._executor == "process":
                epoch = tuple(
                    int(state["generation"])  # type: ignore[index]
                    for state in self._shard_states
                )
            else:
                epoch = tuple(
                    tree.mutation_generation for tree in self._trees
                )
            if (
                self._snapshot_cache is not None
                and epoch == self._snapshot_epoch
            ):
                return self._snapshot_cache
            clock = self._clock
            start = clock() if clock is not None else 0.0
            if self._executor == "process":
                folded = self._fold_process_locked()
            elif len(self._trees) == 1:
                folded = self._trees[0].clone()
            else:
                folded = combine_many(self._trees)
            if clock is not None:
                self._snapshot_seconds += clock() - start
            self._snapshots += 1
            self._snapshot_cache = folded
            self._snapshot_epoch = epoch
            return folded
        finally:
            if self._sanitizer is not None:
                self._sanitizer.end_fold()

    def _fold_process_locked(self) -> RapTree:
        """Fold the synced worker shards from their sync blocks.

        Every worker is quiesced (``_sync_workers`` ran under this
        lock), and each shard's last reply left its block with its
        payload, so the fold maps no worker memory. Multiple shards
        fold their counter rows (decoded as views of the blocks)
        through ``combine_many``. A lone shard has nothing to fold: its
        compact columns are wrapped by ``ColumnarRapTree.attach_columns``
        and cloned, exactly as the serial executor clones its lone
        tree. Either way the snapshot is a fresh ``ColumnarRapTree``.
        """
        from ..core.columnar import ColumnarRapTree  # noqa: RAP-LINT012 - a lone shard syncs its columns; the attach protocol is columnar-only by design

        payloads = self._shard_states
        assert None not in payloads, "fold before first sync"
        if len(payloads) == 1:
            (payload,) = payloads
            state: Dict[str, object] = payload["column_state"]  # type: ignore
            columns = decode_columns(
                payload["block"],  # type: ignore[arg-type]
                ColumnarRapTree.COLUMN_DTYPES,
                int(state["capacity"]),  # type: ignore[arg-type]
            )
            return ColumnarRapTree.attach_columns(
                self._shard_config, columns, state
            ).clone()
        return combine_many(
            [
                CounterRows(
                    self._shard_config,
                    int(payload["events"]),  # type: ignore[arg-type]
                    int(payload["node_count"]),  # type: ignore[arg-type]
                    *decode_counter_rows(payload["block"]),  # type: ignore
                )
                for payload in payloads
            ]
        )

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
        read the live trees under the serial executor and each shard's
        latest synced state under the process executor; neither
        flushes a window, so events still buffered are not in them —
        call :meth:`drain` (or take a snapshot) first for exact,
        deterministic values.
        """
        shards: List[ShardMetrics] = []
        for index in range(self._shards):
            entry = ShardMetrics(
                shard=index,
                events=self._shard_events[index],
                batches=self._shard_batches[index],
            )
            if self._executor == "process":
                payload = self._shard_states[index]
                if payload is not None:
                    entry.splits = int(payload["splits"])  # type: ignore[arg-type]
                    entry.merge_batches = int(payload["merge_batches"])  # type: ignore[arg-type]
                    entry.node_count = int(payload["node_count"])  # type: ignore[arg-type]
                # Backpressure lives on the ring producer: live producers
                # answer; after teardown the counters ``_teardown_rings``
                # kept do.
                counters = (
                    _ring_counters(self._rings[index])
                    if index < len(self._rings)
                    else self._ring_stats[index]
                )
                for name, value in (counters or {}).items():
                    setattr(entry, name, value)
            else:
                tree = self._trees[index]
                stats = tree.stats
                entry.splits = stats.splits
                entry.merge_batches = stats.merge_batches
                entry.node_count = tree.node_count
            shards.append(entry)
        return RuntimeMetrics(
            shards=shards,
            snapshots=self._snapshots,
            snapshot_seconds=self._snapshot_seconds,
            ingest_seconds=self._ingest_seconds,
        )

    def shard_trees(self) -> Sequence[RapTree]:
        """The live shard trees (read-only view; do not mutate).

        Flushes every shard's combining window first, so the trees
        reflect every accepted event. Serial executor only:
        process-executor shard trees live in worker address spaces —
        take a :meth:`snapshot` (or use :attr:`metrics`) instead of
        reaching for the live objects.
        """
        if self._executor == "process":
            raise RuntimeError(
                "shard_trees() is not available under executor='process': "
                "the trees live in worker processes; use snapshot() for a "
                "folded copy or metrics for per-shard counters"
            )
        with self._ingest_lock:
            self._quiesce_locked()
        return tuple(self._trees)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profiler(shards={self._shards}, executor={self._executor!r}, "
            f"state={self._state!r}, events={sum(self._shard_events)})"
        )
