"""The process executor: one worker process per shard, fed through rings.

``ProcessExecutor`` is the parent side of the shard-worker protocol
(the worker side is :mod:`repro.runtime.worker`), one of the two
executors behind the :class:`~repro.runtime.profiler.Profiler` front.
Each worker owns its shard tree on its own heap. The dispatching
thread writes binary counted frames straight into a per-shard
shared-memory ring (:mod:`repro.runtime.ring`, segments from
:mod:`repro.runtime.shm`), waiting for space when a ring is full.
Each worker answers a sync with its shard's counter rows (a lone
shard: its compact columns) as one raw block on its control pipe, and
snapshots fold those in the parent, mapping no worker memory. A host
without usable shared memory for the rings fails ``open()`` with an
``OSError``; nothing falls back.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import RapConfig
from ..core.combine import CounterRows, FoldInput
from ..core.serialize import FRAME_BATCH, FRAME_CBATCH
from ..core.serialize import decode_columns, decode_counter_rows
from ..core.native import load_kernel
from .ring import RingProducer, RingStalled
from .shm import ShmArena, sweep_prefix

#: How long (seconds) to poll a live worker for a protocol reply before
#: re-checking liveness, and how long to wait for voluntary exit before
#: escalating to terminate/kill. Generous — a live worker replies as
#: soon as it drains the frames ahead of the request.
_POLL_INTERVAL = 0.1
_EXIT_GRACE = 5.0


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


class ProcessExecutor:
    """Worker processes over shared-memory rings, seen from the parent.

    Holds, per shard, one worker process, its duplex control pipe, its
    ring arena and ring producer, and the latest synced payload. The
    final producer counters survive teardown for post-close metrics.
    The sanitizer, when given, merges the report each worker's own
    sanitizer sends with every sync (trees in another address space
    cannot be wrapped from here).
    """

    name = "process"

    def __init__(
        self, config: RapConfig, shards: int, frame_events: int,
        ring_bytes: int, clock: Optional[Callable[[], float]],
        sanitizer: object,
    ) -> None:
        self._config = config
        self._shards = shards
        self._frame_events = frame_events
        self._ring_bytes = ring_bytes
        self._clock = clock
        self._sanitizer = sanitizer
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._conns: List = []
        self._ring_arenas: List[ShmArena] = []
        self._rings: List[RingProducer] = []
        self._ring_tables: List[Optional[Dict[str, object]]] = []
        self._ring_stats: List[Optional[Dict[str, object]]] = [None] * shards
        self._shard_states: List[Optional[Dict[str, object]]] = [None] * shards
        # Namespace for this executor's shared-memory segments; close()
        # sweeps it as a crash backstop, so it must exist before open().
        self._shm_prefix = f"rap-{os.getpid():x}-{os.urandom(3).hex()}-"
        #: Ingest failures the workers reported, oldest first.
        self.errors: List[BaseException] = []

    def open(self) -> None:
        """Load the kernel, map the rings and spawn the workers.

        The workers run the columnar kernel: it is built and loaded
        here, before any ring or worker exists, so a missing compiler
        fails ``open()`` with
        :class:`~repro.core.native.NativeKernelError` and leaves nothing
        behind, and the forked workers share the loaded library.
        """
        load_kernel()
        self._setup_rings()
        self._spawn_processes()

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
            self._teardown_rings()
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

    def _teardown_rings(self) -> None:
        """Drop producers and unlink ring arenas (idempotent).

        Producer views must die before the arena mappings close; the
        final counters are snapshotted first so :meth:`shard_counters`
        keeps reporting transport stalls after close().
        """
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
        # Looked up at spawn time, so a patched ``worker_main`` is the
        # one that runs; the worker module necessarily names the
        # columnar kernel.
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
                        self._config,
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
            # has built its tree and warmed its ingest path), so open()
            # returns a runtime that is actually ready to ingest —
            # start-up cost lands here, not inside the first
            # ingest/drain. Waiting after starting them all lets the
            # warm-ups overlap across workers.
            for shard in range(self._shards):
                self._recv_reply(shard, "ready")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Exit, join and if necessary kill every worker process.

        Then unlinks the rings and sweeps this executor's shared-memory
        namespace, a backstop that normally removes nothing. Safe to
        call repeatedly and on partially-constructed state.
        """
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for shard, conn in enumerate(self._conns):
            # Wait for the goodbye (sent after the worker unmaps its
            # ring) so the joins below return at once; a dead worker
            # just times out.
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
            process.join(_EXIT_GRACE)
            if process.is_alive():
                process.terminate()
                process.join(_EXIT_GRACE)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(_EXIT_GRACE)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._processes = []
        self._conns = []
        self._teardown_rings()
        sweep_prefix(self._shm_prefix)

    def submit(
        self, shard: int, values: np.ndarray, counts: Optional[np.ndarray]
    ) -> None:
        """Write one frame (raw when ``counts`` is ``None``) to the
        shard's ring, waiting for space when it is full.

        A consumer that died while we were blocked on ring space
        surfaces as :class:`WorkerCrashed` with the ring's commit
        counters.
        """
        try:
            self._rings[shard].write_frame(
                FRAME_BATCH if counts is None else FRAME_CBATCH,
                values,
                counts,
            )
        except RingStalled:
            raise self._worker_crashed(shard, "draining its ring") from None

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

    def sync(self, every: bool) -> Tuple[int, ...]:
        """Quiesce the workers with news; return the snapshot epoch key.

        Callers hold the ingest lock, so no frame is mid-flight. The
        sync travels *in-band* — a sync frame written behind the
        shard's data frames — so a ``synced`` reply proves the worker
        applied every accepted frame. Worker ingest failures (kept in
        :attr:`errors`) and sanitizer reports ride back on the reply.
        Each reply is followed by one raw block, the shard's fold
        input: its counter rows, or a lone shard's compact columns (see
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
        answers *this* epoch boundary. The epoch key is every shard's
        tree generation.
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
        return tuple(
            int(state["generation"])  # type: ignore[index]
            for state in self._shard_states
        )

    def _accept_sync_payload(
        self, shard: int, payload: Dict[str, object]
    ) -> None:
        """Record one shard's synced state; surface its errors/reports."""
        self._shard_states[shard] = payload
        if payload.get("sanitizer") and self._sanitizer is not None:
            self._sanitizer.merge_worker_report(  # type: ignore[attr-defined]
                str(payload["label"]), payload["sanitizer"]
            )
        if payload.get("error"):
            self.errors.append(
                RuntimeError(
                    f"shard {shard} worker ingest failed:\n"
                    f"{payload['error']}"
                )
            )

    def fold_inputs(self) -> Sequence[FoldInput]:
        """The synced shards as fold inputs, from their sync blocks.

        Every worker is quiesced (``sync`` ran under the ingest lock),
        and each shard's last reply left its block with its payload, so
        the fold maps no worker memory. Multiple shards give their
        counter rows, decoded as views of the blocks. A lone shard has
        nothing to fold: its compact columns are wrapped by
        ``ColumnarRapTree.attach_columns``, and the front clones that
        tree, exactly as it clones the serial executor's lone tree.
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
            return [
                ColumnarRapTree.attach_columns(self._config, columns, state)
            ]
        return [
            CounterRows(
                self._config,
                int(payload["events"]),  # type: ignore[arg-type]
                int(payload["node_count"]),  # type: ignore[arg-type]
                *decode_counter_rows(payload["block"]),  # type: ignore
            )
            for payload in payloads
        ]

    def shard_counters(self, shard: int) -> Dict[str, object]:
        """One shard's :class:`ShardMetrics` fields from this side.

        Tree-side fields come from the shard's latest synced state.
        Backpressure lives on the ring producer: live producers answer;
        after teardown the counters ``_teardown_rings`` kept do.
        """
        counters: Dict[str, object] = {}
        payload = self._shard_states[shard]
        if payload is not None:
            for name in ("splits", "merge_batches", "node_count"):
                counters[name] = int(payload[name])  # type: ignore[arg-type]
        if shard < len(self._rings):
            counters.update(_ring_counters(self._rings[shard]))
        else:
            counters.update(self._ring_stats[shard] or {})
        return counters

    def trees(self) -> Sequence[object]:
        raise RuntimeError(
            "shard_trees() is not available under executor='process': "
            "the trees live in worker processes; use snapshot() for a "
            "folded copy or metrics for per-shard counters"
        )
