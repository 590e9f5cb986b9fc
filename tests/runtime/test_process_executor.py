"""Process-executor lifecycle: shared memory, teardown, crashed workers.

The multiprocess executor owns real OS resources — worker processes and
named POSIX shared-memory segments — so beyond the accuracy contract
(covered by ``test_shard_determinism``) its tests pin the resource
contract:

* every ``close()`` path (clean, mid-ingest exception, crashed worker)
  leaves no segment in ``/dev/shm`` and no live child process;
* a worker killed out from under the profiler surfaces a diagnostic
  :class:`WorkerCrashed` from ``drain()``/``snapshot()``/``close()``
  instead of hanging a queue join forever;
* the sanitizer, metrics and snapshot-epoch machinery behave
  identically to the threaded executor.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import ColumnarRapTree, RapConfig, dump_tree, find_hot_ranges
from repro.runtime import Profiler, WorkerCrashed
from repro.runtime import profiler as profiler_module
from repro.runtime.shm import sweep_prefix

from tests.core.test_tree_fastpath import zipf_stream

UNIVERSE = 2**16
EPS = 0.05


def process_config(**overrides) -> RapConfig:
    options = dict(
        epsilon=EPS, backend="columnar", executor="process", shards=2
    )
    options.update(overrides)
    return RapConfig(UNIVERSE, **options)


def shm_leftovers(prefix: str = "rap-") -> list:
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return [entry for entry in entries if entry.startswith(prefix)]


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def assert_no_leaks() -> None:
    __tracebackhide__ = True
    assert shm_leftovers() == []
    assert multiprocessing.active_children() == []


class TestLifecycle:
    def test_clean_session_leaves_nothing_behind(self):
        rng = random.Random(41)
        values = np.asarray(
            zipf_stream(rng, UNIVERSE, 30_000), dtype=np.uint64
        )
        with Profiler.from_config(process_config(shards=4)) as profiler:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
            assert snapshot.events == len(values)
        assert_no_leaks()

    def test_close_returns_final_snapshot_and_is_idempotent(self):
        profiler = Profiler.from_config(process_config()).open()
        profiler.ingest(np.arange(5_000) % 1234)
        final = profiler.close()
        assert final.events == 5_000
        assert profiler.close() is final
        assert profiler.closed
        assert_no_leaks()

    def test_mid_ingest_exception_path_still_reaps_everything(self):
        values = np.arange(10_000) % 4321
        with pytest.raises(RuntimeError, match="boom"):
            with Profiler.from_config(process_config()) as profiler:
                profiler.ingest(values)
                raise RuntimeError("boom")
        assert_no_leaks()

    def test_open_without_shared_memory_fails_typed(self, monkeypatch):
        # The first shard's ring arena is created for real, the second
        # fails: open() must unlink the first, spawn no worker and
        # surface the OSError instead of downgrading to another path.
        from repro.runtime import profiler as profiler_module

        real_arena = profiler_module.ShmArena
        created = []

        def flaky_arena(prefix):
            if created:
                raise OSError("shared memory disabled for this test")
            created.append(real_arena(prefix))
            return created[-1]

        monkeypatch.setattr(profiler_module, "ShmArena", flaky_arena)
        profiler = Profiler.from_config(process_config())
        with pytest.raises(OSError, match="executor='serial'") as excinfo:
            profiler.open()
        assert "shared memory disabled" in str(excinfo.value.__cause__)
        assert len(created) == 1
        assert profiler._processes == []  # noqa: SLF001
        assert_no_leaks()

    def test_worker_arena_failure_fails_open_typed(self, monkeypatch):
        # A worker that cannot place its tree columns in shared memory
        # refuses to start: open() raises, reaps every worker and
        # unlinks every ring.
        from repro.runtime import worker

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers inherit the patched arena only under fork")

        class NoSharedMemory(worker.ShmArena):
            def allocate(self, *args, **kwargs):
                raise OSError("shared memory disabled for this test")

        monkeypatch.setattr(worker, "ShmArena", NoSharedMemory)
        profiler = Profiler.from_config(process_config())
        with pytest.raises(OSError, match="executor='serial'") as excinfo:
            profiler.open()
        message = str(excinfo.value)
        assert "shard 0" in message and "shared memory disabled" in message
        assert profiler._processes == []  # noqa: SLF001
        assert_no_leaks()

    def test_killed_parent_leaves_no_worker_and_no_segment(self):
        # A worker notices its parent is gone only when the control pipe
        # hits EOF, which needs every copy of the parent's end closed;
        # the orphans then unlink the whole session, rings included.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers inherit the parent's ends only under fork")
        if not (os.path.isdir("/proc") and os.path.isdir("/dev/shm")):
            pytest.skip("needs /proc and /dev/shm")
        script = (
            "import time\n"
            "import numpy as np\n"
            "from repro.core import RapConfig\n"
            "from repro.runtime import Profiler\n"
            f"config = RapConfig({UNIVERSE}, epsilon={EPS})\n"
            "profiler = Profiler(config, shards=2, executor='process')\n"
            "profiler.open()\n"
            "profiler.ingest(np.arange(10_000, dtype=np.uint64) % 4_999)\n"
            "pids = [str(p.pid) for p in profiler._processes]\n"
            "print(profiler._shm_prefix, *pids, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=env,
            start_new_session=True,
            text=True,
        )
        prefix = ""
        try:
            # Read one line only: the workers hold the pipe open too.
            prefix, *pids = child.stdout.readline().split()
            assert len(pids) == 2 and shm_leftovers(prefix)
            os.kill(child.pid, signal.SIGKILL)
            child.wait()
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                alive = [pid for pid in map(int, pids) if running(pid)]
                if not alive and not shm_leftovers(prefix):
                    break
                time.sleep(0.05)
            assert [pid for pid in map(int, pids) if running(pid)] == []
            assert shm_leftovers(prefix) == []
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.stdout.close()
            child.wait()
            if prefix:
                sweep_prefix(prefix)

    def test_unknown_backpressure_rejected_before_open(self):
        # The ring only blocks: there is no policy knob left to pass,
        # and passing one fails in the constructor, before open() maps
        # any ring.
        with pytest.raises(TypeError, match="backpressure"):
            Profiler.from_config(process_config(), backpressure="block")
        assert_no_leaks()

    def test_snapshot_epoch_cache_spans_syncs(self):
        with Profiler.from_config(process_config()) as profiler:
            profiler.ingest(np.arange(8_000) % 999)
            first = profiler.snapshot()
            # No intervening ingest: same epoch, same folded object.
            assert profiler.snapshot() is first
            profiler.ingest(np.arange(100) % 999)
            assert profiler.snapshot() is not first
        assert_no_leaks()

    def test_metrics_aggregate_like_other_executors(self):
        with Profiler.from_config(process_config(shards=4)) as profiler:
            profiler.ingest(np.arange(20_000) % 15_000)
            profiler.drain()
            metrics = profiler.metrics
        assert metrics.events == 20_000
        assert len(metrics.shards) == 4
        assert all(shard.node_count > 0 for shard in metrics.shards)
        assert_no_leaks()

    def test_shard_trees_are_not_reachable(self):
        with Profiler.from_config(process_config()) as profiler:
            with pytest.raises(RuntimeError, match="worker process"):
                profiler.shard_trees()
        assert_no_leaks()

    def test_ingest_counted_routes_by_shard(self):
        with Profiler.from_config(process_config()) as profiler:
            profiler.ingest_counted([(7, 10), (40_000, 3), (7, 5)])
            snapshot = profiler.snapshot()
        assert snapshot.events == 18
        assert snapshot.estimate(7, 7) >= 0
        assert_no_leaks()

    def test_sanitized_process_run_is_clean(self):
        config = process_config(debug_sanitize=True)
        with Profiler.from_config(config, shards=2) as profiler:
            profiler.ingest(np.arange(10_000) % 2_000)
            profiler.drain()
        sanitizer = profiler.sanitizer
        assert sanitizer is not None
        report = sanitizer.report()
        assert report["violations"] == []
        # Worker-side sanitizers reported in on the sync.
        assert set(report["workers"]) == {"shard[0]", "shard[1]"}
        assert_no_leaks()


class TestColumnarSnapshot:
    def test_two_shard_fold_owns_its_columns(self, monkeypatch):
        # The fold reads the counter rows the workers synced; check the
        # result owns none of their memory, then read it after close()
        # has unlinked every segment.
        real_fold = profiler_module.combine_many
        aliased = []

        def fold(shards):
            folded = real_fold(shards)
            rows = [
                column
                for shard in shards
                for column in shard[3:]  # los, his, counts, depths
            ]
            aliased.append(
                any(
                    np.shares_memory(getattr(folded, name), column)
                    for name in ColumnarRapTree.COLUMN_DTYPES
                    for column in rows
                )
            )
            return folded

        monkeypatch.setattr(profiler_module, "combine_many", fold)
        rng = random.Random(43)
        values = np.asarray(
            zipf_stream(rng, UNIVERSE, 40_000), dtype=np.uint64
        )
        ranges = [
            (lo, lo + width)
            for lo, width in (
                (rng.randrange(UNIVERSE - 4096), rng.randrange(4096))
                for _ in range(32)
            )
        ]
        profiler = Profiler.from_config(process_config(shards=2)).open()
        try:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
            assert type(snapshot) is ColumnarRapTree
            assert aliased == [False]
            snapshot.check_invariants()
            dump = dump_tree(snapshot)
            estimates = [snapshot.estimate(lo, hi) for lo, hi in ranges]
            hot = profiler.hot_ranges()
            assert hot == find_hot_ranges(snapshot)
        finally:
            final = profiler.close()
        assert_no_leaks()
        assert final is snapshot and snapshot.events == len(values)
        assert dump_tree(snapshot) == dump
        assert [snapshot.estimate(lo, hi) for lo, hi in ranges] == estimates
        assert profiler.hot_ranges() == hot


@pytest.mark.parametrize("shards", [1, 2])
def test_snapshot_maps_no_worker_memory(monkeypatch, shards):
    # The sync replies carry every shard's fold input, so a snapshot
    # opens no shared-memory segment by name.
    from multiprocessing import shared_memory

    opened = []

    class CountingSharedMemory(shared_memory.SharedMemory):
        def __init__(self, name=None, create=False, size=0):
            if not create:
                opened.append(name)
            super().__init__(name=name, create=create, size=size)

    values = np.arange(20_000, dtype=np.uint64) % 3_001
    with Profiler.from_config(process_config(shards=shards)) as profiler:
        monkeypatch.setattr(
            shared_memory, "SharedMemory", CountingSharedMemory
        )
        profiler.ingest(values)
        snapshot = profiler.snapshot()
        assert opened == []
        assert snapshot.events == len(values)
    assert_no_leaks()


def committed(profiler: Profiler) -> list:
    """Frames each shard's ring has committed (data and sync alike)."""
    return [ring.committed_frames for ring in profiler._rings]  # noqa: SLF001 - the sync rule is observable only on the rings


def values_on_shard(profiler: Profiler, shard: int, count: int) -> list:
    shard_of = profiler._partitioner.shard_of  # noqa: SLF001 - route a stream to one shard
    return [v for v in range(UNIVERSE) if shard_of(v) == shard][:count]


class TestSyncRule:
    """A read syncs only the shards with news since their last sync.

    A worker's state changes only on frames, so a shard whose ring
    committed nothing since its acknowledged sync is answered from its
    cached payload, with no round trip.
    """

    def test_read_with_nothing_new_skips_the_round_trip(self):
        with Profiler.from_config(process_config()) as profiler:
            profiler.ingest(np.arange(6_000) % 4_999)
            first = profiler.snapshot()
            frames = committed(profiler)
            assert profiler.query(0, UNIVERSE - 1) == first.estimate(
                0, UNIVERSE - 1
            )
            assert profiler.snapshot() is first
            profiler.drain()
            assert profiler.hot_ranges(0.1) == find_hot_ranges(first, 0.1)
            assert committed(profiler) == frames
            assert profiler.snapshot() is first
            assert profiler.metrics.events == 6_000
            assert profiler.close() is first
        assert_no_leaks()

    def test_counted_ingest_to_one_shard_syncs_only_that_shard(self):
        with Profiler.from_config(process_config()) as profiler:
            profiler.ingest(np.arange(6_000) % 4_999)
            first = profiler.snapshot()
            frames = committed(profiler)
            value = values_on_shard(profiler, 0, 1)[0]
            profiler.ingest_counted([(value, 5)])
            second = profiler.snapshot()
            # Shard 0: the counted frame plus its sync frame; shard 1
            # took no frame at all.
            assert committed(profiler) == [frames[0] + 2, frames[1]]
            assert second is not first
            assert second.events == first.events + 5
            assert second.estimate(value, value) >= first.estimate(
                value, value
            )
        assert_no_leaks()


class TestCrashedWorker:
    """A killed worker is a diagnosable error, never a hang."""

    def _kill_shard(self, profiler: Profiler, shard: int) -> None:
        os.kill(profiler._processes[shard].pid, signal.SIGKILL)  # noqa: SLF001 - crash injection needs the real pid
        deadline = time.monotonic() + 10.0
        while profiler._processes[shard].is_alive():  # noqa: SLF001
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("killed worker still alive")
            time.sleep(0.01)

    def test_worker_killed_after_a_snapshot(self):
        profiler = Profiler.from_config(process_config()).open()
        try:
            profiler.ingest(np.arange(6_000) % 4_999)
            first = profiler.snapshot()
            self._kill_shard(profiler, 0)
            # A read with nothing new makes no round trip, and the fold
            # is still exactly the accepted stream: it answers from it.
            assert profiler.query(0, UNIVERSE - 1) == first.estimate(
                0, UNIVERSE - 1
            )
            assert profiler.snapshot() is first
        finally:
            # close() syncs every shard, news or not.
            with pytest.raises(WorkerCrashed) as excinfo:
                profiler.close()
        assert excinfo.value.shard == 0
        assert profiler.closed
        assert_no_leaks()

    def test_drain_surfaces_worker_death(self):
        profiler = Profiler.from_config(process_config()).open()
        try:
            profiler.ingest(np.arange(2_000) % 999)
            profiler.drain()
            self._kill_shard(profiler, 0)
            with pytest.raises((WorkerCrashed, RuntimeError)) as excinfo:
                profiler.ingest(np.arange(2_000) % 999)
                profiler.drain()
            message = str(excinfo.value) + str(excinfo.value.__cause__)
            assert "worker process died" in message
        finally:
            with pytest.raises((WorkerCrashed, RuntimeError)):
                profiler.close()
        assert_no_leaks()

    def test_ring_stall_on_dead_worker_carries_frame_counters(self):
        """A worker SIGKILLed mid-stream must not wedge the producer.

        The ring is sized to the minimum, so pushing a large batch
        through a dead shard fills it; the producer's liveness check
        converts the stall into :class:`WorkerCrashed` carrying the
        ring's committed/consumed frame sequences instead of spinning
        forever on a consumer that will never free space.
        """
        from repro.runtime import MIN_RING_BYTES

        profiler = Profiler.from_config(
            process_config(),
            ring_bytes=MIN_RING_BYTES,
            batch_size=256,
        ).open()
        try:
            profiler.ingest(np.arange(1_000) % 999)
            profiler.drain()
            self._kill_shard(profiler, 0)
            start = time.monotonic()
            with pytest.raises((WorkerCrashed, RuntimeError)) as excinfo:
                # Enough frames to wrap the minimum ring many times over
                # — guaranteed to stall on the dead shard.
                for _ in range(50):
                    profiler.ingest(np.arange(2_000) % 999)
                profiler.drain()
            assert time.monotonic() - start < 30.0, "producer wedged"
            crash = excinfo.value
            while crash is not None and not isinstance(crash, WorkerCrashed):
                crash = crash.__cause__
            assert isinstance(crash, WorkerCrashed)
            assert crash.shard == 0
            assert crash.committed is not None
            assert crash.consumed is not None
            assert crash.committed >= crash.consumed >= 0
            assert "Ring state at death" in str(crash)
        finally:
            with pytest.raises((WorkerCrashed, RuntimeError)):
                profiler.close()
        assert_no_leaks()

    def test_ring_sync_death_carries_frame_counters(self):
        """Death detected at the sync reply (ring not full) still
        reports how far the frame stream got before the crash."""
        profiler = Profiler.from_config(process_config()).open()
        try:
            profiler.ingest(np.arange(4_000) % 999)
            profiler.drain()
            self._kill_shard(profiler, 1)
            profiler.ingest(np.arange(4_000) % 999)
            with pytest.raises((WorkerCrashed, RuntimeError)) as excinfo:
                profiler.drain()
            crash = excinfo.value
            while crash is not None and not isinstance(crash, WorkerCrashed):
                crash = crash.__cause__
            assert isinstance(crash, WorkerCrashed)
            assert crash.committed is not None
            # Every accepted frame was published under the commit
            # protocol (length word last), so the committed counter can
            # only ever lead the consumed one.
            assert crash.committed >= crash.consumed
        finally:
            with pytest.raises((WorkerCrashed, RuntimeError)):
                profiler.close()
        assert_no_leaks()

    def test_crashed_close_reports_and_reaps(self):
        profiler = Profiler.from_config(process_config()).open()
        profiler.ingest(np.arange(2_000) % 999)
        profiler.drain()
        self._kill_shard(profiler, 1)
        with pytest.raises((WorkerCrashed, RuntimeError)):
            profiler.close()
        assert profiler.closed
        # A post-crash profiler has no final snapshot to answer from.
        with pytest.raises(RuntimeError, match="worker failure"):
            profiler.snapshot()
        assert_no_leaks()
