"""Profiler service tests: lifecycle, consistency, metrics, policies."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import RapConfig, find_hot_ranges
from repro.runtime import MIN_RING_BYTES, HashPartitioner, Profiler
from repro.runtime.ring import max_frame_events
from repro.workloads.spec import benchmark

UNIVERSE = 2**16

#: Every backend/executor pair the runtime ships.
SHIPPED_CONFIGS = [
    ("columnar", "serial"),
    ("columnar", "process"),
]


def config(**overrides) -> RapConfig:
    base = dict(epsilon=0.05)
    base.update(overrides)
    return RapConfig(UNIVERSE, **base)


def tiny_ring_profiler(executor: str = "process") -> Profiler:
    """Two shards behind minimum-size rings, so the ring, not
    ``batch_size``, sets the frame length and the producer keeps
    running into a full ring."""
    return Profiler(
        config(backend="columnar"), shards=2, executor=executor,
        ring_bytes=MIN_RING_BYTES, batch_size=128,
    )


def zipf_values(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=n) % UNIVERSE).astype(np.uint64)


class TestLifecycle:
    def test_ingest_before_open_raises(self):
        profiler = Profiler(config())
        with pytest.raises(RuntimeError, match="open"):
            profiler.ingest([1, 2, 3])

    def test_open_twice_raises(self):
        profiler = Profiler(config(), executor="serial").open()
        with pytest.raises(RuntimeError, match="open"):
            profiler.open()
        profiler.close()

    def test_ingest_after_close_raises(self):
        profiler = Profiler(config(), executor="serial").open()
        profiler.close()
        with pytest.raises(RuntimeError, match="closed"):
            profiler.ingest([1])

    def test_snapshot_before_open_raises(self):
        with pytest.raises(RuntimeError, match="not open"):
            Profiler(config()).snapshot()

    def test_context_manager_opens_and_closes(self):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([1, 2, 3])
        assert profiler.closed
        assert profiler.snapshot().events == 3

    def test_close_is_idempotent_and_returns_final_snapshot(self):
        profiler = Profiler(config(), executor="serial").open()
        profiler.ingest([5] * 10)
        first = profiler.close()
        assert profiler.close() is first
        assert first.events == 10

    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError, match="shards"):
            Profiler(config(), shards=0)
        with pytest.raises(ValueError, match="executor"):
            Profiler(config(), executor="fork")
        with pytest.raises(ValueError, match="batch_size"):
            Profiler(config(), batch_size=0)


class TestSingleShardPassthrough:
    """One shard: the partitioner passes every chunk through whole."""

    def test_window_does_not_alias_the_callers_array(self):
        # A single shard's frame is the caller's chunk itself; the
        # window must own its bytes before ingest() returns.
        values = np.full(10_000, 7, dtype=np.uint64)
        with Profiler(config(), shards=1, executor="serial") as profiler:
            profiler.ingest(values)
            values[:] = 9
            assert profiler.query(7, 7) >= 10_000 * (1 - 0.05)
            assert profiler.query(8, UNIVERSE - 1) == 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_snapshot_does_not_alias_the_live_tree(self, executor):
        with Profiler(config(), shards=1, executor=executor) as profiler:
            profiler.ingest([7] * 100)
            snapshot = profiler.snapshot()
            profiler.ingest([9] * 50)
            assert snapshot.events == 100  # unchanged by later ingest
            # A writable copy: growing it leaves the profile untouched.
            for value in range(0, UNIVERSE, 97):
                snapshot.add(value, 3)
            snapshot.check_invariants()
            live = profiler.snapshot()
            assert live.events == 150
            assert live.estimate(0, UNIVERSE - 1) == 150


class TestSerialIngestion:
    """Multi-shard ingestion on the default (serial) executor."""

    def test_all_events_accounted_for(self):
        values = zipf_values(5, 50_000)
        with Profiler(config(), shards=4) as profiler:
            profiler.ingest(values)
            snapshot = profiler.snapshot()
        assert snapshot.events == len(values)
        assert snapshot.estimate(0, UNIVERSE - 1) == len(values)
        snapshot.check_invariants()

    def test_snapshot_cached_per_epoch(self):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([1, 2, 3])
            first = profiler.snapshot()
            assert profiler.snapshot() is first
            profiler.ingest([4])
            second = profiler.snapshot()
            assert second is not first
            assert second.events == 4

    def test_drain_applies_all_accepted_batches(self):
        values = zipf_values(31, 20_000)
        with Profiler(config(), shards=4, batch_size=256) as profiler:
            profiler.ingest(values)
            profiler.drain()
            assert sum(
                tree.events for tree in profiler.shard_trees()
            ) == len(values)
        with pytest.raises(RuntimeError, match="not open"):
            profiler.drain()

    def test_query_is_snapshot_sugar(self):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([100] * 500)
            assert profiler.query(0, UNIVERSE - 1) == 500

    def test_worker_error_propagates_to_producer(self, monkeypatch):
        import multiprocessing

        from repro.runtime import window

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers inherit the patched flush only under fork")

        def poisoned_flush(raw, counted):
            raise RuntimeError("injected flush failure")

        # The ingest boundary rejects every input the shard trees would,
        # so the worker-side failure is injected into its flush.
        monkeypatch.setattr(window, "_combine_frames", poisoned_flush)
        profiler = tiny_ring_profiler().open()
        with pytest.raises(RuntimeError, match="shard worker failed"):
            # The failure rides back on the next sync.
            profiler.ingest_counted([(5, 1)] * 8)
            profiler.drain()
        # close() reports the failed shard again, and still reaps.
        with pytest.raises(RuntimeError, match="shard worker failed"):
            profiler.close()
        assert profiler.closed

    def test_ingest_counted_routes_by_value(self):
        with Profiler(config(), shards=4, executor="serial") as profiler:
            profiler.ingest_counted([(5, 100), (1000, 20), (5, 1)])
            assert profiler.snapshot().events == 121


class TestBackpressurePolicies:
    """The one policy, ``block``, on rings too small for the stream."""

    def test_block_loses_nothing(self):
        values = zipf_values(11, 30_000)
        with tiny_ring_profiler() as profiler:
            profiler.ingest(values)
            assert profiler.snapshot().events == len(values)
            assert profiler.metrics.events == len(values)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_counted_bucket_larger_than_a_frame_is_cut_to_fit(
        self, executor
    ):
        # 400 pairs for one shard make a counted frame 13x larger than
        # a minimum ring holds: both executors cut it into the same
        # frames of max_frame_events(ring_bytes) pairs.
        shard_of = HashPartitioner(2).shard_of  # the profiler's partition
        pairs = [(v, 2) for v in range(UNIVERSE) if shard_of(v) == 0][:400]
        with tiny_ring_profiler(executor) as profiler:
            profiler.ingest_counted(pairs)
            shard = profiler.metrics.shards[0]
            assert shard.batches == -(-400 // max_frame_events(MIN_RING_BYTES))
            assert profiler.snapshot().events == shard.events == 800


class TestMetrics:
    def test_deterministic_counters(self):
        values = zipf_values(19, 20_000)
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest(values)
            profiler.snapshot()
            metrics = profiler.metrics
        assert metrics.events == len(values)
        assert metrics.snapshots == 1
        assert sum(shard.batches for shard in metrics.shards) > 0
        assert all(shard.splits > 0 for shard in metrics.shards)
        assert metrics.node_count == sum(
            tree.node_count for tree in profiler.shard_trees()
        )
        # Without a clock, every time-shaped field is exactly zero.
        assert metrics.ingest_seconds == 0.0
        assert metrics.snapshot_seconds == 0.0
        assert metrics.events_per_second == 0.0

    def test_injected_clock_populates_time_metrics(self):
        ticks = iter(range(1000))
        clock = lambda: float(next(ticks))  # noqa: E731
        with Profiler(
            config(), shards=2, executor="serial", clock=clock
        ) as profiler:
            profiler.ingest(zipf_values(23, 1000))
            profiler.snapshot()
            metrics = profiler.metrics
        assert metrics.ingest_seconds > 0.0
        assert metrics.snapshot_seconds > 0.0
        assert metrics.events_per_second > 0.0

    def test_as_dict_round_trips_all_fields(self):
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest([1, 2, 3])
            payload = profiler.metrics.as_dict()
        assert payload["events"] == 3
        assert len(payload["shards"]) == 2
        assert {"shard", "events", "batches", "splits"} <= set(
            payload["shards"][0]
        )

    def test_metrics_dict_shape_is_pinned(self):
        # The exact key sets are part of the metrics contract: dashboards
        # and the regression harness key into these dumps by name, so a
        # rename or a dropped field must fail loudly here first.
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest([1, 2, 3])
            payload = profiler.metrics.as_dict()
        assert set(payload) == {
            "events",
            "node_count",
            "transport_stalls",
            "transport_stall_s",
            "snapshots",
            "snapshot_seconds",
            "ingest_seconds",
            "events_per_second",
            "shards",
        }
        assert set(payload["shards"][0]) == {
            "shard",
            "events",
            "batches",
            "transport_stalls",
            "transport_stall_s",
            "ring_peak_bytes",
            "splits",
            "merge_batches",
            "node_count",
        }

    def test_transport_fields_read_zero_off_ring(self):
        # Ring-space stalls are a process/ring phenomenon; the serial
        # executor never touches a ring, so every transport field stays
        # exactly zero and metric dumps stay reproducible.
        with Profiler(config(), shards=2, executor="serial") as profiler:
            profiler.ingest(zipf_values(31, 4000))
            metrics = profiler.metrics
        assert metrics.transport_stalls == 0
        assert metrics.transport_stall_s == 0.0
        for shard in metrics.shards:
            assert shard.transport_stalls == 0
            assert shard.transport_stall_s == 0.0
            assert shard.ring_peak_bytes == 0


class TestHotRanges:
    def test_hot_report_finds_the_heavy_value(self):
        values = np.concatenate([
            np.full(5000, 42, dtype=np.uint64),
            zipf_values(29, 5000),
        ])
        with Profiler(config(), shards=4) as profiler:
            profiler.ingest(values)
            report = profiler.hot_ranges(hot_fraction=0.2)
        assert report, "expected at least one hot range"
        top = report[0]
        assert top.lo <= 42 <= top.hi
        # The range estimate is a lower bound within eps * n of the truth.
        exact = int(np.count_nonzero((values >= top.lo) & (values <= top.hi)))
        assert top.inclusive_weight <= exact
        assert exact - top.inclusive_weight <= 0.05 * len(values)

    @pytest.mark.parametrize("backend,executor", SHIPPED_CONFIGS)
    def test_gzip_values_give_the_figure_5_family(self, backend, executor):
        # Section 4.1's definition, through the public query: the
        # nested small-value family and a pointer band are hot on
        # gzip's load values, exactly as find_hot_ranges reports them.
        stream = benchmark("gzip").value_stream(60_000, seed=1)
        gzip_config = RapConfig(
            stream.universe, epsilon=0.01, backend=backend
        )
        with Profiler(gzip_config, shards=2, executor=executor) as profiler:
            profiler.ingest(np.asarray(stream.values, dtype=np.uint64))
            report = profiler.hot_ranges(0.10)
            assert report == find_hot_ranges(profiler.snapshot(), 0.10)
        assert 5 <= len(report) <= 9  # paper: 7
        assert sorted(
            (item.lo, item.hi) for item in report if item.hi < 2**20
        ) == [(0, 0xF), (0, 0xFF), (0, 0x3FFF), (0, 0x3FFFF)]
        assert any(
            0x1_0000_0000 <= item.lo < 0x2_0000_0000 for item in report
        )

    def test_empty_profile_has_no_hot_ranges(self):
        with Profiler(config(), shards=2) as profiler:
            assert profiler.hot_ranges() == []

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with Profiler(config(), shards=2) as profiler:
            profiler.ingest([1, 2, 3])
            with pytest.raises(ValueError, match="hot_fraction"):
                profiler.hot_ranges(hot_fraction=fraction)


class TestIngestBoundary:
    """Non-integer and negative input fails at ``ingest``, on every
    executor, with nothing accepted."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rejects_non_integer_and_negative_values(self, executor):
        with Profiler(
            config(backend="columnar"), shards=2, executor=executor
        ) as profiler:
            for bad in (
                np.array([1.5, 1.9, 7.99]),
                np.array([1 + 2j]),
                np.array([True, False]),
            ):
                with pytest.raises(ValueError, match="integers"):
                    profiler.ingest(bad)
            with pytest.raises(ValueError, match=r"value -1 outside universe"):
                profiler.ingest([-1, 3])
            with pytest.raises(ValueError, match=r"value -1 outside universe"):
                profiler.ingest_counted([(-1, 1)])
            profiler.ingest(np.array([1, 3], dtype=np.int32))
            assert profiler.metrics.events == 2
            snapshot = profiler.snapshot()
        assert snapshot.events == 2
        assert snapshot.estimate(0, UNIVERSE - 1) == 2

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rejects_out_of_universe_values_and_bad_counts(self, executor):
        with Profiler(
            config(backend="columnar"), shards=2, executor=executor
        ) as profiler:
            profiler.ingest([7, 8])
            for call, args, message in (
                (profiler.ingest, np.array([70000], dtype=np.uint64),
                 "value 70000 outside universe"),
                (profiler.ingest, [1 << 16], "value 65536 outside universe"),
                # Earlier shards' parts of the chunk are not applied.
                (profiler.ingest,
                 np.array([1, 2, 3, 4, 70000], dtype=np.uint64),
                 "value 70000 outside universe"),
                (profiler.ingest_counted, [(5, 0), (6, -3)],
                 "count must be positive, got 0"),
                (profiler.ingest_counted, [(5, 1), (UNIVERSE, 1)],
                 "value 65536 outside universe"),
            ):
                with pytest.raises(ValueError, match=message):
                    call(args)
                assert profiler.snapshot().events == 2
            profiler.ingest([9])
            assert profiler.close().events == 3

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("universe", [2**64 + 1, 2**70])
    def test_universe_past_2_64_is_rejected_at_construction(
        self, executor, universe
    ):
        # Frames carry uint64 values, so no value past 2**64 - 1 could
        # ever be ingested: refuse the universe before any tree, ring
        # or worker exists, instead of an untyped OverflowError at the
        # first ingest or workers dying in open().
        with pytest.raises(ValueError, match=r"at most 2\*\*64"):
            Profiler(RapConfig(universe), shards=2, executor=executor)
        assert multiprocessing.active_children() == []
        with Profiler(
            RapConfig(2**64, epsilon=0.01), shards=2, executor=executor
        ) as profiler:
            profiler.ingest([2**64 - 1])
            profiler.ingest_counted([(2**64 - 1, 2)])
            assert profiler.query(2**64 - 1, 2**64 - 1) == 3

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("partition,shards", [("hash", 1), ("range", 2)])
    def test_list_and_counted_frames_combine_exactly_past_2_53(
        self, executor, partition, shards
    ):
        # A Python list arrives as int64 and ingest_counted builds
        # uint64 frames; one window holding both must not combine them
        # through float64, which rounds 2**60 + 1 down to 2**60.
        value = 2**60 + 1
        with Profiler(
            RapConfig(2**64, epsilon=0.01, backend="columnar"),
            shards=shards, executor=executor, partition=partition,
        ) as profiler:
            profiler.ingest([value] * 60_000)
            profiler.ingest_counted([(value, 40_000)])
            assert profiler.query(value, value) >= 100_000 * (1 - 0.01)
            assert profiler.query(2**60, 2**60) == 0  # never overcounts

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_ingest_counted_rejects_counts_past_int64_atomically(
        self, executor
    ):
        # A count of 2**63 has no int64 representation; the pair on
        # shard 0 before it must not be accepted either.
        shard_of = HashPartitioner(2).shard_of  # the profiler's partition
        a = next(v for v in range(UNIVERSE) if shard_of(v) == 0)
        b = next(v for v in range(UNIVERSE) if shard_of(v) == 1)
        with Profiler(
            config(backend="columnar"), shards=2, executor=executor
        ) as profiler:
            with pytest.raises(ValueError, match="64-bit"):
                profiler.ingest_counted([(a, 5), (b, 2**63)])
            assert profiler.metrics.events == 0
            assert profiler.close().events == 0

    @pytest.mark.parametrize(
        "executor,backend",
        [("serial", "columnar"), ("process", "columnar")],
    )
    @pytest.mark.parametrize(
        "pairs",
        [[(1, 2**62), (2, 2**62)], [(5, 2**62), (5, 2**62)]],
        ids=["two-values", "one-value"],
    )
    def test_ingest_counted_rejects_shard_totals_past_int64(
        self, executor, backend, pairs
    ):
        # Every count fits int64, their sum on the shard does not: the
        # flush would overflow the columnar event total, or wrap the
        # window's int64 combining sum, after emptying the window.
        with Profiler(
            config(backend=backend), shards=1, executor=executor
        ) as profiler:
            profiler.ingest_counted([(9, 3)])
            with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
                profiler.ingest_counted(pairs)
            assert profiler.metrics.events == 3
            assert profiler.snapshot().events == 3
            # Up to the bound itself is accepted.
            profiler.ingest_counted([(5, 2**62), (6, 2**62 - 4)])
            assert profiler.snapshot().events == 2**63 - 1

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_ingest_counted_rejects_non_integer_pairs(self, executor):
        with Profiler(
            config(backend="columnar"), shards=2, executor=executor
        ) as profiler:
            profiler.ingest_counted([(7, 2)])
            for pairs in (
                # Truncating these would accept 3 events that never
                # happened; ``ingest(np.array([7.9]))`` refuses them.
                [(7.9, 2.6), (True, 1)],
                [(5, 1), (True, 1)],
                [(5, 1), (np.bool_(True), 1)],
                [(5, 1), (np.float64(6.0), 1)],
                [(5, 1), ("6", 1)],
            ):
                with pytest.raises(
                    ValueError, match="event values must be integers"
                ):
                    profiler.ingest_counted(pairs)
                assert profiler.snapshot().events == 2
            for pairs in ([(5, 1), (6, 2.6)], [(5, 1), (6, True)]):
                with pytest.raises(
                    ValueError, match="event counts must be integers"
                ):
                    profiler.ingest_counted(pairs)
                assert profiler.snapshot().events == 2
            # Python and numpy integers of every width still pass.
            profiler.ingest_counted(
                [(np.uint64(9), np.int32(3)), (np.int16(11), 1)]
            )
            assert profiler.close().events == 6
