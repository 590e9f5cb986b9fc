"""Sharded profiles vs the single-tree oracle, and run-to-run determinism.

Splitting a stream across ``N`` shards (each profiling at the inherited
``epsilon``) and folding with ``combine_many`` keeps two properties,
pinned here on seeded zipf and phased streams for 1, 2 and 8 shards:
the folded estimate of a range never overcounts, and the fold conserves
the stream's weight. No undercount bound is claimed for the fold
(``repro.core.combine`` gives a counterexample to ``epsilon * n``); the
``epsilon * n`` comparisons below are spot checks on 60 random ranges
of streams where the gap does not show. The tests also check that
sharded ingestion is a deterministic function of the stream, and run
the acceptance scenario: a 4-shard profiler over a 200k-event zipf
stream whose hot-range report passes the same spot checks against a
single-tree oracle.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, dump_tree
from repro.runtime import Profiler

from tests.core.test_tree_fastpath import phased_stream, shape, zipf_stream

UNIVERSE = 2**16
EPS = 0.05


def exact_counts(values: Sequence[int]) -> np.ndarray:
    """Sorted value array for O(log n) exact range counts."""
    return np.sort(np.asarray(values, dtype=np.int64))


def exact_in(sorted_values: np.ndarray, lo: int, hi: int) -> int:
    left = np.searchsorted(sorted_values, lo, side="left")
    right = np.searchsorted(sorted_values, hi, side="right")
    return int(right - left)


def random_ranges(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    ranges = []
    for _ in range(n):
        lo = rng.randrange(UNIVERSE)
        hi = rng.randrange(lo, UNIVERSE)
        ranges.append((lo, hi))
    return ranges


def profiled_snapshot(values: Sequence[int], shards: int, **options) -> RapTree:
    config = RapConfig(UNIVERSE, epsilon=EPS)
    with Profiler(config, shards=shards, **options) as profiler:
        profiler.ingest(np.asarray(values, dtype=np.uint64))
        return profiler.snapshot()


class TestAccuracyBoundAcrossShardCounts:
    """No overcount and conserved weight for every shard count, with
    ``eps * n`` spot checks on these seeded streams."""

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("make_stream", [zipf_stream, phased_stream])
    def test_folded_estimates_stay_within_bound(self, shards, make_stream):
        rng = random.Random(97)
        values = make_stream(rng, UNIVERSE, 30_000)
        sorted_values = exact_counts(values)
        snapshot = profiled_snapshot(values, shards)
        assert snapshot.events == len(values)
        budget = EPS * len(values)
        for lo, hi in random_ranges(rng, 60):
            exact = exact_in(sorted_values, lo, hi)
            estimate = snapshot.estimate(lo, hi)
            assert estimate <= exact, (shards, lo, hi)
            assert exact - estimate <= budget, (shards, lo, hi)

    @pytest.mark.parametrize("shards", [2, 8])
    def test_sharded_agrees_with_single_tree_oracle(self, shards):
        """Both are within eps*n of exact, so within eps*n of each other."""
        rng = random.Random(101)
        values = zipf_stream(rng, UNIVERSE, 30_000)
        oracle = RapTree.from_config(
            RapConfig(UNIVERSE, epsilon=EPS, backend="object")
        )
        oracle.extend(values)
        snapshot = profiled_snapshot(values, shards)
        budget = EPS * len(values)
        for lo, hi in random_ranges(rng, 60):
            delta = abs(snapshot.estimate(lo, hi) - oracle.estimate(lo, hi))
            assert delta <= budget, (shards, lo, hi)


class TestDeterminism:
    """Serial sharded ingestion is a pure function of the stream."""

    def test_repeat_runs_are_identical(self):
        rng = random.Random(109)
        values = zipf_stream(rng, UNIVERSE, 15_000)
        first = profiled_snapshot(values, 4)
        second = profiled_snapshot(values, 4)
        assert dump_tree(first) == dump_tree(second)


class TestProcessExecutorOracle:
    """The multiprocess executor honors the same accuracy contract.

    Same fold (``combine_many``), same partitioner, same per-shard
    undercount budget — only the shard trees live in worker processes
    over shared memory. The envelope is therefore identical:
    ``eps * n`` against exact counts, hence ``eps * n`` against any
    other executor's snapshot too.
    """

    def test_200k_zipf_within_bound_of_single_tree_oracle(self):
        rng = random.Random(2006)
        values = zipf_stream(rng, UNIVERSE, 200_000)
        sorted_values = exact_counts(values)
        oracle = RapTree.from_config(
            RapConfig(UNIVERSE, epsilon=EPS, backend="object")
        )
        oracle.extend(values)
        snapshot = profiled_snapshot(values, 4, executor="process")
        assert snapshot.events == oracle.events == len(values)
        budget = EPS * len(values)
        for lo, hi in random_ranges(rng, 60):
            exact = exact_in(sorted_values, lo, hi)
            estimate = snapshot.estimate(lo, hi)
            assert estimate <= exact, (lo, hi)
            assert exact - estimate <= budget, (lo, hi)
            assert abs(estimate - oracle.estimate(lo, hi)) <= budget, (lo, hi)

    def test_repeat_process_runs_are_identical(self):
        rng = random.Random(113)
        values = zipf_stream(rng, UNIVERSE, 15_000)
        first = profiled_snapshot(values, 4, executor="process")
        second = profiled_snapshot(values, 4, executor="process")
        assert shape(first.root) == shape(second.root)

    def test_repeat_ring_runs_are_identical(self):
        # Flush points are a pure function of the ring's frame
        # sequence, so repeat runs must serialize identically, not
        # merely share a shape.
        from repro.core import dump_tree

        rng = random.Random(2010)
        values = zipf_stream(rng, UNIVERSE, 15_000)
        first = profiled_snapshot(values, 4, executor="process")
        second = profiled_snapshot(values, 4, executor="process")
        assert dump_tree(first) == dump_tree(second)

    def test_process_within_envelope_of_serial(self):
        # The serial executor is the in-process oracle.
        rng = random.Random(127)
        values = zipf_stream(rng, UNIVERSE, 20_000)
        serial = profiled_snapshot(values, 4, executor="serial")
        process = profiled_snapshot(values, 4, executor="process")
        budget = 2 * EPS * len(values)  # each side undercounts <= eps*n
        for lo, hi in random_ranges(rng, 40):
            delta = abs(process.estimate(lo, hi) - serial.estimate(lo, hi))
            assert delta <= budget, (lo, hi)

    @pytest.mark.parametrize("batch_size", [2048, 10_000])
    @pytest.mark.parametrize("partition", ["hash", "range"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_serial_and_process_build_identical_trees(
        self, shards, partition, batch_size
    ):
        # One ingest semantics: the serial executor pushes the frames
        # the process executor writes into its rings into the same
        # combining windows and flushes them at the same points, so
        # every read is byte-identical. The first segment fills every
        # shard's window past _COMBINE_WINDOW; the small rings make the
        # producer block behind busy workers. At batch_size=10_000 a
        # chunk's frame would not fit a 64 KiB ring whole: the ring's
        # limit sets the frame length, for both executors alike.
        from repro.core import dump_tree
        from repro.runtime.window import _COMBINE_WINDOW

        rng = np.random.default_rng(1000 + 10 * shards + len(partition))
        n = 720_000
        values = np.where(
            rng.random(n) < 0.2,
            rng.zipf(1.3, size=n) % UNIVERSE,
            rng.integers(0, UNIVERSE, size=n),
        ).astype(np.uint64)
        first, rest = values[:600_000], values[600_000:]
        pairs = [(int(v), int(c)) for v, c in zip(
            rng.integers(0, UNIVERSE, size=300), rng.integers(1, 50, size=300)
        )]

        def run(executor):
            config = RapConfig(UNIVERSE, epsilon=EPS, backend="columnar")
            with Profiler(
                config, shards=shards, executor=executor,
                partition=partition, batch_size=batch_size,
                ring_bytes=1 << 16,
            ) as profiler:
                profiler.ingest(first)
                profiler.ingest_counted(pairs)
                mid = dump_tree(profiler.snapshot())
                answer = profiler.query(UNIVERSE // 5, UNIVERSE // 2)
                profiler.ingest(rest)
                profiler.drain()
                counters = [
                    (shard.events, shard.batches, shard.splits,
                     shard.merge_batches, shard.node_count)
                    for shard in profiler.metrics.shards
                ]
                return mid, answer, counters, dump_tree(profiler.snapshot())

        serial = run("serial")
        assert all(
            events > _COMBINE_WINDOW for events, *_ in serial[2]
        ), "every shard's window must fill at least once"
        process = run("process")
        assert serial[0] == process[0]  # mid-stream snapshot
        assert serial[1] == process[1]  # mid-stream query
        assert serial[2] == process[2]  # per-shard counters after drain()
        assert serial[3] == process[3]  # final snapshot


class TestSanitizedRuns:
    """The race sanitizer must observe nothing — and change nothing."""

    def test_sanitized_run_is_clean_and_matches_unsanitized(self):
        rng = random.Random(131)
        values = zipf_stream(rng, UNIVERSE, 30_000)
        plain = profiled_snapshot(values, 4)
        config = RapConfig(UNIVERSE, epsilon=EPS, debug_sanitize=True)
        with Profiler(config, shards=4) as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            sanitized = profiler.snapshot()
        sanitizer = profiler.sanitizer
        assert sanitizer is not None
        assert sanitizer.violations == ()
        report = sanitizer.report()
        assert report["trees_tracked"] == 4
        assert report["events_logged"] > 0
        # Instrumentation is observation-only: identical tree shape.
        assert dump_tree(sanitized) == dump_tree(plain)

    def test_sanitized_serial_run_is_clean(self):
        rng = random.Random(137)
        values = zipf_stream(rng, UNIVERSE, 10_000)
        config = RapConfig(UNIVERSE, epsilon=EPS, debug_sanitize=True)
        with Profiler(config, shards=2, executor="serial") as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            snapshot = profiler.snapshot()
        assert snapshot.events == len(values)
        assert profiler.sanitizer.violations == ()


class TestAcceptanceScenario:
    """Acceptance: 4 shards, 200k zipf events, hot ranges vs oracle."""

    @pytest.fixture(scope="class")
    def stream(self):
        rng = random.Random(2006)  # CGO 2006
        values = zipf_stream(rng, UNIVERSE, 200_000)
        return values, exact_counts(values)

    @pytest.fixture(scope="class")
    def snapshot(self, stream):
        values, _ = stream
        config = RapConfig(UNIVERSE, epsilon=EPS)
        with Profiler(config, shards=4, executor="serial") as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            report = profiler.hot_ranges(hot_fraction=0.05)
            return profiler.snapshot(), report

    def test_hot_report_matches_oracle_within_bound(self, stream, snapshot):
        values, sorted_values = stream
        folded, report = snapshot
        budget = EPS * len(values)

        oracle = RapTree.from_config(
            RapConfig(UNIVERSE, epsilon=EPS, backend="object")
        )
        oracle.extend(values)

        assert folded.events == oracle.events == len(values)
        assert report, "200k zipf stream must surface hot ranges"
        for item in report:
            exact = exact_in(sorted_values, item.lo, item.hi)
            estimate = item.inclusive_weight
            # The range estimate is a lower bound within the documented
            # eps * n budget of both the truth and the oracle's answer.
            assert estimate <= exact
            assert exact - estimate <= budget, item
            assert abs(estimate - oracle.estimate(item.lo, item.hi)) <= budget, item

    def test_hot_report_covers_the_true_heavy_hitters(self, stream, snapshot):
        values, sorted_values = stream
        _, report = snapshot
        counts = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        heavy = [
            value for value, count in counts.items()
            if count >= 0.05 * len(values)
        ]
        assert heavy, "zipf stream should have >=5% heavy hitters"
        for value in heavy:
            assert any(item.lo <= value <= item.hi for item in report), value

    def test_snapshot_satisfies_tree_invariants(self, snapshot):
        folded, _ = snapshot
        folded.check_invariants()
