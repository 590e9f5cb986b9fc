"""Partitioner unit tests: determinism, agreement, conservation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import HashPartitioner, RangePartitioner, make_partitioner

UNIVERSE = 2**32


class TestHashPartitioner:
    def test_scalar_and_vector_paths_agree(self):
        partitioner = HashPartitioner(4)
        rng = np.random.default_rng(11)
        values = rng.integers(0, UNIVERSE, size=2000, dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            for value in part.tolist():
                assert partitioner.shard_of(int(value)) == shard

    def test_split_is_a_permutation_preserving_shard_order(self):
        partitioner = HashPartitioner(3)
        values = np.arange(1000, dtype=np.uint64)
        parts = partitioner.split(values)
        assert sum(len(part) for part in parts) == len(values)
        assert sorted(
            int(v) for part in parts for v in part
        ) == list(range(1000))
        for part in parts:
            # Within a shard, input order is preserved (ascending here).
            assert list(part) == sorted(part)

    def test_skewed_stream_spreads_across_shards(self):
        """The point of hashing: a hot value's neighbours spread out."""
        partitioner = HashPartitioner(8)
        dense = np.arange(64, dtype=np.uint64)  # one hot cache line
        parts = partitioner.split(dense)
        occupied = sum(1 for part in parts if len(part))
        assert occupied >= 4

    def test_single_shard_passthrough(self):
        partitioner = HashPartitioner(1)
        values = np.array([5, 6, 7], dtype=np.uint64)
        parts = partitioner.split(values)
        assert len(parts) == 1 and list(parts[0]) == [5, 6, 7]
        assert partitioner.shard_of(123456) == 0

    def test_huge_values_do_not_overflow(self):
        partitioner = HashPartitioner(4)
        values = np.array([2**64 - 1, 2**63, 0], dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            for value in part.tolist():
                assert partitioner.shard_of(int(value)) == shard


    @pytest.mark.parametrize("shards", range(1, 9))
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_split_matches_shard_of_per_value(self, shards, dtype):
        """Every shard count, power of two or not, in both input dtypes:
        each output holds exactly its shard's values, in input order,
        with the dtype the split has always produced."""
        partitioner = HashPartitioner(shards)
        rng = np.random.default_rng(shards)
        top = 2**64 if dtype is np.uint64 else 2**63
        values = rng.integers(0, top, size=3000, dtype=dtype)
        values[:3] = [0, 1, top - 1]
        parts = partitioner.split(values)
        assert len(parts) == shards
        owners = [partitioner.shard_of(v) for v in values.tolist()]
        for shard, part in enumerate(parts):
            expected = [v for v, o in zip(values.tolist(), owners) if o == shard]
            assert part.tolist() == expected
            assert part.dtype == (np.uint64 if shards > 1 else dtype)


class TestRangePartitioner:
    def test_contiguous_slices(self):
        partitioner = RangePartitioner(4, 100)
        assert partitioner.shard_of(0) == 0
        assert partitioner.shard_of(24) == 0
        assert partitioner.shard_of(25) == 1
        assert partitioner.shard_of(99) == 3

    def test_scalar_and_vector_paths_agree(self):
        partitioner = RangePartitioner(5, UNIVERSE)
        rng = np.random.default_rng(13)
        values = rng.integers(0, UNIVERSE, size=2000, dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            for value in part.tolist():
                assert partitioner.shard_of(int(value)) == shard

    @pytest.mark.parametrize(
        "shards, range_max", [(2, 2**64), (3, 2**64), (3, 2**60), (7, 2**64)]
    )
    def test_boundaries_above_2_53_are_exact(self, shards, range_max):
        """Boundaries past 2**53 (and the 2**64 universe itself) stay
        exact: the values either side of each boundary land on the
        shard ``shard_of`` names, in both paths."""
        partitioner = RangePartitioner(shards, range_max)
        probes = [0, range_max - 1]
        for i in range(1, shards):
            bound = (i * range_max) // shards
            probes += [bound - 1, bound, bound + 1]
            assert partitioner.shard_of(bound - 1) == i - 1
            assert partitioner.shard_of(bound) == i
        values = np.array(probes, dtype=np.uint64)
        parts = partitioner.split(values)
        for shard, part in enumerate(parts):
            assert part.dtype == np.uint64
            assert part.tolist() == [
                v for v in probes if partitioner.shard_of(v) == shard
            ]

    def test_profiler_over_2_64_universe(self):
        """A range-partitioned profiler over the full 64-bit universe
        builds, and counts every event on the shard that owns it."""
        from repro.core import RapConfig
        from repro.runtime import Profiler

        profiler = Profiler(RapConfig(2**64), shards=2, partition="range")
        values = np.array(
            [0, 2**63 - 1, 2**63, 2**64 - 1] * 10, dtype=np.uint64
        )
        with profiler:
            profiler.ingest(values)
            snapshot = profiler.close()
        assert snapshot.events == values.size
        assert [shard.events for shard in profiler.metrics.shards] == [20, 20]

    def test_serve_with_range_partition_over_value_universe(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "gcc", "value", "--shards", "2", "--partition",
            "range", "--events", "2000", "--seed", "7",
        ]) == 0
        assert "[serial/range]" in capsys.readouterr().out

    def test_every_value_lands_somewhere(self):
        partitioner = RangePartitioner(3, 10)
        for value in range(10):
            assert 0 <= partitioner.shard_of(value) < 3


class TestMakePartitioner:
    def test_schemes(self):
        assert isinstance(
            make_partitioner("hash", 2, 100), HashPartitioner
        )
        assert isinstance(
            make_partitioner("range", 2, 100), RangePartitioner
        )

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown partition scheme"):
            make_partitioner("modulo", 2, 100)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError, match="shards"):
            make_partitioner("hash", 0, 100)
