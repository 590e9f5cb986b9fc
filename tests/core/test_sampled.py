"""Unit tests for the sampling front end (Section 6 unification)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ColumnarRapTree,
    RapConfig,
    RapTree,
    combine_many,
    native,
)
from repro.core.sampled import SampledRapTree

from tests.core.test_columnar_kernel import no_compiler  # noqa: F401 - fixture

CONFIG = RapConfig(range_max=2**20, epsilon=0.05)


class TestConstruction:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampledRapTree(CONFIG, rate=0.0)
        with pytest.raises(ValueError):
            SampledRapTree(CONFIG, rate=1.5)

    def test_rate_one_samples_everything(self):
        sampled = SampledRapTree(CONFIG, rate=1.0, seed=1)
        sampled.extend([1, 2, 3])
        assert sampled.events_seen == 3
        assert sampled.events_sampled == 3


class TestSampling:
    def test_sample_fraction_near_rate(self):
        sampled = SampledRapTree(CONFIG, rate=0.1, seed=2)
        sampled.feed_array(np.full(50_000, 7, dtype=np.uint64))
        assert sampled.events_seen == 50_000
        assert sampled.events_sampled == pytest.approx(5_000, rel=0.15)

    def test_scaled_estimate_near_truth(self):
        rng = np.random.default_rng(3)
        values = np.where(
            rng.random(80_000) < 0.4,
            np.uint64(99),
            rng.integers(0, 2**20, 80_000, dtype=np.uint64),
        )
        sampled = SampledRapTree(CONFIG, rate=0.05, seed=4)
        sampled.feed_array(values)
        truth = float((values == 99).sum())
        assert sampled.estimate(99, 99) == pytest.approx(truth, rel=0.15)

    def test_stddev_shrinks_with_rate(self):
        low = SampledRapTree(CONFIG, rate=0.01, seed=5)
        high = SampledRapTree(CONFIG, rate=0.5, seed=5)
        values = np.full(40_000, 12, dtype=np.uint64)
        low.feed_array(values)
        high.feed_array(values)
        assert high.estimate_stddev(12, 12) < low.estimate_stddev(12, 12)

    def test_memory_far_below_full_profile(self):
        rng = np.random.default_rng(6)
        values = rng.integers(0, 2**20, size=60_000, dtype=np.uint64)
        full = SampledRapTree(CONFIG, rate=1.0, seed=7)
        full.feed_array(values)
        sparse = SampledRapTree(CONFIG, rate=0.02, seed=7)
        sparse.feed_array(values)
        assert sparse.events_sampled < full.events_sampled / 20


class TestHotRanges:
    def test_hot_set_survives_sampling(self):
        rng = np.random.default_rng(8)
        values = np.concatenate(
            [
                np.full(30_000, 4242, dtype=np.uint64),
                rng.integers(0, 2**20, size=70_000, dtype=np.uint64),
            ]
        )
        rng.shuffle(values)
        sampled = SampledRapTree(CONFIG, rate=0.1, seed=9)
        sampled.feed_array(values)
        hot = sampled.hot_ranges(0.10)
        assert any(item.lo <= 4242 <= item.hi for item in hot)

    def test_rescaled_weights_near_full_stream(self):
        values = np.full(50_000, 77, dtype=np.uint64)
        sampled = SampledRapTree(CONFIG, rate=0.2, seed=10)
        sampled.feed_array(values)
        hot = sampled.hot_ranges(0.5)
        assert hot
        assert hot[0].weight == pytest.approx(50_000, rel=0.15)

    def test_empty_stream(self):
        sampled = SampledRapTree(CONFIG, rate=0.5, seed=11)
        assert sampled.hot_ranges() == []
        assert sampled.estimate(0, 10) == 0.0


class TestBounds:
    def test_error_bound_in_full_stream_units(self):
        sampled = SampledRapTree(CONFIG, rate=0.25, seed=12)
        sampled.feed_array(np.full(20_000, 5, dtype=np.uint64))
        # epsilon * sampled / rate ~ epsilon * n
        assert sampled.error_bound() == pytest.approx(
            0.05 * 20_000, rel=0.2
        )

    def test_memory_bytes_delegates(self):
        sampled = SampledRapTree(CONFIG, rate=1.0, seed=13)
        sampled.add(1)
        assert sampled.memory_bytes() == sampled.tree.memory_bytes()
        assert sampled.node_count == sampled.tree.node_count
        assert sampled.config is CONFIG


class TestTreeFollowsTheConfig:
    def test_default_config_samples_into_a_columnar_tree(self):
        sampled = SampledRapTree(CONFIG, rate=0.5, seed=14)
        assert type(sampled.tree) is ColumnarRapTree

    def test_object_config_needs_no_compiler(self, no_compiler):
        config = CONFIG.with_updates(backend="object")
        sampled = SampledRapTree(config, rate=0.5, seed=15)
        sampled.feed_array(np.arange(2_000, dtype=np.uint64) % 37)
        assert type(sampled.tree) is RapTree
        folded = combine_many([sampled.tree, sampled.tree])
        assert type(folded) is RapTree
        assert folded.events == 2 * sampled.events_sampled
        assert native._loaded is None  # noqa: SLF001 - the kernel stays unloaded
