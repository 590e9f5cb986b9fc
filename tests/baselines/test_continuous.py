"""Unit tests for the continuous-merge RAP ablation variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.continuous import ContinuousMergeRap, FixedIntervalScheduler
from repro.core import RapConfig, RapTree, combine_many, native
from repro.core.hot_ranges import find_hot_ranges

from tests.core.test_columnar_kernel import no_compiler  # noqa: F401 - fixture


class TestFixedIntervalScheduler:
    def test_fires_every_interval(self):
        scheduler = FixedIntervalScheduler(interval=100)
        assert not scheduler.due(99)
        assert scheduler.due(100)
        scheduler.fired(100)
        assert scheduler.due(200)
        scheduler.fired(200)
        assert scheduler.batches_fired == 2

    def test_skips_ahead_when_behind(self):
        scheduler = FixedIntervalScheduler(interval=100)
        scheduler.fired(450)
        assert scheduler.next_at == 500

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FixedIntervalScheduler(interval=0)


class TestContinuousMergeRap:
    def stream(self, n=8_000):
        rng = np.random.default_rng(12)
        return [
            int(v)
            for v in np.where(
                rng.random(n) < 0.3,
                np.uint64(500),
                rng.integers(0, 2**16, size=n, dtype=np.uint64),
            )
        ]

    def test_merges_far_more_often_than_batched(self):
        config = RapConfig(range_max=2**16, epsilon=0.05)
        continuous = ContinuousMergeRap(config, merge_interval=128)
        continuous.extend(self.stream())
        batched = RapTree(config)
        batched.extend(self.stream())
        assert continuous.stats.merge_batches > 5 * batched.stats.merge_batches
        assert (
            continuous.stats.merge_scan_visits
            > 3 * batched.stats.merge_scan_visits
        )

    def test_memory_no_worse_than_batched(self):
        config = RapConfig(range_max=2**16, epsilon=0.05)
        continuous = ContinuousMergeRap(config, merge_interval=64)
        continuous.extend(self.stream())
        batched = RapTree(config)
        batched.extend(self.stream())
        assert continuous.stats.max_nodes <= batched.stats.max_nodes * 1.1

    def test_same_hot_ranges_as_batched(self):
        """Merging more often buys no profile quality (the ablation)."""
        config = RapConfig(range_max=2**16, epsilon=0.05)
        continuous = ContinuousMergeRap(config, merge_interval=128)
        continuous.extend(self.stream())
        batched = RapTree(config)
        batched.extend(self.stream())
        continuous_hot = {
            (item.lo, item.hi) for item in find_hot_ranges(continuous, 0.10)
        }
        batched_hot = {
            (item.lo, item.hi) for item in find_hot_ranges(batched, 0.10)
        }
        assert continuous_hot == batched_hot

    def test_invariants_hold(self):
        config = RapConfig(range_max=2**16, epsilon=0.05)
        tree = ContinuousMergeRap(config, merge_interval=32)
        tree.extend(self.stream(3_000))
        tree.check_invariants()

    def test_fold_follows_the_config_without_a_compiler(self, no_compiler):
        # A linked tree by inheritance: its config says so, and a fold
        # of such trees goes by descent without loading the kernel.
        tree = ContinuousMergeRap(RapConfig(range_max=256, epsilon=0.05))
        for value in range(150):
            tree.add(value % 7)
        assert tree.config.backend == "object"
        folded = combine_many([tree, tree])
        assert type(folded) is RapTree
        assert folded.events == 300
        assert native._loaded is None  # noqa: SLF001 - the kernel stays unloaded
