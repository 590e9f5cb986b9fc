"""Fast-path equivalence: descent cache and the counted update loop.

The hot-path layer (locality-aware descent cache, the inline
``add_counted`` loop behind ``extend``/``add_batch``, counted-add closed
forms) must be *observationally identical* to the plain reference
algorithm: root descent per event, one threshold evaluation per
arriving unit, and a full recursive post-order merge walk. These tests
pin that down on seeded zipf and phased streams by comparing, batch by
batch:

* the exact tree shape (every node's range and counter, in pre-order);
* ``estimate()`` on random query ranges;
* ``check_invariants()`` on the fast tree.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.core import RapConfig, RapTree
from repro.core.node import RapNode, partition_range


class ReferenceRapTree:
    """The unoptimized RAP algorithm, as a test oracle.

    Single-unit updates only: root descent, threshold checked for the
    one arriving unit, recursive full-tree merge on the same geometric
    schedule. No descent cache, no batch kernels — deliberately the
    simplest correct implementation.
    """

    def __init__(self, config: RapConfig) -> None:
        self.config = config
        self.root = RapNode(0, config.range_max - 1)
        self.node_count = 1
        self.events = 0
        self.next_merge_at = float(config.merge_initial_interval)
        self._eps_over_height = config.epsilon / config.max_height

    def add(self, value: int) -> None:
        node = self.root
        while True:
            child = node.child_covering(value)
            if child is None:
                break
            node = child
        self.events += 1
        threshold = self._eps_over_height * self.events
        if threshold < self.config.min_split_threshold:
            threshold = self.config.min_split_threshold
        while True:
            if node.lo == node.hi:
                node.count += 1
                break
            if node.count + 1 > threshold:
                if node.count <= int(threshold):
                    node.count += 1
                    self._split(node)
                    break
                self._split(node)
                node = node.child_covering(value)
            else:
                node.count += 1
                break
        if self.events >= self.next_merge_at:
            self._merge(self.root, self.config.merge_threshold(self.events))
            while self.next_merge_at <= self.events:
                self.next_merge_at *= self.config.merge_growth

    def _split(self, node: RapNode) -> None:
        existing = {(child.lo, child.hi) for child in node.children}
        for lo, hi in partition_range(
            node.lo, node.hi, self.config.branching
        ):
            if (lo, hi) not in existing:
                node.attach_child(RapNode(lo, hi))
                self.node_count += 1

    def _merge(self, node: RapNode, threshold: float) -> int:
        weight = node.count
        kept = []
        for child in node.children:
            child_weight = self._merge(child, threshold)
            weight += child_weight
            if child_weight <= threshold:
                node.count += child_weight
                child.parent = None
                self.node_count -= 1
            else:
                kept.append(child)
        node.children = kept
        return weight

    def estimate(self, lo: int, hi: int) -> int:
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.lo > hi or node.hi < lo:
                continue
            if lo <= node.lo and node.hi <= hi:
                total += node.subtree_weight()
                continue
            stack.extend(node.children)
        return total


def shape(root: RapNode) -> List[Tuple[int, int, int]]:
    return [(n.lo, n.hi, n.count) for n in root.iter_subtree()]


def zipf_stream(rng: random.Random, universe: int, n: int) -> List[int]:
    """Heavy-tailed stream with strong temporal locality."""
    hot = [rng.randrange(universe) for _ in range(8)]
    out = []
    for _ in range(n):
        if rng.random() < 0.75:
            out.append(rng.choice(hot))
        else:
            out.append(rng.randrange(universe))
    return out


def phased_stream(rng: random.Random, universe: int, n: int) -> List[int]:
    """Program-phase behaviour: hot region shifts every ~n/5 events."""
    out = []
    per_phase = max(1, n // 5)
    produced = 0
    while produced < n:
        base = rng.randrange(universe)
        width = max(1, universe // 64)
        for _ in range(min(per_phase, n - produced)):
            out.append((base + rng.randrange(width)) % universe)
            produced += 1
    return out


CONFIGS = [
    RapConfig(range_max=2**16, epsilon=0.02, merge_initial_interval=256),
    RapConfig(range_max=2**20, epsilon=0.05, merge_initial_interval=1024,
              merge_growth=1.5),
    RapConfig(range_max=4096, epsilon=0.01, branching=8,
              merge_initial_interval=128),
]


@pytest.mark.parametrize("seed", [7, 42, 20060325])
@pytest.mark.parametrize("make_stream", [zipf_stream, phased_stream])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"R{c.range_max}")
class TestObservationalEquivalence:
    def test_batchwise_identical_to_reference(self, seed, make_stream, config):
        rng = random.Random(seed)
        stream = make_stream(rng, config.range_max, 6000)
        fast = RapTree(config)
        reference = ReferenceRapTree(config)
        for start in range(0, len(stream), 500):
            batch = stream[start:start + 500]
            fast.extend(batch)
            for value in batch:
                reference.add(value)
            assert shape(fast.root) == shape(reference.root)
            assert fast.node_count == reference.node_count
            fast.check_invariants()
            for _ in range(20):
                lo = rng.randrange(config.range_max)
                hi = rng.randrange(lo, config.range_max)
                assert fast.estimate(lo, hi) == reference.estimate(lo, hi)

    def test_counted_batches_identical_to_reference(
        self, seed, make_stream, config
    ):
        rng = random.Random(seed + 1)
        stream = make_stream(rng, config.range_max, 6000)
        fast = RapTree(config)
        reference = ReferenceRapTree(config)
        for start in range(0, len(stream), 750):
            batch = stream[start:start + 750]
            counted = {}
            for value in batch:
                counted[value] = counted.get(value, 0) + 1
            fast.add_batch(counted.items())
            for value, count in sorted(counted.items()):
                for _ in range(count):
                    reference.add(value)
            assert shape(fast.root) == shape(reference.root)
            fast.check_invariants()


class TestCountedEqualsRepeated:
    """Regression for the once-computed-threshold bug: ``add(v, k)`` must
    be exactly ``k`` repetitions of ``add(v)``, across split and merge
    boundaries."""

    @pytest.mark.parametrize("count", [2, 9, 100, 2500, 10_000])
    def test_across_split_boundaries(self, count):
        config = RapConfig(range_max=256, epsilon=0.04,
                           merge_initial_interval=10**9)
        counted = RapTree(config)
        repeated = RapTree(config)
        counted.add(7, count)
        for _ in range(count):
            repeated.add(7)
        assert shape(counted.root) == shape(repeated.root)
        counted.check_invariants()

    @pytest.mark.parametrize("count", [100, 1024, 5000])
    def test_across_merge_boundaries(self, count):
        # merge_initial_interval=64 puts several geometric triggers
        # inside a single counted add.
        config = RapConfig(range_max=1024, epsilon=0.05,
                           merge_initial_interval=64)
        counted = RapTree(config)
        repeated = RapTree(config)
        for value in (3, 900, 3):
            counted.add(value, count)
            for _ in range(count):
                repeated.add(value)
            assert shape(counted.root) == shape(repeated.root)
            assert (counted.stats.merge_points
                    == repeated.stats.merge_points)
        counted.check_invariants()

    def test_mixed_random_counts(self):
        rng = random.Random(99)
        config = RapConfig(range_max=2**16, epsilon=0.02,
                           merge_initial_interval=200)
        counted = RapTree(config)
        repeated = RapTree(config)
        for _ in range(300):
            value = rng.randrange(config.range_max)
            count = rng.choice([1, 2, 5, 40, 700])
            counted.add(value, count)
            for _ in range(count):
                repeated.add(value)
        assert shape(counted.root) == shape(repeated.root)
        assert counted.stats.merge_points == repeated.stats.merge_points
        counted.check_invariants()


class TestDescentCacheLifecycle:
    def test_cache_survives_splits_but_not_merges(self):
        config = RapConfig(range_max=1024, epsilon=0.05,
                           merge_initial_interval=10**9)
        tree = RapTree(config)
        tree.add(5)
        cached = tree._cached_node  # noqa: SLF001
        assert cached is not None and cached.covers(5)
        tree.merge_now()
        assert tree._cached_node is None  # noqa: SLF001

    def test_cold_cache_still_routes_correctly(self):
        config = RapConfig(range_max=1024, epsilon=0.05)
        tree = RapTree(config)
        for value in [1, 1023, 1, 1023, 512] * 40:
            tree.add(value)
        tree.check_invariants()
        assert tree.estimate(0, 1023) == 200
