"""Unit and property tests for combining RAP trees (shard merging)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactProfiler
from repro.core import (
    ColumnarRapTree,
    RapConfig,
    RapTree,
    dump_tree,
    find_hot_ranges,
)
from repro.core.combine import (
    combine_by_descent,
    combine_many,
    combine_trees,
    split_stream_profile,
)
from repro.core.node import RapNode

UNIVERSE = 1024


def tree_of(values, epsilon=0.05, universe=UNIVERSE) -> RapTree:
    tree = RapTree(
        RapConfig(range_max=universe, epsilon=epsilon,
                  merge_initial_interval=256)
    )
    tree.extend(values)
    return tree


class TestCombineTrees:
    def test_weight_is_sum_of_shards(self):
        first = tree_of([1, 2, 3] * 50)
        second = tree_of([500] * 100)
        combined = combine_trees(first, second)
        assert combined.events == first.events + second.events
        assert combined.total_weight() == combined.events

    def test_estimates_at_least_shard_sums(self):
        rng = np.random.default_rng(1)
        first_values = [int(v) for v in rng.integers(0, UNIVERSE, 800)]
        second_values = [7] * 500
        first = tree_of(first_values)
        second = tree_of(second_values)
        combined = combine_trees(first, second)
        for lo, hi in [(0, UNIVERSE - 1), (7, 7), (0, 63), (512, 1023)]:
            assert combined.estimate(lo, hi) >= (
                first.estimate(lo, hi) + second.estimate(lo, hi)
            ) - combined.config.merge_threshold(combined.events) * 8

    def test_combined_error_bound(self):
        """Undercount of the combined tree <= sum of shard bounds."""
        rng = np.random.default_rng(2)
        shard_a = [int(v) for v in rng.integers(0, UNIVERSE, 1_000)]
        shard_b = [13] * 700 + [900] * 300
        combined = combine_trees(tree_of(shard_a), tree_of(shard_b))
        exact = ExactProfiler(UNIVERSE)
        exact.extend(shard_a)
        exact.extend(shard_b)
        for lo, hi in [(13, 13), (0, 255), (896, 959)]:
            undercount = exact.count(lo, hi) - combined.estimate(lo, hi)
            assert undercount <= 0.05 * combined.events + 2 * 10  # slack

    def test_rejects_mismatched_universes(self):
        with pytest.raises(ValueError, match="different universes"):
            combine_trees(tree_of([1]), tree_of([1], universe=2048))

    def test_rejects_mismatched_branching(self):
        first = tree_of([1])
        second = RapTree(RapConfig(range_max=UNIVERSE, branching=2))
        second.add(1)
        with pytest.raises(ValueError, match="branching"):
            combine_trees(first, second)

    def test_combining_with_empty_tree_is_identityish(self):
        populated = tree_of([5] * 300 + list(range(100)))
        empty = RapTree(populated.config)
        combined = combine_trees(populated, empty)
        assert combined.events == populated.events
        assert combined.estimate(5, 5) >= populated.estimate(5, 5) - 1

    def test_invariants_after_combine(self):
        first = tree_of([3] * 400)
        second = tree_of(list(range(0, UNIVERSE, 3)))
        combined = combine_trees(first, second)
        combined.check_invariants()


class TestEpsilonMismatch:
    def test_rejects_mismatched_epsilon(self):
        first = tree_of([1, 2, 3] * 20, epsilon=0.05)
        second = tree_of([500] * 60, epsilon=0.01)
        with pytest.raises(ValueError, match="epsilon"):
            combine_trees(first, second)
        with pytest.raises(ValueError, match="epsilon"):
            combine_many([first, second])

    def test_escape_hatch_records_max_epsilon(self):
        first = tree_of([1, 2, 3] * 20, epsilon=0.05)
        second = tree_of([500] * 60, epsilon=0.01)
        combined = combine_trees(
            first, second, allow_mismatched_epsilon=True
        )
        assert combined.config.epsilon == 0.05
        assert combined.events == first.events + second.events
        combined.check_invariants()

    def test_escape_hatch_keeps_other_config(self):
        first = tree_of([1] * 50, epsilon=0.01)
        second = tree_of([2] * 50, epsilon=0.08)
        combined = combine_many(
            [first, second], allow_mismatched_epsilon=True
        )
        assert combined.config.epsilon == 0.08
        assert combined.config.range_max == UNIVERSE
        assert combined.config.branching == first.config.branching

    def test_matched_epsilon_needs_no_flag(self):
        first = tree_of([1] * 50)
        second = tree_of([2] * 50)
        combined = combine_trees(first, second)
        assert combined.config.epsilon == first.config.epsilon


class TestCombineMany:
    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            combine_many([])

    def test_single_tree_passthrough(self):
        tree = tree_of([1, 2])
        assert combine_many([tree]) is tree

    def test_sharded_equals_single_pass_within_bound(self):
        rng = np.random.default_rng(4)
        values = [7] * 900 + [int(v) for v in rng.integers(0, UNIVERSE, 2_100)]
        rng.shuffle(values)
        config = RapConfig(range_max=UNIVERSE, epsilon=0.05,
                           merge_initial_interval=256)
        shards = [values[i::4] for i in range(4)]
        sharded = split_stream_profile(config, shards)
        single = RapTree(config)
        single.extend(values)
        assert sharded.events == single.events
        for lo, hi in [(7, 7), (0, 255), (0, UNIVERSE - 1)]:
            difference = abs(sharded.estimate(lo, hi) - single.estimate(lo, hi))
            assert difference <= 0.05 * len(values) * 2


class TestCombineProperties:
    @given(
        first_values=st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=1, max_size=400,
        ),
        second_values=st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=1, max_size=400,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_conservation_and_validity(self, first_values, second_values):
        combined = combine_trees(tree_of(first_values), tree_of(second_values))
        assert combined.events == len(first_values) + len(second_values)
        combined.check_invariants()

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=2, max_size=600,
        ),
        lo=st.integers(min_value=0, max_value=UNIVERSE - 1),
        width=st.integers(min_value=1, max_value=UNIVERSE),
    )
    @settings(max_examples=30, deadline=None)
    def test_combined_estimate_still_lower_bound(self, values, lo, width):
        hi = min(lo + width - 1, UNIVERSE - 1)
        half = len(values) // 2
        combined = combine_trees(tree_of(values[:half]), tree_of(values[half:]))
        exact = ExactProfiler(UNIVERSE)
        exact.extend(values)
        assert combined.estimate(lo, hi) <= exact.count(lo, hi)


UNIVERSES = [
    2, 3, 5, 1000, 1023, 4096, 2**32 + 7, 10**12 + 3, 2**64, 2**64 + 5,
]


def shard_of(config: RapConfig, seed: int, events: int) -> RapTree:
    """A seeded shard: a few hot values (item leaves) over a uniform tail."""
    rnd = random.Random(seed)
    universe = config.range_max
    hot = [rnd.randrange(universe) for _ in range(rnd.randint(1, 6))]
    values = [
        rnd.choice(hot) if rnd.random() < 0.7 else rnd.randrange(universe)
        for _ in range(events)
    ]
    tree = RapTree.from_config(config)
    tree.extend(values)
    return tree


class TestArrayFoldMatchesDescent:
    """``combine_many`` folds by array kernels up to ``2**64``; the
    reference descent must build the byte-identical tree."""

    @given(
        universe=st.sampled_from(UNIVERSES),
        branching=st.sampled_from([2, 3, 4, 8]),
        shards=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.sampled_from([0, 1, 40, 700, 2500]),
                st.sampled_from(["object", "columnar"]),
                st.sampled_from([0.02, 0.05, 0.2]),
            ),
            min_size=1, max_size=6,
        ),
        mismatched=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_dump_is_byte_identical(self, universe, branching, shards, mismatched):
        trees = []
        for seed, events, backend, epsilon in shards:
            if universe > 2**64:
                backend = "object"  # columns hold 64-bit bounds only
            config = RapConfig(
                range_max=universe,
                epsilon=epsilon if mismatched else 0.05,
                branching=branching,
                merge_initial_interval=64,
                backend=backend,
            )
            trees.append(shard_of(config, seed, events))
        folded = combine_many(trees, allow_mismatched_epsilon=mismatched)
        reference = combine_by_descent(
            trees, allow_mismatched_epsilon=mismatched
        )
        assert dump_tree(folded) == dump_tree(reference)
        folded.check_invariants()

    @given(
        universe=st.sampled_from([u for u in UNIVERSES if u <= 2**64]),
        branching=st.sampled_from([2, 3, 4, 8]),
        shards=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.sampled_from([0, 1, 40, 700, 2500]),
            ),
            min_size=2, max_size=4,
        ),
        hot_fraction=st.sampled_from([0.02, 0.1, 0.5]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_backend_follows_the_config(
        self, universe, branching, shards, hot_fraction, data
    ):
        def shards_for(backend):
            config = RapConfig(
                range_max=universe,
                epsilon=0.05,
                branching=branching,
                merge_initial_interval=64,
                backend=backend,
            )
            return [shard_of(config, seed, events) for seed, events in shards]

        columnar_shards = shards_for("columnar")
        folded = combine_many(columnar_shards)
        assert type(folded) is ColumnarRapTree
        folded.check_invariants()
        as_object = combine_many(shards_for("object"))
        assert type(as_object) is RapTree
        reference = combine_by_descent(columnar_shards)
        assert type(reference) is RapTree
        for other in (as_object, reference):
            assert dump_tree(folded) == dump_tree(other)
            assert find_hot_ranges(folded, hot_fraction) == find_hot_ranges(
                other, hot_fraction
            )
        bound = st.integers(min_value=0, max_value=universe - 1)
        for lo, hi in data.draw(
            st.lists(st.tuples(bound, bound), min_size=1, max_size=8)
        ):
            lo, hi = min(lo, hi), max(lo, hi)
            assert folded.estimate(lo, hi) == as_object.estimate(lo, hi)
            assert folded.estimate(lo, hi) == reference.estimate(lo, hi)

    def test_attached_shards_fold_without_a_cover(self):
        config = RapConfig(range_max=2**64, epsilon=0.02, backend="columnar")
        shards = [shard_of(config, seed, 3000) for seed in (1, 2, 3)]
        attached = []
        for tree in shards:
            columns = {
                name: getattr(tree, name)
                for name in ColumnarRapTree.COLUMN_DTYPES
            }
            attached.append(
                ColumnarRapTree.attach_columns(
                    config, columns, tree.column_state()
                )
            )
        folded = combine_many(attached)
        assert dump_tree(folded) == dump_tree(combine_by_descent(shards))
        attached[0].check_invariants()
        clone = attached[1].clone()
        clone.check_invariants()

    # The two tamper tests edit tree nodes in place, so they pin the
    # object backend: a columnar tree's nodes are a read-only view
    # that the fold never reads.
    def test_counter_off_the_partition_is_rejected(self):
        config = RapConfig(range_max=1024, epsilon=0.05, backend="object")
        first = shard_of(config, 7, 500)
        second = shard_of(config, 8, 500)
        second.root.children[0].lo += 1  # no longer a partition cell
        with pytest.raises(ValueError, match="partition range"):
            combine_many([first, second])

    def test_counter_below_an_item_is_rejected(self):
        config = RapConfig(range_max=1024, epsilon=0.05, backend="object")
        first = shard_of(config, 7, 500)
        second = shard_of(config, 8, 500)
        item = next(
            node for node in second.nodes()
            if node.lo == node.hi and node.count
        )
        item.attach_child(RapNode(item.lo, item.hi, count=item.count))
        item.count = 0
        with pytest.raises(ValueError, match="below an item range"):
            combine_many([first, second])

    def test_complete_partition_tree_is_valid_before_and_after_merge(self):
        # Root [0, 15] with all four cells, the second cell expanded
        # again: the layout the array fold hands to the columnar kernel.
        config = RapConfig(range_max=16, epsilon=0.3, branching=4)
        los = np.array([0, 0, 4, 8, 12, 4, 5, 6, 7], dtype=np.uint64)
        his = np.array([15, 3, 7, 11, 15, 4, 5, 6, 7], dtype=np.uint64)
        depths = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2])
        parents = np.array([-1, 0, 0, 0, 0, 2, 2, 2, 2])
        counts = np.array([1, 0, 2, 0, 3, 9, 0, 0, 1], dtype=np.int64)
        tree = ColumnarRapTree.from_complete_partition(
            config, los, his, depths, parents, counts
        )
        assert tree.events == 16 and tree.node_count == 9
        tree.check_invariants()
        tree.merge_now()
        tree.check_invariants()
        assert tree.estimate(4, 4) == 9 and tree.total_weight() == 16

    def test_compact_keeps_the_profile(self):
        config = RapConfig(
            range_max=2**64, epsilon=0.02, merge_initial_interval=64,
            backend="columnar",
        )
        tree = shard_of(config, 5, 4000)
        tree.merge_now()
        assert tree._free_top  # noqa: SLF001 - the merge freed slots
        twin = tree.clone()
        tree.compact()
        assert tree._size == tree.node_count  # noqa: SLF001
        assert tree._free_top == 0  # noqa: SLF001
        tree.check_invariants()
        assert dump_tree(tree) == dump_tree(twin)
        # Further ingest lands on the same tree as the uncompacted twin.
        more = shard_of(config, 6, 3000)
        values = [node.lo for node in more.nodes() if node.lo == node.hi]
        for target in (tree, twin):
            target.extend(values * 3)
            target.merge_now()
        tree.check_invariants()
        assert dump_tree(tree) == dump_tree(twin)

    def test_fold_result_is_compact(self):
        config = RapConfig(range_max=2**64, epsilon=0.02, backend="columnar")
        folded = combine_many(
            [shard_of(config, seed, 3000) for seed in (1, 2, 3)]
        )
        assert folded._size == folded.node_count  # noqa: SLF001
        assert folded._free_top == 0  # noqa: SLF001
