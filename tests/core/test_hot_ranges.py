"""Unit tests for hot-range extraction (Section 4.1 semantics)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnarRapTree,
    RapConfig,
    RapTree,
    dump_tree,
    load_tree,
)
from repro.core.hot_ranges import (
    coverage_of_hot_ranges,
    find_hot_ranges,
    hot_tree,
)
from repro.runtime import Profiler


def profiled_tree(values, epsilon=0.02, universe=256) -> RapTree:
    tree = RapTree(
        RapConfig(range_max=universe, epsilon=epsilon,
                  merge_initial_interval=256)
    )
    for value in values:
        tree.add(value)
    return tree


class TestFindHotRanges:
    def test_empty_tree_has_no_hot_ranges(self):
        tree = profiled_tree([])
        assert find_hot_ranges(tree, 0.10) == []

    def test_dominant_item_is_hot(self):
        tree = profiled_tree([5] * 900 + list(range(100)))
        hot = find_hot_ranges(tree, 0.10)
        assert any(item.lo <= 5 <= item.hi and item.width <= 4 for item in hot)

    def test_results_sorted_by_weight(self):
        tree = profiled_tree([5] * 500 + [200] * 300 + list(range(200)))
        hot = find_hot_ranges(tree, 0.10)
        weights = [item.weight for item in hot]
        assert weights == sorted(weights, reverse=True)

    def test_rejects_bad_fraction(self):
        tree = profiled_tree([1, 2, 3])
        with pytest.raises(ValueError):
            find_hot_ranges(tree, 0.0)
        with pytest.raises(ValueError):
            find_hot_ranges(tree, 1.5)

    def test_guaranteed_hot(self):
        """Identified hot ranges are truly hot (lower-bound estimates)."""
        values = [5] * 400 + [77] * 350 + list(range(250))
        tree = profiled_tree(values)
        counts = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        for item in find_hot_ranges(tree, 0.10):
            truth = sum(
                count
                for value, count in counts.items()
                if item.lo <= value <= item.hi
            )
            assert truth >= 0.10 * len(values)

    def test_hotness_does_not_propagate_from_hot_children(self):
        """A parent is not hot merely because it contains a hot child."""
        # One extremely hot item; everything else negligible and spread.
        values = [5] * 950 + list(range(6, 56))
        tree = profiled_tree(values, epsilon=0.01)
        hot = find_hot_ranges(tree, 0.10)
        widths = sorted(item.width for item in hot)
        # Only narrow ranges around 5 qualify; wide ancestors (which
        # would be "hot" under naive inclusive counting) must not.
        assert widths[0] <= 4
        for item in hot:
            if item.width > 16:
                # Any wide hot range must be hot on its own exclusive
                # weight, i.e. at least the cutoff without the hot item.
                assert item.weight >= 0.10 * len(values)

    def test_exclusive_vs_inclusive_weights(self):
        values = [1] * 300 + [40] * 300 + list(range(64, 256)) * 2
        tree = profiled_tree(values, epsilon=0.01)
        hot = find_hot_ranges(tree, 0.10)
        for item in hot:
            assert item.inclusive_weight >= item.weight
            assert item.inclusive_fraction >= item.fraction

    def test_fractions_sum_at_most_one(self):
        values = [3] * 500 + [250] * 400 + list(range(100))
        tree = profiled_tree(values)
        hot = find_hot_ranges(tree, 0.10)
        assert coverage_of_hot_ranges(hot) <= 1.0 + 1e-9

    def test_item_hotness_monotone_in_threshold(self):
        """Width-1 hot ranges survive any threshold decrease.

        (The full hot *set* is deliberately not monotone: lowering the
        threshold promotes descendants, whose weight is then excluded
        from an ancestor, possibly demoting it — a direct consequence of
        the exclusive-weight definition of Section 4.1. Single items
        have no descendants, so their hotness is monotone.)
        """
        values = [5] * 400 + [99] * 250 + [200] * 150 + list(range(200))
        tree = profiled_tree(values)
        low = {
            (i.lo, i.hi) for i in find_hot_ranges(tree, 0.05) if i.width == 1
        }
        high = {
            (i.lo, i.hi) for i in find_hot_ranges(tree, 0.20) if i.width == 1
        }
        assert high <= low


def phased_values(seed: int, events: int, universe: int) -> list:
    """Four phases, each a few hot values over a tail of its own width,
    so merges free the last phase's nodes and splits recycle the slots."""
    rnd = random.Random(seed)
    values = []
    for _ in range(4):
        hot = [rnd.randrange(universe) for _ in range(rnd.randint(1, 4))]
        width = rnd.choice([16, 4096, universe])
        base = rnd.randrange(universe)
        values.extend(
            rnd.choice(hot)
            if rnd.random() < 0.6
            else (base + rnd.randrange(width)) % universe
            for _ in range(events // 4)
        )
    return values


def exact_fractions(tree: RapTree, data) -> list:
    """A few fixed fractions, plus some whose cutoff lands exactly on a
    node's count or subtree weight (the event total is a power of two,
    so ``weight / events * events == weight``)."""
    weights = sorted(
        {node.count for node in tree.nodes() if node.count}
        | {node.subtree_weight() for node in tree.nodes()}
    )
    picked = data.draw(
        st.lists(st.sampled_from(weights), min_size=1, max_size=4)
    )
    for weight in picked:
        assert weight / tree.events * tree.events == weight
    return [0.01, 0.1, 0.5, 1.0] + [weight / tree.events for weight in picked]


def preorder_slots(tree: ColumnarRapTree) -> list:
    out, stack = [], [0]
    while stack:
        slot = stack.pop()
        out.append(slot)
        stack.extend(reversed(tree._children_slots(slot)))  # noqa: SLF001
    return out


class TestColumnarMatchesObject:
    """The compiled walk (``rap_hot``) against the object reference walk
    on trees grown online, where merges free slots and splits recycle
    them, so the slot order is not the tree order."""

    def test_recycled_slots_are_out_of_tree_order(self):
        config = RapConfig(range_max=2**16, epsilon=0.05,
                           merge_initial_interval=64, backend="columnar")
        tree = RapTree.from_config(config)
        tree.extend(phased_values(3, 4096, 2**16))
        assert isinstance(tree, ColumnarRapTree)
        created = tree.node_count + tree.stats.nodes_merged
        assert tree._size < created  # noqa: SLF001 - slots were reused
        slots = preorder_slots(tree)
        assert slots != sorted(slots)
        reference = load_tree(dump_tree(tree))
        for fraction in (0.01, 0.05, 0.1, 0.3):
            assert find_hot_ranges(tree, fraction) == find_hot_ranges(
                reference, fraction
            )

    @given(
        universe=st.sampled_from([256, 2**16, 2**64]),
        branching=st.sampled_from([2, 3, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        events=st.sampled_from([1024, 2048, 4096]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_live_tree_matches_object(
        self, universe, branching, seed, events, data
    ):
        values = phased_values(seed, events, universe)

        def grown(backend: str) -> RapTree:
            tree = RapTree.from_config(
                RapConfig(range_max=universe, epsilon=0.05,
                          branching=branching, merge_initial_interval=64,
                          backend=backend)
            )
            tree.extend(values)
            return tree

        columnar, reference = grown("columnar"), grown("object")
        assert isinstance(columnar, ColumnarRapTree)
        for fraction in exact_fractions(reference, data):
            assert find_hot_ranges(columnar, fraction) == find_hot_ranges(
                reference, fraction
            )

        # A one-shard serial Profiler's snapshot is a clone of its lone
        # shard, read through the same walk.
        with Profiler(
            RapConfig(range_max=universe, epsilon=0.05, branching=branching),
            shards=1,
            executor="serial",
        ) as profiler:
            profiler.ingest(np.array(values, dtype=np.uint64))
            snapshot = profiler.snapshot()
            linked = load_tree(dump_tree(snapshot))
            for fraction in exact_fractions(linked, data):
                assert profiler.hot_ranges(fraction) == find_hot_ranges(
                    linked, fraction
                )


class TestHotTree:
    def test_includes_ancestors_of_hot_nodes(self):
        values = [5] * 900 + list(range(100))
        tree = profiled_tree(values)
        items = hot_tree(tree, 0.10)
        # The root range must be present as structure.
        assert any(item.lo == 0 and item.hi == 255 for item in items)

    def test_ordered_root_first(self):
        values = [5] * 900 + list(range(100))
        tree = profiled_tree(values)
        items = hot_tree(tree, 0.10)
        depths = [item.depth for item in items]
        assert depths == sorted(depths)

    def test_empty_for_empty_tree(self):
        tree = profiled_tree([])
        assert hot_tree(tree, 0.10) == []

    def test_str_of_hot_range(self):
        values = [5] * 900 + list(range(100))
        tree = profiled_tree(values)
        hot = find_hot_ranges(tree, 0.10)
        text = str(hot[0])
        assert "%" in text and "[" in text
