"""The columnar kernel's holdout resolver and its ingest routing.

A vectorized round scatters the items of every owner whose whole-window
deposit provably fits, and hands the rest — the holdouts — to
``ColumnarRapTree._resolve_holdouts``, which settles them in array
passes: each pass scatters every item before its owner's first
threshold crossing and sends only that crossing through the exact
scalar cascade. These cases drive each shape the resolver must get
right on a warmed tree (past the cold-start storm, so rounds are
vectorized) and check the result byte for byte against the object
backend, plus the columnar structure's own invariants. A spy counts
the resolver's passes and cascades, so each case is known to reach the
path it names.

The routing test pins where the time goes on a process worker's flush
sequence: after the bootstrap, nearly every item must take the
vectorized rounds, not the scalar storm windows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, dump_tree

UNIVERSE = 1 << 16
#: A leaf-aligned hot spot: after the warm-up the tree's leaves are
#: 256 wide, so [HOT, HOT + 255] starts as one owner.
HOT = 256 * 77


def warmed_trees(merge_initial_interval: int = 1 << 20, ones: bool = False):
    """Object and columnar trees fed the same 50k uniform events."""
    config = RapConfig(
        UNIVERSE, epsilon=0.05, merge_initial_interval=merge_initial_interval
    )
    obj = RapTree.from_config(config)
    col = RapTree.from_config(config.with_updates(backend="columnar"))
    rng = random.Random(5)
    if ones:
        values = [rng.randrange(UNIVERSE) for _ in range(50_000)]
        obj.extend(values)
        col.extend(values)
    else:
        pairs = [(rng.randrange(UNIVERSE), 1) for _ in range(50_000)]
        obj.add_counted(pairs)
        col.add_counted(pairs)
    assert not col._storm, "warm-up must leave the storm regime"
    return obj, col


@pytest.fixture
def resolver_calls(monkeypatch):
    """Record ``(held items, passes, cascades)`` per resolver call
    (tests clear it once their warm-up is done)."""
    from repro.core.columnar import ColumnarRapTree

    calls = []
    resolve = ColumnarRapTree._resolve_holdouts

    def spy(tree, values, weights, arrivals):
        passes = 0
        sync_cover = tree._sync_cover

        def counting_sync() -> None:
            nonlocal passes
            passes += 1
            sync_cover()

        tree._sync_cover = counting_sync
        try:
            cascades = resolve(tree, values, weights, arrivals)
        finally:
            del tree._sync_cover
        calls.append((int(values.size), passes, cascades))
        return cascades

    monkeypatch.setattr(ColumnarRapTree, "_resolve_holdouts", spy)
    return calls


def background(seed: int, n: int = 1000) -> list:
    """Unit-count items spread over the universe: they fit and scatter."""
    rng = random.Random(seed)
    return [(rng.randrange(UNIVERSE), 1) for _ in range(n)]


def interleave(items: list, hot: list, gap: int = 150) -> list:
    """``items`` with each ``hot`` entry spliced in every ``gap``
    positions, so no two hot entries are adjacent."""
    out = list(items)
    for k, entry in enumerate(hot):
        out.insert(100 + gap * k, entry)
    return out


def assert_same_tree(obj, col) -> None:
    assert obj.events == col.events
    assert dump_tree(obj) == dump_tree(col)
    col.check_invariants()


class TestResolver:
    def test_owner_crossing_three_times_takes_several_passes(
        self, resolver_calls
    ):
        """One region splits three generations deep inside one window:
        each crossing re-routes the later hot items to a fresh child,
        so each generation needs its own pass."""
        obj, col = warmed_trees()
        resolver_calls.clear()
        hot = [
            (HOT, 200),
            (HOT + 1, 300),
            (HOT + 2, 300),
            (HOT + 3, 300),
            (HOT, 1000),
            (HOT + 1, 1000),
        ]
        pairs = interleave(background(9), hot)
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_same_tree(obj, col)
        assert max(passes for _, passes, _ in resolver_calls) >= 4
        assert max(cascades for _, _, cascades in resolver_calls) >= 3

    def test_counted_item_crossing_mid_count(self, resolver_calls):
        """A held item whose count overshoots its owner's headroom many
        times over splits mid-count and carries the remainder down to an
        item node in one cascade."""
        obj, col = warmed_trees()
        resolver_calls.clear()
        pairs = interleave(background(9), [(HOT, 5000), (HOT + 1, 3)])
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_same_tree(obj, col)
        node = col.find_node(HOT, HOT)
        assert node is not None and node.count > col.split_threshold
        assert sum(cascades for _, _, cascades in resolver_calls) >= 1

    def test_item_owners_never_cross(self, resolver_calls):
        """Once the hot region has burst down to ``lo == hi`` item nodes,
        later held items routed there fit at any count: an item node
        never splits."""
        obj, col = warmed_trees()
        resolver_calls.clear()
        hot = [
            (HOT, 200),
            (HOT + 1, 400),
            (HOT + 2, 400),
            (HOT + 3, 400),
            (HOT, 400),
            (HOT + 1, 2000),
            (HOT + 2, 2000),
        ]
        pairs = interleave(background(9), hot)
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_same_tree(obj, col)
        over = [
            value
            for value in range(HOT, HOT + 4)
            if col.find_node(value, value) is not None
            and col.find_node(value, value).count > col.split_threshold
        ]
        assert len(over) >= 2
        assert max(passes for _, passes, _ in resolver_calls) >= 3

    def test_window_cut_one_item_before_merge_trigger(self, resolver_calls):
        """The round ends right before the item that reaches the merge
        trigger, and the last item of the cut is a crossing holdout: it
        cascades at its own arrival, then the trigger item fires the
        merge through the exact per-item path."""
        obj, col = warmed_trees(merge_initial_interval=1 << 16)
        resolver_calls.clear()
        cut = 600
        prefix = background(4, cut - 1) + [(HOT, 400)]
        to_trigger = int(col.merge_scheduler.next_at) - (
            col.events + sum(count for _, count in prefix)
        )
        pairs = prefix + [(HOT + 1000, to_trigger)] + background(6, 600)
        merges = col.stats.merge_batches
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_same_tree(obj, col)
        assert col.stats.merge_batches == merges + 1
        assert resolver_calls[0][2] == 1

    def test_raw_extend_runs_and_alternations(self, resolver_calls):
        """``extend``: a run of one value that crosses mid-run (the run
        deposits as one counted item from its crossing on) and two values
        alternating in one region (never adjacent, so each split
        generation is a pass of its own)."""
        obj, col = warmed_trees(ones=True)
        resolver_calls.clear()
        rng = random.Random(9)
        values = [rng.randrange(UNIVERSE) for _ in range(1500)]
        hot = [
            [HOT] * 400,
            [HOT + 1, HOT + 2] * 200,
            [HOT + 3] * 3,
            [HOT + 1] * 300,
        ]
        for k, run in enumerate(hot):
            at = 100 + 300 * k
            values[at:at] = run
        obj.extend(values)
        col.extend(values)
        assert_same_tree(obj, col)
        assert max(passes for _, passes, _ in resolver_calls) >= 3


class TestRouting:
    def test_value_ingest_flushes_stay_vectorized(self, monkeypatch):
        """A reduced value-ingest shard: parser load values over 2**64,
        hash-partitioned to shard 0 of 2 and combined per 2**17 events,
        as the process worker flushes them. After the bootstrap build,
        the scalar storm windows must see under 2% of the items; true
        split cascades are rare on a warmed tree, so held items must
        not push it back into scalar windows."""
        from repro.core.columnar import ColumnarRapTree
        from repro.runtime.partition import HashPartitioner
        from repro.workloads.spec import benchmark

        base = np.asarray(
            benchmark("parser").value_stream(1 << 20, seed=3).values,
            dtype=np.uint64,
        )
        partitioner = HashPartitioner(2)
        flushes, pending, buffered = [], [], 0
        for at in range(0, 1 << 21, 16384):
            shard = partitioner.split(base[at % base.size :][:16384])[0]
            pending.append(shard)
            buffered += shard.size
            if buffered >= 1 << 17:
                flushes.append(
                    np.unique(np.concatenate(pending), return_counts=True)
                )
                pending, buffered = [], 0

        scalar_items = 0
        scalar_run = ColumnarRapTree._scalar_run

        def spy(tree, items, ones, start, window):
            nonlocal scalar_items
            end, fallbacks = scalar_run(tree, items, ones, start, window)
            scalar_items += end - start
            return end, fallbacks

        monkeypatch.setattr(ColumnarRapTree, "_scalar_run", spy)
        tree = RapTree.from_config(
            RapConfig(1 << 64, epsilon=0.02, backend="columnar")
        )
        assert tree.bootstrap_counted_arrays(*flushes[0])
        for values, counts in flushes[1:]:
            tree.add_counted_arrays(values, counts)
        online = sum(values.size for values, _ in flushes[1:])
        assert len(flushes) >= 8
        assert scalar_items < 0.02 * online
        tree.check_invariants()
