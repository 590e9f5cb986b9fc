"""Edge-case streams for the columnar kernel, checked against ``RapTree``.

These streams were built to reach the shapes a batched ingest gets
wrong: one region splitting several generations deep inside one batch,
a counted item crossing its threshold mid-count, item nodes that must
never split, a batch ending one item before the merge trigger, raw
``extend`` runs, and counters that merge churn left over threshold (the
dry split at their next arrival). Each case warms both backends on the
same stream, feeds the edge case, and checks the result byte for byte
against the object backend, plus the columnar structure's own
invariants and the ``TreeStats`` both backends keep.
"""

from __future__ import annotations

import random

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
    obj = RapTree.from_config(config.with_updates(backend="object"))
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
    return obj, col


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


def outside(seed: int, n: int, count: int = 1) -> list:
    """Items spread over the universe away from the hot region, so they
    never touch the owners a case sets up around ``HOT``."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        value = rng.randrange(UNIVERSE)
        if not HOT - 512 <= value < HOT + 512:
            out.append((value, count))
    return out


def assert_same_tree(obj, col) -> None:
    assert obj.events == col.events
    assert dump_tree(obj) == dump_tree(col)
    for field in ("events", "updates", "splits", "merge_batches",
                  "max_nodes", "node_seconds", "merge_points"):
        assert getattr(obj.stats, field) == getattr(col.stats, field), field
    col.check_invariants()


class TestResolver:
    def test_owner_crossing_three_times_takes_several_passes(self):
        """One region splits three generations deep inside one batch:
        each crossing re-routes the later hot items to a fresh child."""
        obj, col = warmed_trees()
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

    def test_counted_item_crossing_mid_count(self):
        """An item whose count overshoots its node's headroom many times
        over splits mid-count and carries the remainder down to an item
        node in one cascade."""
        obj, col = warmed_trees()
        pairs = interleave(background(9), [(HOT, 5000), (HOT + 1, 3)])
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_same_tree(obj, col)
        node = col.find_node(HOT, HOT)
        assert node is not None and node.count > col.split_threshold

    def test_item_owners_never_cross(self):
        """Once the hot region has burst down to ``lo == hi`` item nodes,
        later items routed there fit at any count: an item node never
        splits."""
        obj, col = warmed_trees()
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

    def test_window_cut_one_item_before_merge_trigger(self):
        """The item right before the one that reaches the merge trigger
        crosses its threshold: it cascades at its own arrival, then the
        trigger item fires the merge (the kernel returns to Python for
        it and resumes)."""
        obj, col = warmed_trees(merge_initial_interval=1 << 16)
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

    def test_raw_extend_runs_and_alternations(self):
        """``extend``: a run of one value that crosses mid-run, and two
        values alternating in one region, each split generation
        re-routing the next."""
        obj, col = warmed_trees(ones=True)
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


def feed_both(obj, col, pairs: list, ones: bool) -> None:
    """``pairs`` through ``add_counted``, or expanded through ``extend``."""
    if ones:
        values = [v for v, count in pairs for _ in range(count)]
        obj.extend(values)
        col.extend(values)
    else:
        obj.add_counted(pairs)
        col.add_counted(pairs)


def churned_trees(ones: bool):
    """Warmed trees whose leaf over ``[HOT, HOT + 63]`` a merge has left
    above the split threshold.

    The leaf splits on a hot deposit, two of its fresh children take
    small deposits, and the merge at 2**16 events folds all three back
    into it: each child fits the merge threshold, their sum does not.
    """
    obj, col = warmed_trees(merge_initial_interval=1 << 16, ones=ones)
    churn = [(HOT, 300), (HOT + 16, 60), (HOT + 32, 60)]
    feed = [interleave(outside(3, 600), churn)]
    to_trigger = int(col.merge_scheduler.next_at) - (
        col.events + sum(count for _, count in feed[0])
    )
    feed.append(outside(4, to_trigger) + outside(6, 3000))
    for pairs in feed:
        feed_both(obj, col, pairs, ones)
    assert col.stats.merge_batches == 1
    leaf = col.smallest_covering(HOT)
    assert (leaf.lo, leaf.hi) == (HOT, HOT + 63) and not leaf.children
    assert leaf.count > col.split_threshold
    return obj, col


class TestDryPresplit:
    @pytest.mark.parametrize("ones", [False, True], ids=["counted", "extend"])
    def test_merge_churned_leaf_splits_up_front(self, ones):
        """The churned leaf takes two small hot deposits among items that
        fit: the first arrival splits it dry, and the hot items land in
        its fresh children exactly as the object backend sends them."""
        obj, col = churned_trees(ones)
        pairs = interleave(
            outside(5, 1000), [(HOT + 5, 3), (HOT + 40, 2)], gap=400
        )
        feed_both(obj, col, pairs, ones)
        assert_same_tree(obj, col)
        assert col.find_node(HOT, HOT + 15) is not None

    def test_owner_under_its_first_arrival_threshold_is_not_split(self):
        """The churned leaf's counter is above the batch's first
        threshold but not above the threshold at its own first arrival,
        late in a batch of heavy background items; there its deposit
        fits, so nothing may split it."""
        obj, col = churned_trees(ones=False)
        leaf = col.smallest_covering(HOT)
        th = col.config.split_threshold
        # The batch opens below the leaf's counter ...
        assert th(col.events + 8) < leaf.count
        background = outside(7, 1000, count=8)
        arrival = col.events + 8 * 850
        # ... and reaches it before the hot item arrives, with room.
        assert leaf.count + 3 <= th(arrival + 1)
        pairs = background[:850] + [(HOT + 5, 3)] + background[850:]
        feed_both(obj, col, pairs, ones=False)
        assert_same_tree(obj, col)
        node = col.smallest_covering(HOT + 5)
        assert (node.lo, node.hi) == (HOT, HOT + 63)
