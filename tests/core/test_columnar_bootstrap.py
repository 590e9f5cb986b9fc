"""The cold-start bulk build (``bootstrap_counted_arrays``).

The process executor's first-flush path constructs the adaptive
partition offline — top-down from one sorted counted frame — instead
of replaying the per-event cascade. That is a *different* tree shape
than online ingest builds, so its contract is structural, not
shape-equivalence: exact lower-bound estimates, undercount within
``epsilon * n``, full ``check_invariants`` coherence, and seamless
online ingest afterwards. Preconditions are strict; anything unmet
must leave the tree untouched and report ``False`` so callers fall
back to ``add_counted_arrays``.

The compiled builder is checked against a short pure-Python statement
of the burst rule (``reference_bootstrap``), slot layout included, and
against one column growth per build.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnarRapTree,
    RapConfig,
    RapTree,
    dump_tree,
    load_tree,
    partition_range,
)

from .test_tree_fastpath import zipf_stream


def columnar_tree(universe, **overrides):
    base = dict(epsilon=0.05, backend="columnar")
    base.update(overrides)
    return RapTree.from_config(RapConfig(universe, **base))


def counted_frame(values):
    uniques, counts = np.unique(
        np.asarray(values, dtype=np.uint64), return_counts=True
    )
    return uniques, counts.astype(np.int64)


def exact_in(sorted_values, lo, hi):
    return int(
        np.searchsorted(sorted_values, hi, side="right")
        - np.searchsorted(sorted_values, lo)
    )


@pytest.mark.parametrize(
    "universe,n",
    [(2**16, 30_000), (2**40, 12_000), (257, 800), (2, 16)],
)
def test_bootstrap_meets_the_accuracy_contract(universe, n):
    rng = random.Random(universe % 9973)
    values = zipf_stream(rng, universe, n)
    tree = columnar_tree(universe)
    assert tree.bootstrap_counted_arrays(*counted_frame(values))
    assert tree.events == n
    tree.check_invariants()
    sorted_values = np.sort(np.asarray(values, dtype=np.uint64))
    budget = 0.05 * n
    for _ in range(50):
        lo = rng.randrange(universe)
        hi = rng.randrange(lo, universe)
        exact = exact_in(sorted_values, lo, hi)
        estimate = tree.estimate(lo, hi)
        assert estimate <= exact, (lo, hi)
        assert exact - estimate <= budget, (lo, hi)


def test_online_ingest_continues_seamlessly_after_bootstrap():
    rng = random.Random(31)
    first = zipf_stream(rng, 2**20, 20_000)
    second = zipf_stream(rng, 2**20, 5_000)
    tree = columnar_tree(2**20)
    assert tree.bootstrap_counted_arrays(*counted_frame(first))
    tree.extend(second)
    tree.check_invariants()
    total = len(first) + len(second)
    assert tree.events == total
    sorted_values = np.sort(np.asarray(first + second, dtype=np.uint64))
    budget = 0.05 * total
    for _ in range(40):
        lo = rng.randrange(2**20)
        hi = rng.randrange(lo, 2**20)
        exact = exact_in(sorted_values, lo, hi)
        estimate = tree.estimate(lo, hi)
        assert estimate <= exact, (lo, hi)
        assert exact - estimate <= budget, (lo, hi)


def test_bootstrap_is_deterministic():
    rng = random.Random(47)
    values = zipf_stream(rng, 2**24, 15_000)
    frame = counted_frame(values)
    first = columnar_tree(2**24)
    second = columnar_tree(2**24)
    assert first.bootstrap_counted_arrays(*frame)
    assert second.bootstrap_counted_arrays(*frame)
    assert dump_tree(first) == dump_tree(second)


def test_bootstrap_refuses_a_non_fresh_tree():
    tree = columnar_tree(1 << 16)
    tree.add(5)
    values, counts = counted_frame([1, 2, 3])
    assert not tree.bootstrap_counted_arrays(values, counts)
    assert tree.events == 1
    tree.check_invariants()


def test_bootstrap_refuses_per_event_hooks():
    sampled = columnar_tree(1 << 16, timeline_sample_every=100)
    values, counts = counted_frame([1, 2, 3])
    assert not sampled.bootstrap_counted_arrays(values, counts)
    assert sampled.events == 0


def test_bootstrap_refuses_read_only_columns():
    config = RapConfig(1 << 16, backend="columnar")
    live = RapTree.from_config(config)
    columns = {name: getattr(live, name) for name in live.COLUMN_DTYPES}
    attached = ColumnarRapTree.attach_columns(
        config, columns, live.column_state()
    )
    assert not attached.bootstrap_counted_arrays(*counted_frame([1, 2, 3]))
    assert live.events == 0 and attached.events == 0
    live.check_invariants()


@pytest.mark.parametrize(
    "values,counts",
    [
        (np.array([], dtype=np.uint64), np.array([], dtype=np.int64)),
        (  # unsorted
            np.array([9, 3], dtype=np.uint64),
            np.array([1, 1], dtype=np.int64),
        ),
        (  # duplicate values
            np.array([3, 3], dtype=np.uint64),
            np.array([1, 1], dtype=np.int64),
        ),
        (  # non-positive count
            np.array([3, 9], dtype=np.uint64),
            np.array([1, 0], dtype=np.int64),
        ),
        (  # negative value
            np.array([-1, 9], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
        ),
        (  # out of the universe
            np.array([1 << 20], dtype=np.uint64),
            np.array([1], dtype=np.int64),
        ),
        (  # float values
            np.array([1.5], dtype=np.float64),
            np.array([1], dtype=np.int64),
        ),
    ],
)
def test_bootstrap_refuses_malformed_frames(values, counts):
    tree = columnar_tree(1 << 16)
    assert not tree.bootstrap_counted_arrays(values, counts)
    assert tree.events == 0
    tree.check_invariants()


def test_bootstrap_single_heavy_value_stays_exact():
    tree = columnar_tree(1 << 32)
    values = np.array([123_456_789], dtype=np.uint64)
    counts = np.array([10_000], dtype=np.int64)
    assert tree.bootstrap_counted_arrays(values, counts)
    assert tree.events == 10_000
    tree.check_invariants()
    assert tree.estimate(123_456_789, 123_456_789) == 10_000


def reference_bootstrap(config, values, counts):
    """The burst rule over Python ints, breadth first.

    Returns ``(rows, bursts)``: one ``[lo, hi, parent_row, depth,
    count]`` row per node in slot order, before the catch-up merge.
    A node bursts when ``lo < hi`` and its mass is past the threshold
    at the frame's total; its nonzero-mass cells follow in ``lo``
    order, leaves holding their mass and bursts 0.
    """
    cum = list(accumulate(counts, initial=0))
    total = cum[-1]
    floor_t = math.floor(config.split_threshold(total))
    rows = [[0, config.range_max - 1, -1, 0, total]]
    bursts = 0
    for row, (lo, hi, _, depth, mass) in enumerate(rows):
        if lo == hi or mass <= floor_t:
            continue
        rows[row][4] = 0
        bursts += 1
        for cell_lo, cell_hi in partition_range(lo, hi, config.branching):
            cell = (
                cum[bisect_right(values, cell_hi)]
                - cum[bisect_left(values, cell_lo)]
            )
            if cell:
                rows.append([cell_lo, cell_hi, row, depth + 1, cell])
    return rows, bursts


def reference_tree(config, rows, bursts, frame_size):
    """An object ``RapTree`` holding ``rows``, stats and merge applied."""
    kids = [[] for _ in rows]
    for row, (_, _, parent, _, _) in enumerate(rows[1:], start=1):
        kids[parent].append(row)
    lines = dump_tree(RapTree(config)).splitlines()[:4]
    lines[2] = f"events {sum(row[4] for row in rows)}"
    stack = [0]
    while stack:
        row = stack.pop()
        lo, hi, _, depth, count = rows[row]
        lines.append(f"node {depth} {lo} {hi} {count}")
        stack.extend(reversed(kids[row]))
    tree = load_tree("\n".join(lines))
    tree.stats.events = tree.events
    tree.stats.updates = frame_size
    tree.stats.splits = bursts
    tree.stats.max_nodes = len(rows)
    if tree.merge_scheduler.due(tree.events):
        tree.merge_now()
    return tree


@st.composite
def counted_frames(draw, universe):
    values = draw(
        st.one_of(
            st.lists(st.integers(0, universe - 1), min_size=1, max_size=1),
            st.lists(
                st.integers(0, universe - 1), min_size=1, max_size=60,
                unique=True,
            ),
        )
    )
    values.sort()
    count = st.one_of(st.integers(1, 3), st.integers(1, 2**40))
    return values, [draw(count) for _ in values]


def assert_same_profile(tree, ref):
    assert dump_tree(tree) == dump_tree(ref)
    assert (tree.node_count, tree.events) == (ref.node_count, ref.events)
    for field in ("splits", "updates", "max_nodes"):
        assert getattr(tree.stats, field) == getattr(ref.stats, field), field
    tree.check_invariants()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_builder_matches_the_reference_burst_rule(data):
    universe = data.draw(
        st.one_of(
            st.sampled_from([2, 3, 2**8, 2**32, 2**64]),
            st.integers(2, 2**64),
        )
    )
    config = RapConfig(
        universe,
        epsilon=data.draw(st.floats(0.01, 0.5)),
        branching=data.draw(st.integers(2, 8)),
        merge_initial_interval=data.draw(st.sampled_from([8, 1024])),
        min_split_threshold=data.draw(st.sampled_from([0.0, 1.0, 64.0])),
    )
    values, counts = data.draw(counted_frames(universe))
    rows, bursts = reference_bootstrap(config, values, counts)
    tree = RapTree.from_config(config.with_updates(backend="columnar"))
    assert tree.bootstrap_counted_arrays(
        np.array(values, dtype=np.uint64), np.array(counts, dtype=np.int64)
    )
    # Slots in (parent, ascending lo) order: merges free slots in place.
    size = len(rows)
    assert tree._size == size
    for at, column in enumerate(("_los", "_his", "_parents", "_depth")):
        assert getattr(tree, column)[:size].tolist() == [
            row[at] for row in rows
        ], column
    ref = reference_tree(config, rows, bursts, len(values))
    assert_same_profile(tree, ref)

    more_values, more_counts = data.draw(counted_frames(universe))
    tree.add_counted_arrays(
        np.array(more_values, dtype=np.uint64),
        np.array(more_counts, dtype=np.int64),
    )
    ref.add_counted(list(zip(more_values, more_counts)))
    assert_same_profile(tree, ref)


def test_bootstrap_grows_each_column_at_most_once(monkeypatch):
    grows = []
    real_grow = ColumnarRapTree._grow

    def grow(tree, slots):
        grows.append(slots)
        real_grow(tree, slots)

    monkeypatch.setattr(ColumnarRapTree, "_grow", grow)
    tree = ColumnarRapTree(
        RapConfig(2**64, epsilon=0.01, branching=4, backend="columnar")
    )
    rng = random.Random(11)
    assert tree.bootstrap_counted_arrays(
        *counted_frame(zipf_stream(rng, 2**64, 40_000))
    )
    assert tree._size > 4 * 64  # past several doublings of 64 slots
    # One _grow reallocates every column once, however many doublings.
    assert len(grows) == 1
    capacity = 64
    while capacity < tree._size:
        capacity *= 2
    assert tree._capacity == capacity
    tree.check_invariants()
