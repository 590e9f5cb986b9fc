"""The combining window both executors feed their shard trees through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, dump_tree
from repro.runtime import HashPartitioner
from repro.runtime.window import _COMBINE_WINDOW, CombiningWindow, _combine_frames

UNIVERSE = 2**16


class Recorder:
    """A fresh-tree stand-in that keeps what a flush feeds the tree's
    entry points. It declines the cold-start bulk build, so every
    flush goes on to the online counted kernel."""

    events = 0

    def __init__(self):
        self.calls = []
        self.pairs = []

    def bootstrap_counted_arrays(self, values, counts):
        self.calls.append("bootstrap_counted_arrays")
        return False

    def add_counted_arrays(self, values, counts):
        self.calls.append("add_counted_arrays")
        self.pairs += zip(values.tolist(), counts.tolist())


def flushed_pairs(partitioner, values, chunk=1024):
    """Per-shard pairs after pushing the partitioner's frames chunk by
    chunk into one window per shard and flushing each."""
    windows = [CombiningWindow(chunk) for _ in range(partitioner.shards)]
    for at in range(0, len(values), chunk):
        for window, part in zip(
            windows, partitioner.split(values[at:at + chunk])
        ):
            if len(part):
                window.push(part)
    recorders = []
    for window in windows:
        recorder = Recorder()
        window.flush(recorder)
        assert window.events == 0
        assert recorder.calls == (
            ["bootstrap_counted_arrays", "add_counted_arrays"]
            if recorder.pairs else []
        )
        recorders.append(recorder.pairs)
    return recorders


class TestCombine:
    def test_counts_conserve_events(self):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 1000, size=5000, dtype=np.uint64)
        shards = flushed_pairs(HashPartitioner(4), values)
        assert sum(count for pairs in shards for _, count in pairs) == 5000
        for pairs in shards:
            assert [value for value, _ in pairs] == sorted(
                {value for value, _ in pairs}
            )

    def test_duplicates_are_combined(self):
        values = np.array([7] * 100 + [9] * 50, dtype=np.uint64)
        shards = flushed_pairs(HashPartitioner(2), values, chunk=64)
        assert sorted(pair for pairs in shards for pair in pairs) == [
            (7, 100), (9, 50)
        ]

    def test_raw_and_counted_frames_combine_like_their_expansion(self):
        rng = np.random.default_rng(5)
        raw = [rng.integers(0, 50, size=n, dtype=np.uint64) for n in (30, 7)]
        values = np.unique(rng.integers(0, 50, size=20, dtype=np.uint64))
        counts = rng.integers(1, 9, size=values.size).astype(np.int64)
        uniques, combined = _combine_frames(
            np.concatenate(raw), [(values, counts)]
        )
        expansion = np.concatenate(raw + [np.repeat(values, counts)])
        expected, expected_counts = np.unique(expansion, return_counts=True)
        assert uniques.tolist() == expected.tolist()
        assert combined.tolist() == expected_counts.tolist()


class TestWindow:
    def test_push_reports_a_full_window(self):
        window = CombiningWindow(_COMBINE_WINDOW)
        assert not window.push(np.zeros(_COMBINE_WINDOW - 1, np.uint64))
        assert window.push(
            np.array([3], dtype=np.uint64), np.array([1], dtype=np.int64)
        )
        assert window.events == _COMBINE_WINDOW

    def test_buffer_holds_a_full_window_plus_one_frame(self):
        window = CombiningWindow(4096)
        values = np.arange(_COMBINE_WINDOW - 1 + 4096, dtype=np.uint64)
        assert not window.push(values[:_COMBINE_WINDOW - 1])
        assert window.push(values[_COMBINE_WINDOW - 1:])
        recorder = Recorder()
        window.flush(recorder)
        assert recorder.pairs == [(value, 1) for value in values.tolist()]

    @pytest.mark.parametrize("backend", ["columnar"])
    def test_overwritten_frames_change_nothing_the_tree_sees(self, backend):
        # The window copies what it is pushed, so its caller may release
        # the frame at once — the worker hands the ring bytes back to
        # the producer, which overwrites them. Here every pushed frame
        # is overwritten right after its push.
        rng = np.random.default_rng(9)
        frames = [
            (rng.zipf(1.4, size=800) % UNIVERSE).astype(np.uint64)
            for _ in range(3)
        ]
        values = np.unique(frames[0][:50])
        counts = np.full(values.size, 3, dtype=np.int64)
        dumps = []
        for overwrite in (False, True):
            window = CombiningWindow(800)
            pushed = [(frame.copy(),) for frame in frames]
            pushed.append((values.copy(), counts.copy()))
            for parts in pushed:
                window.push(*parts)
                if overwrite:
                    for part in parts:
                        part[:] = 1
            tree = RapTree.from_config(
                RapConfig(UNIVERSE, epsilon=0.05, backend=backend)
            )
            window.flush(tree)
            dumps.append(dump_tree(tree))
        assert dumps[0] == dumps[1]

    def test_failed_flush_leaves_the_window_empty(self):
        window = CombiningWindow(3)
        window.push(np.array([1, 2, 3], dtype=np.uint64))
        tree = RapTree.from_config(RapConfig(2))  # universe too small
        with pytest.raises(ValueError):
            window.flush(tree)
        assert window.events == 0
        window.flush(tree)  # nothing buffered: a no-op
