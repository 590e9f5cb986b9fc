"""Unit tests for the ASCII dump format (Section 3.2)."""

from __future__ import annotations

import pytest

from repro.core import RapConfig, RapTree, combine_many, dump_tree, load_tree
from repro.core.serialize import dump_to_file, load_from_file


def sample_tree() -> RapTree:
    tree = RapTree(
        RapConfig(range_max=256, epsilon=0.05, merge_initial_interval=128)
    )
    for value in [42] * 200 + list(range(100)) + [200] * 80:
        tree.add(value)
    return tree


class TestDumpFormat:
    def test_header_and_sections(self):
        text = dump_tree(sample_tree())
        lines = text.splitlines()
        assert lines[0] == "RAPTREE 2"
        assert lines[1].startswith("config range_max=256")
        assert lines[2].startswith("events ")
        assert lines[3].startswith("scheduler next_at=")
        assert lines[4].startswith("node 0 0 255 ")

    def test_is_pure_ascii(self):
        text = dump_tree(sample_tree())
        text.encode("ascii")  # raises on violation

    def test_preorder_node_lines(self):
        tree = sample_tree()
        text = dump_tree(tree)
        node_lines = [
            line for line in text.splitlines() if line.startswith("node")
        ]
        assert len(node_lines) == tree.node_count
        depths = [int(line.split()[1]) for line in node_lines]
        # Pre-order: depth never jumps by more than +1.
        for previous, current in zip(depths, depths[1:]):
            assert current <= previous + 1


class TestLoad:
    def test_round_trip_counts_and_structure(self):
        tree = sample_tree()
        clone = load_tree(dump_tree(tree))
        assert clone.events == tree.events
        assert clone.node_count == tree.node_count
        assert clone.estimate(42, 42) == tree.estimate(42, 42)
        clone.check_invariants()

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="RAPTREE"):
            load_tree("hello world")

    def test_rejects_unknown_version(self):
        text = dump_tree(sample_tree()).replace("RAPTREE 2", "RAPTREE 99")
        with pytest.raises(ValueError, match="version"):
            load_tree(text)

    def test_rejects_truncated_dump(self):
        with pytest.raises(ValueError, match="truncated"):
            load_tree("RAPTREE 1\nconfig range_max=256\n")

    def test_rejects_inconsistent_events(self):
        text = dump_tree(sample_tree())
        lines = text.splitlines()
        lines[2] = "events 999999"
        with pytest.raises(ValueError, match="inconsistent"):
            load_tree("\n".join(lines))

    def test_rejects_orphan_depth(self):
        tree = RapTree(RapConfig(range_max=256, epsilon=0.05))
        tree.add(1)
        text = dump_tree(tree)
        bad = text.rstrip() + "\nnode 3 0 0 0\n"
        with pytest.raises(ValueError, match="no parent"):
            load_tree(bad)

    def test_rejects_wrong_root_range(self):
        text = dump_tree(sample_tree())
        bad = text.replace("node 0 0 255", "node 0 0 127", 1)
        with pytest.raises(ValueError, match="root range"):
            load_tree(bad)

    def test_config_round_trips(self):
        tree = RapTree.from_config(
            RapConfig(
                range_max=1024,
                epsilon=0.013,
                branching=8,
                merge_initial_interval=77,
                merge_growth=3.5,
                min_split_threshold=2.5,
                backend="object",
            )
        )
        tree.add(5)
        clone = load_tree(dump_tree(tree))
        assert clone.config == tree.config

    def test_loaded_trees_fold_to_a_linked_tree(self):
        loaded = load_tree(dump_tree(sample_tree()))
        assert loaded.config.backend == "object"
        folded = combine_many([loaded, load_tree(dump_tree(sample_tree()))])
        assert type(folded) is RapTree
        assert folded.events == 2 * loaded.events


class TestSchedulerState:
    def test_scheduler_round_trips(self):
        tree = sample_tree()
        scheduler = tree.merge_scheduler
        clone = load_tree(dump_tree(tree))
        assert clone.merge_scheduler.next_at == scheduler.next_at
        assert clone.merge_scheduler.batches_fired == scheduler.batches_fired

    def test_no_spurious_merge_on_first_post_load_add(self):
        tree = RapTree(
            RapConfig(range_max=256, epsilon=0.05, merge_initial_interval=64)
        )
        for value in range(200):
            tree.add(value % 256)
        clone = load_tree(dump_tree(tree))
        batches_before = clone.stats.merge_batches
        clone.add(7)
        # The schedule was restored, so no merge is due until the next
        # genuine geometric trigger.
        assert clone.stats.merge_batches == batches_before
        assert clone.merge_scheduler.next_at > clone.events

    def test_full_config_round_trips(self):
        tree = RapTree.from_config(
            RapConfig(
                range_max=1024,
                epsilon=0.013,
                timeline_sample_every=50,
                audit_every=500,
                backend="object",
            )
        )
        tree.add(5)
        clone = load_tree(dump_tree(tree))
        assert clone.config == tree.config

    def test_version1_reader_fast_forwards_scheduler(self):
        tree = sample_tree()
        text = dump_tree(tree)
        lines = [
            line
            for line in text.splitlines()
            if not line.startswith("scheduler")
        ]
        lines[0] = "RAPTREE 1"
        lines[1] = (
            lines[1]
            .replace(" timeline_sample_every=0", "")
            .replace(" audit_every=0", "")
        )
        clone = load_tree("\n".join(lines) + "\n")
        assert clone.events == tree.events
        assert clone.node_count == tree.node_count
        # The reconstructed schedule has advanced past the dumped event
        # count: the first post-load add must not fire a merge backlog.
        assert clone.merge_scheduler.next_at > clone.events
        batches_before = clone.stats.merge_batches
        clone.add(7)
        assert clone.stats.merge_batches == batches_before


class TestFiles:
    def test_file_round_trip(self, tmp_path):
        tree = sample_tree()
        path = str(tmp_path / "tree.rap")
        dump_to_file(tree, path)
        clone = load_from_file(path)
        assert dump_tree(clone) == dump_tree(tree)
