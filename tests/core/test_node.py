"""Unit tests for RapNode and the deterministic range partition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import RapNode, partition_range


class TestPartitionRange:
    def test_power_of_two_width_gives_equal_cells(self):
        assert partition_range(0, 255, 4) == [
            (0, 63), (64, 127), (128, 191), (192, 255),
        ]

    def test_binary_branching(self):
        assert partition_range(0, 255, 2) == [(0, 127), (128, 255)]

    def test_width_smaller_than_branching(self):
        assert partition_range(10, 12, 4) == [(10, 10), (11, 11), (12, 12)]

    def test_uneven_width_spreads_remainder_left(self):
        # width 10 over 4 cells: the remainder goes to the first cells.
        assert partition_range(0, 9, 4) == [(0, 2), (3, 5), (6, 7), (8, 9)]

    def test_single_item_raises(self):
        with pytest.raises(ValueError, match="single item"):
            partition_range(5, 5, 4)

    @given(
        lo=st.integers(min_value=0, max_value=10**12),
        width=st.integers(min_value=2, max_value=10**6),
        branching=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=200)
    def test_cells_partition_exactly(self, lo, width, branching):
        hi = lo + width - 1
        cells = partition_range(lo, hi, branching)
        # Contiguous, disjoint, covering, and at most b of them.
        assert cells[0][0] == lo
        assert cells[-1][1] == hi
        assert len(cells) == min(branching, width)
        for (_, first_hi), (second_lo, _) in zip(cells, cells[1:]):
            assert second_lo == first_hi + 1
        for cell_lo, cell_hi in cells:
            assert cell_lo <= cell_hi

    @given(
        exponent=st.integers(min_value=1, max_value=30),
        level=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60)
    def test_recursive_partition_nests(self, exponent, level):
        """Cells of a cell are sub-ranges of exactly one parent cell."""
        lo, hi = 0, 4**exponent - 1
        for _ in range(min(level, exponent - 1)):
            cells = partition_range(lo, hi, 4)
            lo, hi = cells[1] if len(cells) > 1 else cells[0]
        if hi > lo:
            for cell_lo, cell_hi in partition_range(lo, hi, 4):
                assert lo <= cell_lo <= cell_hi <= hi


class TestRapNode:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            RapNode(10, 9)

    def test_basic_properties(self):
        node = RapNode(0, 63)
        assert node.width == 64
        assert node.is_leaf
        assert not node.is_item
        assert RapNode(7, 7).is_item

    def test_covers(self):
        node = RapNode(16, 31)
        assert node.covers(16)
        assert node.covers(31)
        assert not node.covers(15)
        assert not node.covers(32)

    def test_contains_range(self):
        node = RapNode(0, 255)
        assert node.contains_range(10, 20)
        assert node.contains_range(0, 255)
        assert not node.contains_range(250, 256)

    def test_attach_child_keeps_sorted_order(self):
        parent = RapNode(0, 255)
        parent.attach_child(RapNode(128, 191))
        parent.attach_child(RapNode(0, 63))
        parent.attach_child(RapNode(192, 255))
        assert [(child.lo, child.hi) for child in parent.children] == [
            (0, 63), (128, 191), (192, 255),
        ]
        for child in parent.children:
            assert child.parent is parent

    def test_attach_child_rejects_out_of_range(self):
        parent = RapNode(0, 63)
        with pytest.raises(ValueError, match="outside parent"):
            parent.attach_child(RapNode(32, 95))

    def test_attach_child_rejects_overlap(self):
        parent = RapNode(0, 255)
        parent.attach_child(RapNode(0, 63))
        with pytest.raises(ValueError, match="overlaps"):
            parent.attach_child(RapNode(63, 64))
        with pytest.raises(ValueError, match="overlaps"):
            parent.attach_child(RapNode(0, 63))

    def test_child_covering_binary_search(self):
        parent = RapNode(0, 255)
        for lo, hi in partition_range(0, 255, 4):
            parent.attach_child(RapNode(lo, hi))
        assert parent.child_covering(0).lo == 0
        assert parent.child_covering(100).lo == 64
        assert parent.child_covering(255).lo == 192

    def test_child_covering_gap_returns_none(self):
        parent = RapNode(0, 255)
        parent.attach_child(RapNode(0, 63))
        parent.attach_child(RapNode(192, 255))
        assert parent.child_covering(100) is None

    def test_detach_child(self):
        parent = RapNode(0, 255)
        child = RapNode(0, 63)
        parent.attach_child(child)
        parent.detach_child(child)
        assert parent.children == []
        assert child.parent is None

    def test_subtree_weight_and_size(self):
        root = RapNode(0, 255, count=5)
        child = RapNode(0, 63, count=3)
        grandchild = RapNode(0, 15, count=2)
        root.attach_child(child)
        child.attach_child(grandchild)
        assert root.subtree_weight() == 10
        assert root.subtree_size() == 3
        assert child.subtree_weight() == 5

    def test_iter_subtree_preorder(self):
        root = RapNode(0, 255)
        left = RapNode(0, 63)
        right = RapNode(192, 255)
        root.attach_child(right)
        root.attach_child(left)
        left.attach_child(RapNode(0, 15))
        ranges = [(node.lo, node.hi) for node in root.iter_subtree()]
        assert ranges == [(0, 255), (0, 63), (0, 15), (192, 255)]

    def test_depth(self):
        root = RapNode(0, 255)
        child = RapNode(0, 63)
        grandchild = RapNode(0, 15)
        root.attach_child(child)
        child.attach_child(grandchild)
        assert root.depth == 0
        assert child.depth == 1
        assert grandchild.depth == 2


class TestSlots:
    """Nodes are __slots__-only: compact, and the mutation surface that
    the RAP-LINT003 encapsulation rule guards is a closed set."""

    def test_rap_node_has_no_dict(self):
        node = RapNode(0, 255)
        assert not hasattr(node, "__dict__")
        assert "__slots__" in vars(RapNode)

    def test_rap_node_rejects_ad_hoc_attributes(self):
        node = RapNode(0, 255)
        with pytest.raises(AttributeError):
            node.extra_annotation = "nope"

    def test_multidim_node_has_no_dict(self):
        from repro.core.multidim import MultiDimNode

        node = MultiDimNode(((0, 15), (0, 15)))
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.extra = 1

    def test_hw_node_has_no_dict(self):
        from repro.hardware.pipeline import _HwNode

        node = _HwNode(0, 255, slot=0, parent=None)
        assert not hasattr(node, "__dict__")

    def test_slots_cover_every_used_attribute(self):
        assert set(RapNode.__slots__) == {
            "lo", "hi", "count", "children", "parent",
        }
