"""Seeded defects: ``check_invariants`` must catch each one, on both backends.

A valid, fully merged tree is grown on each backend from the same
stream (the two are byte-identical), then exactly one invariant is
broken by editing the tree's state directly: the columns of a
:class:`ColumnarRapTree`, the linked nodes of a :class:`RapTree`. Every
defect keeps the other invariants intact where it can (a negative
counter is paid back elsewhere so the total still matches ``events``),
so the assertion that fires is the one that owns the property; the
``match`` pattern pins it.

Some properties exist on one backend only: the columnar root slot,
``n_children`` and depth columns, free stack, allocation defaults have
no counterpart in a linked tree. So do the chain hazards of a compiled
walk over the columns: a sibling chain that cycles, a chain index past
the slots or past the columns, a live slot that no chain reaches. The
check and the hot-range walk must raise on them without hanging or
reading outside the columns.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pytest

from repro.core import ColumnarRapTree, RapConfig, RapTree, dump_tree
from repro.core.hot_ranges import find_hot_ranges
from repro.workloads.distributions import make_rng

UNIVERSE = 2**16


def grown(backend: str) -> RapTree:
    """A clean tree several levels deep, with freed slots to recycle."""
    rng = make_rng(11)
    values = []
    for lo in (0, UNIVERSE // 2, UNIVERSE - 4096):
        values.extend(int(v) for v in rng.integers(lo, lo + 4096, 3000))
    tree = RapTree.from_config(
        RapConfig(
            range_max=UNIVERSE,
            epsilon=0.05,
            branching=4,
            merge_initial_interval=64,
            backend=backend,
        )
    )
    tree.extend(values)
    tree.merge_now()
    return tree


@pytest.fixture(scope="module")
def reference_dump() -> str:
    return dump_tree(grown("object"))


@pytest.fixture
def columnar() -> ColumnarRapTree:
    tree = grown("columnar")
    assert isinstance(tree, ColumnarRapTree)
    tree.check_invariants()
    assert tree._free_top >= 2  # noqa: SLF001 - merges freed slots
    return tree


@pytest.fixture
def linked() -> RapTree:
    tree = grown("object")
    tree.check_invariants()
    return tree


# ----------------------------------------------------------------------
# Targets, picked the same way on both backends
# ----------------------------------------------------------------------


def nodes_of(tree: RapTree):
    """(lo, hi, depth) of every node in pre-order, from the node view."""
    out = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((node.lo, node.hi, depth))
        stack.extend((kid, depth + 1) for kid in reversed(node.children))
    return out


def deep_child(tree: RapTree) -> Tuple[int, int]:
    """A node two or more levels down, wide enough to shift its ``lo``,
    and not at ``lo == 0`` (so ``lo - 1`` is a value)."""
    return next(
        (lo, hi) for lo, hi, depth in nodes_of(tree)
        if depth >= 2 and hi - lo >= 2 and lo > 0
    )


def root_child(tree: RapTree) -> Tuple[int, int]:
    node = tree.root.children[0]
    return node.lo, node.hi


def slot(tree: ColumnarRapTree, lo: int, hi: int) -> int:
    size = tree._size  # noqa: SLF001
    hits = np.flatnonzero(
        tree._live[:size]  # noqa: SLF001
        & (tree._los[:size] == lo)  # noqa: SLF001
        & (tree._his[:size] == hi)  # noqa: SLF001
    )
    assert hits.size == 1
    return int(hits[0])


def node(tree: RapTree, lo: int, hi: int):
    found = tree.find_node(lo, hi)
    assert found is not None
    return found


def sibling_pair(tree: ColumnarRapTree) -> Tuple[int, int]:
    """Chain-adjacent siblings ``a -> b`` with ``a < b`` as slots."""
    size = tree._size  # noqa: SLF001
    for parent in np.flatnonzero(tree._live[:size]).tolist():  # noqa: SLF001
        kids = tree._children_slots(parent)  # noqa: SLF001
        for first, second in zip(kids, kids[1:]):
            if first < second:
                return first, second
    raise AssertionError("no ascending sibling pair in the fixture")


# ----------------------------------------------------------------------
# Seeded defects: columnar columns
# ----------------------------------------------------------------------


def col_negative_counter(tree: ColumnarRapTree) -> None:
    at = slot(tree, *deep_child(tree))
    tree._counts[0] += tree._counts[at] + 1  # noqa: SLF001
    tree._counts[at] = -1  # noqa: SLF001


def col_off_partition_deep(tree: ColumnarRapTree) -> None:
    tree._los[slot(tree, *deep_child(tree))] += 1  # noqa: SLF001


def col_off_partition_root(tree: ColumnarRapTree) -> None:
    tree._los[slot(tree, *root_child(tree))] += 1  # noqa: SLF001


def col_overlapping_siblings(tree: ColumnarRapTree) -> None:
    first, second = sibling_pair(tree)
    tree._los[second] = tree._los[first]  # noqa: SLF001
    tree._his[second] = tree._his[first]  # noqa: SLF001


def col_unsorted_siblings(tree: ColumnarRapTree) -> None:
    kids = tree._children_slots(0)  # noqa: SLF001
    tree._set_children(0, kids[::-1])  # noqa: SLF001


def col_empty_range(tree: ColumnarRapTree) -> None:
    at = slot(tree, *deep_child(tree))
    tree._his[at] = tree._los[at] - 1  # noqa: SLF001


def col_root_bounds(tree: ColumnarRapTree) -> None:
    tree._his[0] -= 1  # noqa: SLF001


def col_root_dead(tree: ColumnarRapTree) -> None:
    tree._live[0] = False  # noqa: SLF001
    tree._node_count -= 1  # noqa: SLF001


def col_dangling_parent(tree: ColumnarRapTree) -> None:
    tree._parents[slot(tree, *deep_child(tree))] = -1  # noqa: SLF001


def col_wrong_parent(tree: ColumnarRapTree) -> None:
    at = slot(tree, *deep_child(tree))
    parent = int(tree._parents[at])  # noqa: SLF001
    size = tree._size  # noqa: SLF001
    depth = tree._depth[:size]  # noqa: SLF001
    live = tree._live[:size]  # noqa: SLF001
    peers = np.flatnonzero(live & (depth == depth[parent]))
    tree._parents[at] = next(  # noqa: SLF001
        peer for peer in peers.tolist() if peer != parent
    )


def col_wrong_depth(tree: ColumnarRapTree) -> None:
    tree._depth[slot(tree, *deep_child(tree))] += 1  # noqa: SLF001


def col_n_children(tree: ColumnarRapTree) -> None:
    tree._n_children[0] += 1  # noqa: SLF001


def col_node_count(tree: ColumnarRapTree) -> None:
    tree._node_count += 1  # noqa: SLF001


def col_events(tree: ColumnarRapTree) -> None:
    tree._events += 1  # noqa: SLF001


def col_duplicate_free_slot(tree: ColumnarRapTree) -> None:
    tree._free_slots[1] = tree._free_slots[0]  # noqa: SLF001


def col_free_slot_not_reset(tree: ColumnarRapTree) -> None:
    tree._counts[tree._free_slots[0]] = 3  # noqa: SLF001


def col_free_slot_live(tree: ColumnarRapTree) -> None:
    tree._live[tree._free_slots[0]] = True  # noqa: SLF001
    tree._node_count += 1  # noqa: SLF001


def col_free_slot_out_of_range(tree: ColumnarRapTree) -> None:
    tree._free_slots[0] = tree._size + 5  # noqa: SLF001


def col_free_slot_lost(tree: ColumnarRapTree) -> None:
    tree._free_top -= 1  # noqa: SLF001


# Chain hazards: the compiled check walks the chains, so a bad index must
# be refused before it is read, and a cycle must not hang it.


def col_sibling_cycle(tree: ColumnarRapTree) -> None:
    first, second = sibling_pair(tree)
    tree._next_sibling[second] = first  # noqa: SLF001


def col_first_child_past_size(tree: ColumnarRapTree) -> None:
    tree._first_child[0] = tree._size + 3  # noqa: SLF001


def col_next_sibling_past_columns(tree: ColumnarRapTree) -> None:
    first, _ = sibling_pair(tree)
    tree._next_sibling[first] = 2**31 - 1  # noqa: SLF001


def col_unreachable_slot(tree: ColumnarRapTree) -> None:
    first, second = sibling_pair(tree)
    tree._next_sibling[first] = tree._next_sibling[second]  # noqa: SLF001


# ----------------------------------------------------------------------
# Seeded defects: linked nodes
# ----------------------------------------------------------------------


def obj_negative_counter(tree: RapTree) -> None:
    target = node(tree, *deep_child(tree))
    tree.root.count += target.count + 1
    target.count = -1


def obj_off_partition_deep(tree: RapTree) -> None:
    node(tree, *deep_child(tree)).lo += 1


def obj_off_partition_root(tree: RapTree) -> None:
    tree.root.children[0].lo += 1


def obj_empty_range(tree: RapTree) -> None:
    # The root: every other node is first checked as its parent's cell.
    tree.root.hi = -1


def obj_overlapping_siblings(tree: RapTree) -> None:
    first, second = tree.root.children[:2]
    second.lo, second.hi = first.lo, first.hi


def obj_unsorted_siblings(tree: RapTree) -> None:
    tree.root.children.reverse()


def obj_wrong_parent(tree: RapTree) -> None:
    target = node(tree, *deep_child(tree))
    target.parent = next(
        kid for kid in tree.root.children if kid is not target.parent
    )


def obj_node_count(tree: RapTree) -> None:
    tree._node_count += 1  # noqa: SLF001


def obj_events(tree: RapTree) -> None:
    tree._events += 1  # noqa: SLF001


Seed = Optional[Callable[[RapTree], None]]

#: defect -> (columnar seeding, object seeding, message pattern)
DEFECTS: Dict[str, Tuple[Seed, Seed, str]] = {
    "negative counter": (
        col_negative_counter, obj_negative_counter, "negative counter"
    ),
    "deep child off the partition": (
        col_off_partition_deep, obj_off_partition_deep,
        "is not a partition cell",
    ),
    "root child off the partition": (
        col_off_partition_root, obj_off_partition_root,
        # Not "of its parent slot": the root's own cell check must fire
        # before the shifted child's children fail theirs.
        r"is not a partition cell of (the root|\[0, 65535\])",
    ),
    "empty range": (col_empty_range, obj_empty_range, "empty range"),
    "root off the universe": (col_root_bounds, None, "not the root"),
    "dead root": (col_root_dead, None, "root slot must be live"),
    "overlapping siblings": (
        col_overlapping_siblings, obj_overlapping_siblings,
        "children overlap/unsorted",
    ),
    "unsorted siblings": (
        col_unsorted_siblings, obj_unsorted_siblings,
        "children overlap/unsorted|sibling chain disagrees",
    ),
    "dangling parent pointer": (
        col_dangling_parent, None, "parent pointer misses a live slot"
    ),
    "wrong parent pointer": (
        col_wrong_parent, obj_wrong_parent,
        "sibling chain disagrees|broken parent pointer",
    ),
    "wrong depth": (col_wrong_depth, None, "depth disagrees"),
    "n_children off the chain": (
        col_n_children, None, "n_children count disagrees"
    ),
    "node_count off by one": (col_node_count, obj_node_count, "node_count"),
    "weight differs from events": (col_events, obj_events, "tree weight"),
    "duplicate free slot": (
        col_duplicate_free_slot, None, "free stack has duplicates"
    ),
    "free slot not reset": (
        col_free_slot_not_reset, None, "allocation defaults"
    ),
    "free slot still live": (
        col_free_slot_live, None, "free slot is still live"
    ),
    "free slot past the slots": (
        col_free_slot_out_of_range, None, "outside the allocated prefix"
    ),
    "dead slot off the free stack": (
        col_free_slot_lost, None, "slot accounting"
    ),
    "sibling chain cycles": (
        col_sibling_cycle, None, "sibling chain disagrees"
    ),
    "first_child past the slots": (
        col_first_child_past_size, None, "sibling chain disagrees"
    ),
    "next_sibling past the columns": (
        col_next_sibling_past_columns, None, "sibling chain disagrees"
    ),
    "live slot on no chain": (
        col_unreachable_slot, None, "sibling chain disagrees"
    ),
}

#: Chain defects the hot-range walk must refuse rather than follow.
BROKEN_CHAINS = (
    "sibling chain cycles",
    "first_child past the slots",
    "next_sibling past the columns",
)


def test_backends_grow_the_same_tree(columnar, reference_dump):
    assert dump_tree(columnar) == reference_dump


@pytest.mark.parametrize(
    "defect", sorted(name for name, row in DEFECTS.items() if row[0])
)
def test_columnar_check_catches(columnar, defect):
    seed, _, pattern = DEFECTS[defect]
    seed(columnar)
    with pytest.raises(AssertionError, match=pattern):
        columnar.check_invariants()


@pytest.mark.parametrize(
    "defect", sorted(name for name, row in DEFECTS.items() if row[1])
)
def test_object_check_catches(linked, defect):
    _, seed, pattern = DEFECTS[defect]
    seed(linked)
    with pytest.raises(AssertionError, match=pattern):
        linked.check_invariants()


@pytest.mark.parametrize("defect", BROKEN_CHAINS)
def test_hot_walk_refuses_broken_chains(columnar, defect):
    DEFECTS[defect][0](columnar)
    with pytest.raises(AssertionError, match="do not form a tree"):
        find_hot_ranges(columnar, 0.01)
