"""Nodes of the RAP profile tree.

Each node corresponds to a range of events ``[lo, hi]`` (closed, integer)
and owns one counter. The root covers the entire universe; each child of a
node covers one cell of a deterministic b-ary partition of its parent's
range (Section 2.1). Counters are never decremented — merges *move* weight
upward, they never drop it (footnote 1 of the paper).
"""

from __future__ import annotations

from typing import Iterator, List, Optional


def partition_range(lo: int, hi: int, branching: int) -> List[tuple]:
    """Deterministically partition ``[lo, hi]`` into up to ``b`` cells.

    Returns the list of ``(lo, hi)`` cells a split of this range creates.
    Cells are contiguous, disjoint, cover the whole range, and the split
    points depend only on ``(lo, hi, branching)`` — this is what lets a
    re-split after a partial merge recreate *exactly* the cells that any
    surviving children already occupy (Section 3.3's "identifying the new
    parent of the existing children").

    For power-of-``b`` widths the cells are equal sized, which for
    ``b = 4`` on power-of-two universes makes every cell a binary prefix —
    the property the hardware TCAM relies on.
    """
    width = hi - lo + 1
    if width < 2:
        raise ValueError(f"cannot partition a single item range [{lo}, {hi}]")
    cells = min(branching, width)
    base = width // cells
    extra = width % cells
    out = []
    start = lo
    for index in range(cells):
        size = base + (1 if index < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


class RapNode:
    """One counter in the RAP tree, covering the range ``[lo, hi]``.

    Attributes
    ----------
    lo, hi:
        Closed bounds of the range this node profiles.
    count:
        Events recorded while this node was the smallest covering range.
        After a merge this also absorbs the weight of collapsed subtrees.
    children:
        Child nodes, sorted by ``lo``. Children are always cells of
        ``partition_range(lo, hi, b)`` but need not cover the whole range
        (a partial merge can leave gaps, which the parent then covers).
    parent:
        Parent node, or ``None`` for the root.
    """

    __slots__ = ("lo", "hi", "count", "children", "parent")

    def __init__(
        self,
        lo: int,
        hi: int,
        count: int = 0,
        parent: Optional["RapNode"] = None,
    ) -> None:
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.count = count
        self.children: List[RapNode] = []
        self.parent = parent

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of items covered by this range."""
        return self.hi - self.lo + 1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_item(self) -> bool:
        """True when the range is a single item and cannot split further."""
        return self.lo == self.hi

    @property
    def depth(self) -> int:
        """Distance from the root (root has depth 0)."""
        node: Optional[RapNode] = self
        depth = -1
        while node is not None:
            node = node.parent
            depth += 1
        return depth

    def covers(self, value: int) -> bool:
        """Whether ``value`` falls in this node's range."""
        return self.lo <= value <= self.hi

    def contains_range(self, lo: int, hi: int) -> bool:
        """Whether ``[lo, hi]`` is fully inside this node's range."""
        return self.lo <= lo and hi <= self.hi

    def child_covering(self, value: int) -> Optional["RapNode"]:
        """The direct child whose range covers ``value``, if any.

        Children are sorted by ``lo`` and disjoint, so a binary search
        finds the unique candidate.
        """
        kids = self.children
        low, high = 0, len(kids) - 1
        while low <= high:
            mid = (low + high) // 2
            kid = kids[mid]
            if value < kid.lo:
                high = mid - 1
            elif value > kid.hi:
                low = mid + 1
            else:
                return kid
        return None

    # ------------------------------------------------------------------
    # Subtree aggregates
    # ------------------------------------------------------------------

    def subtree_weight(self) -> int:
        """Total count stored in this node and all of its descendants.

        This is the RAP *estimate* for the node's range: a guaranteed
        lower bound on the true number of events that fell in it
        (Section 4.3).
        """
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += node.count
            stack.extend(node.children)
        return total

    def subtree_size(self) -> int:
        """Number of nodes in this subtree, including this node."""
        size = 0
        stack = [self]
        while stack:
            node = stack.pop()
            size += 1
            stack.extend(node.children)
        return size

    def iter_subtree(self) -> Iterator["RapNode"]:
        """Pre-order iteration over this node and its descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            # Reversed keeps pre-order left-to-right.
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # Structure edits (used by the tree; see tree.py for the policy)
    # ------------------------------------------------------------------

    def attach_child(self, child: "RapNode") -> None:
        """Insert ``child`` keeping children sorted and disjoint."""
        if not self.contains_range(child.lo, child.hi):
            raise ValueError(
                f"child [{child.lo}, {child.hi}] outside parent "
                f"[{self.lo}, {self.hi}]"
            )
        child.parent = self
        kids = self.children
        low, high = 0, len(kids)
        while low < high:
            mid = (low + high) // 2
            if kids[mid].lo < child.lo:
                low = mid + 1
            else:
                high = mid
        if low < len(kids) and kids[low].lo <= child.hi:
            raise ValueError(
                f"child [{child.lo}, {child.hi}] overlaps existing "
                f"[{kids[low].lo}, {kids[low].hi}]"
            )
        if low > 0 and kids[low - 1].hi >= child.lo:
            raise ValueError(
                f"child [{child.lo}, {child.hi}] overlaps existing "
                f"[{kids[low - 1].lo}, {kids[low - 1].hi}]"
            )
        kids.insert(low, child)

    def detach_child(self, child: "RapNode") -> None:
        """Remove a direct child (its subtree goes with it)."""
        self.children.remove(child)
        child.parent = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RapNode([{self.lo:#x}, {self.hi:#x}], count={self.count}, "
            f"children={len(self.children)})"
        )
