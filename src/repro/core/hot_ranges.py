"""Hot-range extraction (Section 4.1 of the paper).

A range is *hot* if and only if the total count for that range and all of
its **non-hot** sub-ranges is at least a threshold fraction of the stream.
The definition deliberately excludes weight that already belongs to hot
children, so a parent never becomes hot merely by containing a hot child —
this is what makes the small set of hot ranges "paint a picture of the
distribution of events across the entire range of possible events".

In Figure 5, for example, ``[0, e]`` is hot with 13.6% and its parent
``[0, fe]`` is hot with 16.7% — the parent's weight *excludes* the child's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .node import RapNode
from .tree import RapTree

DEFAULT_HOT_FRACTION = 0.10


@dataclass(frozen=True)
class HotRange:
    """One hot range reported by RAP.

    Attributes
    ----------
    lo, hi:
        The range bounds.
    weight:
        The *exclusive* hot weight: count of this range plus all of its
        non-hot sub-ranges (the number annotated on Figure 5's nodes).
    fraction:
        ``weight / n`` — the annotated percentage, as a fraction.
    depth:
        Depth of the corresponding node in the RAP tree.
    inclusive_weight:
        Total estimate for the range including hot descendants (e.g. the
        paper's "[0, fe] including its hot sub-range accounts for 30.3%").
    """

    lo: int
    hi: int
    weight: int
    fraction: float
    depth: int
    inclusive_weight: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def inclusive_fraction(self) -> float:
        if self.weight == 0:
            return 0.0
        return self.fraction * self.inclusive_weight / self.weight

    def __str__(self) -> str:
        return f"[{self.lo:x}, {self.hi:x}] {100.0 * self.fraction:.1f}%"


def find_hot_ranges(
    tree: RapTree,
    hot_fraction: float = DEFAULT_HOT_FRACTION,
) -> List[HotRange]:
    """All hot ranges of ``tree`` at threshold ``hot_fraction`` of events.

    Returns hot ranges ordered by decreasing exclusive weight. Because
    estimates are lower bounds, "if RAP identifies a node as hot, then
    that node is guaranteed to be hot" (Section 4.3).
    """
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    events = tree.events
    if events == 0:
        return []
    cutoff = hot_fraction * events
    rows = getattr(tree, "_hot_range_rows", None)
    if rows is not None:
        # Columnar fast path: the compiled kernel (rap_hot) runs the
        # same post-order walk over the sibling chains and returns rows
        # in the reference walk's append order, so the stable sort
        # below reproduces the object ordering exactly, ties included.
        found = [
            HotRange(
                lo=lo,
                hi=hi,
                weight=exclusive,
                fraction=exclusive / events,  # noqa: RAP-LINT006 - intentional float statistic
                depth=depth,
                inclusive_weight=inclusive,
            )
            for lo, hi, exclusive, inclusive, depth in rows(cutoff)
        ]
    else:
        found = []
        _walk(tree.root, cutoff, events, 0, found)
    found.sort(key=lambda item: item.weight, reverse=True)
    return found


def _walk(
    node: RapNode,
    cutoff: float,
    events: int,
    depth: int,
    found: List[HotRange],
) -> Tuple[int, int]:
    """Post-order walk computing (exclusive hot weight, inclusive weight).

    A child's weight is folded into its parent's exclusive weight only if
    the child itself did not qualify as hot.
    """
    exclusive = node.count
    inclusive = node.count
    for child in node.children:
        child_exclusive, child_inclusive = _walk(
            child, cutoff, events, depth + 1, found
        )
        inclusive += child_inclusive
        if child_exclusive < cutoff:
            exclusive += child_exclusive
    if exclusive >= cutoff:
        found.append(
            HotRange(
                lo=node.lo,
                hi=node.hi,
                weight=exclusive,
                # Reporting boundary: the fraction is a display statistic;
                # the exact counters live in weight/inclusive_weight.
                fraction=exclusive / events,  # noqa: RAP-LINT006 - intentional float statistic
                depth=depth,
                inclusive_weight=inclusive,
            )
        )
    return exclusive, inclusive


def hot_tree(
    tree: RapTree,
    hot_fraction: float = DEFAULT_HOT_FRACTION,
) -> List[HotRange]:
    """Hot ranges plus the ancestors needed to show their tree structure.

    Figure 5 draws the hot nodes *and* the root (0.9%) even though the
    root is below the hot threshold, because the picture is a tree. This
    returns the hot ranges along with every ancestor range on the path to
    the root, ordered root-first (by depth, then lo).
    """
    hot = find_hot_ranges(tree, hot_fraction)
    if not hot:
        return []
    wanted = {(item.lo, item.hi) for item in hot}
    extras: List[HotRange] = []
    events = tree.events
    for item in hot:
        node = tree.find_node(item.lo, item.hi)
        while node is not None and node.parent is not None:
            node = node.parent
            key = (node.lo, node.hi)
            if key in wanted:
                continue
            wanted.add(key)
            exclusive = _exclusive_weight(node, hot)
            extras.append(
                HotRange(
                    lo=node.lo,
                    hi=node.hi,
                    weight=exclusive,
                    fraction=exclusive / events,  # noqa: RAP-LINT006 - intentional float statistic
                    depth=node.depth,
                    inclusive_weight=node.subtree_weight(),
                )
            )
    merged = hot + extras
    merged.sort(key=lambda item: (item.depth, item.lo))
    return merged


def _exclusive_weight(node: RapNode, hot: List[HotRange]) -> int:
    """Inclusive weight of ``node`` minus weights of hot ranges inside it."""
    hot_inside = [
        item
        for item in hot
        if node.lo <= item.lo and item.hi <= node.hi
        and not (item.lo == node.lo and item.hi == node.hi)
    ]
    # Hot ranges can nest; only subtract maximal ones, each of which
    # already carries its own nested hot weight via inclusive_weight.
    maximal = [
        item
        for item in hot_inside
        if not any(
            other is not item
            and other.lo <= item.lo
            and item.hi <= other.hi
            for other in hot_inside
        )
    ]
    return node.subtree_weight() - sum(item.inclusive_weight for item in maximal)


def coverage_of_hot_ranges(hot: List[HotRange]) -> float:
    """Fraction of the stream captured by the hot ranges (exclusive sums)."""
    return sum(item.fraction for item in hot)
