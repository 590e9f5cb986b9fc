"""Combining RAP trees: merge profiles from separate runs or windows.

The paper's software API is built for post-processing ("can either be
called from online analysis or to post process trace files", Section
3.2); combining summaries is the natural companion operation — profile
shards of a long run (or different cores / trace files) independently,
then merge the trees into one summary whose guarantees still hold:

* the combined estimate for a range is at least the sum of the shard
  estimates (weight only ever moves to *finer* placement, never coarser),
  so it remains a lower bound on the true combined count;
* the undercount of the combined tree is at most the sum of the shards'
  undercounts, i.e. at most ``epsilon * (n1 + ... + nk)`` when all
  shards ran with the same epsilon. Mismatched epsilons silently void
  this guarantee, so they are rejected unless explicitly allowed — in
  which case the result's config records the *largest* shard epsilon,
  the only value for which the combined bound still holds;
* memory is re-pruned with a final merge batch, so the result obeys the
  same worst-case bound.

How the fold works. The fold is arithmetic, not a search. Every
counter of every shard sits on a cell of the same deterministic b-ary
partition, so the combined tree before pruning is fixed by the shards'
``(lo, hi, count, depth)`` rows alone: a node has children iff some
deeper row starts inside its range, and then it has *all* of its
``partition_range`` cells. So a shard may come as its rows alone
(:class:`CounterRows`): a process-executor worker sends them with each
sync reply, and the parent folds them without ever seeing the tree.
The fold gathers the rows of every tree (straight from the columns for
columnar shards, one walk for object shards) and sorts them by
``(lo, depth)``. Then
each cell's mass is a prefix-sum difference over the sorted rows, and
a cell survives the final merge batch iff its parent survives and its
mass exceeds the merge threshold. So the compiled ``rap_fold``
(:meth:`~repro.core.columnar.ColumnarRapTree.from_counter_rows`)
counts the survivors in one pass over the partition and lays them out,
already pruned, in a second: the complete partition is never built.
All shards go into one accumulator and each shard is read once (a
pairwise fold re-copies the accumulated tree per shard, quadratic in
the number of shards). The result passes the columnar
``check_invariants`` (array passes), so reads of a columnar profile
stay on array paths.

Object-config shards, universes above ``2**64`` and totals above
``2**63 - 1`` (columns hold 64-bit bounds and counters) take the
reference fold instead, which needs no compiler:
:func:`combine_by_descent` adds each counter at its exact range by a
descent from the root, creating the missing partition cells on the
way, and returns a linked :class:`~repro.core.tree.RapTree`. The
result's backend thus follows the config, as ``RapTree.from_config``
does. The two folds build byte-identical trees (``dump_tree``), which
the test suite checks property by property.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .columnar import ColumnarRapTree
from .config import RapConfig
from .node import RapNode, partition_range
from .tree import RapTree

_INT64_MAX = 2**63 - 1


class CounterRows(NamedTuple):
    """A shard profile as its nonzero counter rows: a fold input.

    The rows are all a fold reads of a shard, so a shard that lives
    elsewhere (a process-executor worker) ships these instead of its
    tree. ``node_count`` is the shard tree's, for accounting; the
    columns are ``uint64`` ``los``/``his`` and ``int64``
    ``counts``/``depths``, in any order, so the universe is at most
    ``2**64``.
    """

    config: RapConfig
    events: int
    node_count: int
    los: np.ndarray
    his: np.ndarray
    counts: np.ndarray
    depths: np.ndarray

    @classmethod
    def of(cls, tree: RapTree) -> "CounterRows":
        """``tree``'s rows (copies; the tree may change afterwards)."""
        rows = _counter_rows(tree)
        return cls(tree.config, tree.events, tree.node_count, *rows)


#: What :func:`combine_many` folds: shard trees, shard rows, or a mix.
FoldInput = Union[RapTree, CounterRows]


def combine_trees(
    first: RapTree,
    second: RapTree,
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """Merge two RAP profiles over the same universe into a new tree.

    Both trees must share ``range_max`` and ``branching`` (so their
    range systems are identical) and ``epsilon`` (so the combined
    ``epsilon * (n1 + n2)`` undercount bound is meaningful). Pass
    ``allow_mismatched_epsilon=True`` to combine shards profiled at
    different precision; the result's config then records the larger
    epsilon, for which the combined bound still holds. The result ends
    with a merge batch to restore the memory bound.
    """
    return combine_many(
        [first, second], allow_mismatched_epsilon=allow_mismatched_epsilon
    )


def combine_many(
    trees: Iterable[FoldInput],
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """Merge any number of shard profiles into a single accumulator tree.

    Every shard's counters are gathered once and folded into one fresh
    tree, unlike a pairwise :func:`combine_trees` fold, which would
    re-copy the accumulated tree per shard. A shard is a tree or its
    :class:`CounterRows`. A single tree is returned
    as-is (callers that must not alias the input — e.g. runtime
    snapshots — should :meth:`~repro.core.tree.RapTree.clone` it); a
    single :class:`CounterRows` is folded like any other input.
    Otherwise the result is a new tree of the backend the combined
    config names (a :class:`~repro.core.columnar.ColumnarRapTree` for
    ``backend="columnar"``, a linked :class:`RapTree` by
    :func:`combine_by_descent` for ``"object"`` and for every fold
    above ``2**64``), and it passed ``check_invariants``.

    Error bound: each shard ``i`` undercounts any range by at most
    ``epsilon_i * n_i``, and the fold deposits every shard counter at
    its exact range, so the combined tree undercounts by at most the sum
    ``sum_i(epsilon_i * n_i)``. With equal epsilons that is the familiar
    ``epsilon * (n_1 + ... + n_k)``; with ``allow_mismatched_epsilon=True``
    the result's config records ``max_i(epsilon_i)``, the smallest
    single epsilon for which the bound still reads ``epsilon * n``.
    """
    trees, config = _fold_inputs(trees, allow_mismatched_epsilon)
    if _lone_tree(trees):
        return trees[0]  # type: ignore[return-value]
    total_events = sum(tree.events for tree in trees)
    if (
        config.backend != "columnar"
        or config.range_max > 2**64
        or total_events > _INT64_MAX
    ):
        return _fold_by_descent(trees, config)
    return _fold_columns(trees, config)


def combine_by_descent(
    trees: Iterable[FoldInput],
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """The reference fold: one root descent per shard counter.

    Same contract and same result as :func:`combine_many`, at any
    universe size, without the compiled kernel; ``combine_many`` uses it
    for object-config shards and above ``2**64``. Kept as the oracle the
    compiled fold is tested and benchmarked against.
    """
    trees, config = _fold_inputs(trees, allow_mismatched_epsilon)
    if _lone_tree(trees):
        return trees[0]  # type: ignore[return-value]
    return _fold_by_descent(trees, config)


def _lone_tree(trees: Sequence[FoldInput]) -> bool:
    """Whether the fold's one input is a tree, returned as is."""
    return len(trees) == 1 and not isinstance(trees[0], CounterRows)


def _fold_inputs(
    trees: Iterable[FoldInput], allow_mismatched_epsilon: bool
) -> Tuple[List[FoldInput], RapConfig]:
    """Validate the shards; return them and the combined config."""
    trees = list(trees)
    if not trees:
        raise ValueError("combine_many needs at least one tree")
    first = trees[0]
    for other in trees[1:]:
        _check_compatible(
            first, other, allow_mismatched_epsilon=allow_mismatched_epsilon
        )
    config = first.config
    max_epsilon = max(tree.config.epsilon for tree in trees)
    if max_epsilon != config.epsilon:
        config = config.with_updates(epsilon=max_epsilon)
    return trees, config


def _fold_by_descent(
    trees: Sequence[FoldInput], config: RapConfig
) -> RapTree:
    combined = RapTree(config)
    total_events = 0
    for source in trees:
        total_events += source.events
        for lo, hi, count, depth in _counters(source):
            found = _add_at_range(combined, lo, hi, count)
            if found != depth:
                # Only an item's range repeats down the partition.
                if lo == hi and found < depth:
                    raise ValueError("a shard counter lies below an item range")
                raise ValueError(
                    "a shard counter is not a partition range of this "
                    "universe at its depth"
                )
    combined._events = total_events  # noqa: SLF001 - fold owns the new tree
    if combined.events:
        combined.merge_now()
        combined.check_invariants()
    return combined


# rap: hot
def _fold_columns(trees: Sequence[FoldInput], config: RapConfig) -> RapTree:
    """The compiled fold: gather the rows, then ``rap_fold``."""
    row_lo, row_hi, row_count, row_depth = (
        np.concatenate(column) for column in zip(*map(_counter_rows, trees))
    )
    if not row_count.size:
        return RapTree.from_config(config)
    folded = ColumnarRapTree.from_counter_rows(
        config, row_lo, row_hi, row_count, row_depth
    )
    folded.check_invariants()
    return folded  # type: ignore[return-value]


def _counters(tree: FoldInput) -> Iterator[Tuple[int, int, int, int]]:
    """A shard's nonzero counters as ``(lo, hi, count, depth)`` ints:
    a tree's in pre-order, rows in their own order."""
    if isinstance(tree, CounterRows):
        yield from zip(
            tree.los.tolist(),
            tree.his.tolist(),
            tree.counts.tolist(),
            tree.depths.tolist(),
        )
        return
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.count:
            yield node.lo, node.hi, node.count, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def _counter_rows(
    tree: FoldInput,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A shard's nonzero counters as ``(lo, hi, count, depth)`` arrays."""
    if isinstance(tree, CounterRows):
        return tree.los, tree.his, tree.counts, tree.depths
    if isinstance(tree, ColumnarRapTree):
        return tree.counter_rows()
    rows = list(_counters(tree))
    los, his, counts, depths = zip(*rows) if rows else ((),) * 4
    return (
        np.array(los, dtype=np.uint64),
        np.array(his, dtype=np.uint64),
        np.array(counts, dtype=np.int64),
        np.array(depths, dtype=np.int64),
    )


def _check_compatible(
    first: FoldInput,
    second: FoldInput,
    *,
    allow_mismatched_epsilon: bool = False,
) -> None:
    if first.config.range_max != second.config.range_max:
        raise ValueError(
            "cannot combine trees over different universes: "
            f"{first.config.range_max} vs {second.config.range_max}"
        )
    if first.config.branching != second.config.branching:
        raise ValueError(
            "cannot combine trees with different branching factors: "
            f"{first.config.branching} vs {second.config.branching}"
        )
    if (
        first.config.epsilon != second.config.epsilon
        and not allow_mismatched_epsilon
    ):
        raise ValueError(
            "cannot combine trees with different epsilon "
            f"({first.config.epsilon} vs {second.config.epsilon}): the "
            "epsilon * (n1 + n2) undercount guarantee would be silently "
            "voided; pass allow_mismatched_epsilon=True to combine at "
            "the larger epsilon's guarantee"
        )


def _add_at_range(tree: RapTree, lo: int, hi: int, count: int) -> int:
    """Add ``count`` onto the node for exactly ``[lo, hi]``; its depth.

    Descends the deterministic partition from the root, materializing
    the (at most ``log_b R``) missing siblings along the way, to the
    shallowest node of that range; raises if ``[lo, hi]`` is not a valid
    partition range of the universe (it always is when the source is a
    compatible RAP tree).
    """
    node = tree.root
    branching = tree.config.branching
    created = 0
    depth = 0
    while not (node.lo == lo and node.hi == hi):
        if node.is_leaf:
            for cell in partition_range(node.lo, node.hi, branching):
                node.attach_child(RapNode(cell[0], cell[1]))
                created += 1
        child = node.child_covering(lo)
        if child is None or child.hi < hi:
            # The target straddles a gap left by an earlier merge in the
            # destination: materialize this node's partition cells too.
            cells = partition_range(node.lo, node.hi, branching)
            existing = {(kid.lo, kid.hi) for kid in node.children}
            for cell in cells:
                if cell not in existing:
                    node.attach_child(RapNode(cell[0], cell[1]))
                    created += 1
            child = node.child_covering(lo)
            if child is None or child.hi < hi:
                raise ValueError(
                    f"[{lo}, {hi}] is not a partition range of this universe"
                )
        node = child
        depth += 1
    # Combination deposits a source tree's range weight wholesale; the
    # destination re-establishes conservation once every range lands.
    node.count += count  # noqa: RAP-LINT003 - fold re-establishes conservation
    tree._node_count += created  # noqa: SLF001 - fold owns the new tree
    tree._generation += 1  # noqa: SLF001 - fold owns the new tree
    return depth


def split_stream_profile(
    config: RapConfig,
    shards: List[List[int]],
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """Convenience: profile each shard separately, then combine.

    Models the distributed deployment (one profiler per core or per
    trace file segment) and is what the combination tests exercise
    against a single-pass reference. All shards profile at the same
    ``config`` here, so ``allow_mismatched_epsilon`` only matters when a
    caller relaxes the fold after re-configuring shards; it is threaded
    through to :func:`combine_many` unchanged.
    """
    trees = []
    for shard in shards:
        tree = RapTree(config)
        tree.extend(shard)
        trees.append(tree)
    return combine_many(
        trees, allow_mismatched_epsilon=allow_mismatched_epsilon
    )
