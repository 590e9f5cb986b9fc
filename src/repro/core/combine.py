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

The fold is arithmetic, not a search. Every counter of every shard sits
on a cell of the same deterministic b-ary partition, so the combined
tree before pruning is fixed by the shards' ``(lo, hi, count, depth)``
rows alone: a node has children iff some deeper row starts inside its
range, and then it has *all* of its ``partition_range`` cells. The
fold gathers the rows (straight from the columns for columnar shards,
shared-memory attachments included; one walk for object shards),
expands that partition top-down one level per pass with a vectorized
``(base, extra)`` cell formula, deposits the counts with
``np.add.at``, lays the result out as columns and prunes it with the
columnar kernel's vectorized merge pass. All shards go into one
accumulator and each shard is read once (a pairwise fold re-copies the
accumulated tree per shard, quadratic in the number of shards). The
pruned columns pass the columnar ``check_invariants`` (array passes)
and are the result when the shards' config says
``backend="columnar"``, so reads of a columnar profile stay on array
paths; object-config shards get the same tree as a linked
:class:`~repro.core.tree.RapTree`. The result's backend follows the
config, as ``RapTree.from_config`` does.

Columns hold 64-bit bounds and counters, so universes above ``2**64``
(or totals above ``2**63 - 1``) take the reference fold instead:
:func:`combine_by_descent` adds each counter at its exact range by a
descent from the root, creating the missing partition cells on the
way. The two folds build byte-identical trees (``dump_tree``), which
the test suite checks property by property.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .columnar import ColumnarRapTree
from .config import RapConfig
from .node import RapNode, partition_range
from .tree import RapTree

_INT64_MAX = 2**63 - 1


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
    trees: Iterable[RapTree],
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """Merge any number of shard profiles into a single accumulator tree.

    Every shard's counters are gathered once and folded into one fresh
    tree, unlike a pairwise :func:`combine_trees` fold, which would
    re-copy the accumulated tree per shard. A single tree is returned
    as-is (callers that must not alias the input — e.g. runtime
    snapshots — should :meth:`~repro.core.tree.RapTree.clone` it).
    Otherwise the result is a new tree of the backend the combined
    config names (a :class:`~repro.core.columnar.ColumnarRapTree` for
    ``backend="columnar"``, a linked :class:`RapTree` for ``"object"``
    and for every fold above ``2**64``), and it passed
    ``check_invariants``.

    Error bound: each shard ``i`` undercounts any range by at most
    ``epsilon_i * n_i``, and the fold deposits every shard counter at
    its exact range, so the combined tree undercounts by at most the sum
    ``sum_i(epsilon_i * n_i)``. With equal epsilons that is the familiar
    ``epsilon * (n_1 + ... + n_k)``; with ``allow_mismatched_epsilon=True``
    the result's config records ``max_i(epsilon_i)``, the smallest
    single epsilon for which the bound still reads ``epsilon * n``.
    """
    trees, config = _fold_inputs(trees, allow_mismatched_epsilon)
    if len(trees) == 1:
        return trees[0]
    total_events = sum(tree.events for tree in trees)
    if config.range_max > 2**64 or total_events > _INT64_MAX:
        return _fold_by_descent(trees, config)
    return _fold_columns(trees, config)


def combine_by_descent(
    trees: Iterable[RapTree],
    *,
    allow_mismatched_epsilon: bool = False,
) -> RapTree:
    """The reference fold: one root descent per shard counter.

    Same contract and same result as :func:`combine_many`, at any
    universe size; ``combine_many`` uses it above ``2**64``. Kept as the
    oracle the array fold is tested and benchmarked against.
    """
    trees, config = _fold_inputs(trees, allow_mismatched_epsilon)
    if len(trees) == 1:
        return trees[0]
    return _fold_by_descent(trees, config)


def _fold_inputs(
    trees: Iterable[RapTree], allow_mismatched_epsilon: bool
) -> Tuple[List[RapTree], RapConfig]:
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


def _fold_by_descent(trees: Sequence[RapTree], config: RapConfig) -> RapTree:
    combined = RapTree(config)
    total_events = 0
    for source in trees:
        total_events += source.events
        for node in source.nodes():
            if node.count:
                _add_at_range(combined, node.lo, node.hi, node.count)
    combined._events = total_events  # noqa: SLF001 - fold owns the new tree
    if combined.events:
        combined.merge_now()
        combined.check_invariants()
    return combined


# rap: hot
def _fold_columns(trees: Sequence[RapTree], config: RapConfig) -> RapTree:
    """The array fold: gather, expand, deposit, merge (module docstring)."""
    row_lo, row_hi, row_count, row_depth = (
        np.concatenate(column) for column in zip(*map(_counter_rows, trees))
    )
    if not row_count.size:
        return RapTree.from_config(config)
    by_depth = np.argsort(row_depth, kind="stable")
    row_lo, row_hi, row_count, row_depth = (
        column[by_depth] for column in (row_lo, row_hi, row_count, row_depth)
    )
    max_depth = int(row_depth[-1])
    bounds = np.searchsorted(row_depth, np.arange(max_depth + 2))
    branching = config.branching

    # Row starts in lo order; each level drops the rows at its depth,
    # which leaves the starts of the deeper rows, still sorted.
    by_lo = np.argsort(row_lo, kind="stable")
    deeper_lo = row_lo[by_lo]
    deeper_depth = row_depth[by_lo]
    level_lo = np.zeros(1, dtype=np.uint64)
    level_hi = np.full(1, config.range_max - 1, dtype=np.uint64)
    level_parent = np.full(1, -1, dtype=np.int64)
    lo_parts: List[np.ndarray] = []
    hi_parts: List[np.ndarray] = []
    parent_parts: List[np.ndarray] = []
    slot_parts: List[np.ndarray] = []
    base_slot = 0
    for depth in range(max_depth + 1):
        # Find each of this level's rows a node: the level is sorted by
        # lo and its ranges are disjoint, so one binary search per row
        # does it (checked against the row's bounds after the loop).
        at = np.searchsorted(
            level_lo, row_lo[bounds[depth] : bounds[depth + 1]]
        )
        slot_parts.append(base_slot + np.minimum(at, level_lo.size - 1))
        lo_parts.append(level_lo)
        hi_parts.append(level_hi)
        parent_parts.append(level_parent)
        if depth == max_depth:
            break
        # Expand a node iff some deeper row starts inside it.
        deeper = deeper_depth > depth
        deeper_lo = deeper_lo[deeper]
        deeper_depth = deeper_depth[deeper]
        inside = np.searchsorted(
            deeper_lo, level_hi, side="right"
        ) - np.searchsorted(deeper_lo, level_lo, side="left")
        expand = np.flatnonzero(inside)
        level_lo, level_hi, rows_of = _partition_cells(
            level_lo[expand], level_hi[expand], branching, root=depth == 0
        )
        level_parent = base_slot + expand[rows_of]
        base_slot += lo_parts[-1].size

    los = np.concatenate(lo_parts)
    his = np.concatenate(hi_parts)
    parents = np.concatenate(parent_parts)
    row_slot = np.concatenate(slot_parts)
    if not (
        np.array_equal(los[row_slot], row_lo)
        and np.array_equal(his[row_slot], row_hi)
    ):
        raise ValueError(
            "a shard counter is not a partition range of this universe "
            "at its depth"
        )
    if np.any(los[parents[1:]] == his[parents[1:]]):
        raise ValueError("a shard counter lies below an item range")
    counts = np.zeros(los.size, dtype=np.int64)
    np.add.at(counts, row_slot, row_count)
    depths = np.repeat(
        np.arange(len(lo_parts)), [part.size for part in lo_parts]
    )
    folded = ColumnarRapTree.from_complete_partition(
        config, los, his, depths, parents, counts
    )
    folded.merge_now()
    folded.compact()
    folded.check_invariants()
    if config.backend == "columnar":
        return folded  # type: ignore[return-value]
    # Object-config shards get the object backend: the columnar view
    # *is* a linked RapNode tree, and the fold owns both trees.
    combined = RapTree(config)
    combined._root = folded.root  # noqa: SLF001 - fold owns it
    combined._node_count = folded.node_count  # noqa: SLF001 - fold owns it
    combined._events = folded.events  # noqa: SLF001 - fold owns it
    combined._scheduler = folded.merge_scheduler  # noqa: SLF001 - fold owns it
    combined._stats = folded.stats  # noqa: SLF001 - fold owns it
    combined._generation = folded.mutation_generation  # noqa: SLF001 - fold owns it
    return combined


def _counter_rows(
    tree: RapTree,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A shard's nonzero counters as ``(lo, hi, count, depth)`` arrays."""
    if isinstance(tree, ColumnarRapTree):
        return tree.counter_rows()
    los: List[int] = []
    his: List[int] = []
    counts: List[int] = []
    depths: List[int] = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.count:
            los.append(node.lo)
            his.append(node.hi)
            counts.append(node.count)
            depths.append(depth)
        stack.extend((child, depth + 1) for child in node.children)
    return (
        np.array(los, dtype=np.uint64),
        np.array(his, dtype=np.uint64),
        np.array(counts, dtype=np.int64),
        np.array(depths, dtype=np.int64),
    )


def _partition_cells(
    lo: np.ndarray, hi: np.ndarray, branching: int, *, root: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``partition_range`` of every ``[lo[i], hi[i]]`` at once.

    Returns the cells' bounds in ``(parent, lo)`` order and each cell's
    parent row. Cell ``j`` of a width-``w`` range with ``c = min(b, w)``
    cells starts at ``lo + j * (w // c) + min(j, w % c)``. The root's
    width can be ``2**64``, which uint64 cannot hold, so the root (one
    range) goes through ``partition_range`` in Python ints.
    """
    if root:
        cells = partition_range(int(lo[0]), int(hi[0]), branching)
        return (
            np.array([cell[0] for cell in cells], dtype=np.uint64),
            np.array([cell[1] for cell in cells], dtype=np.uint64),
            np.zeros(len(cells), dtype=np.int64),
        )
    width = hi - lo + np.uint64(1)
    cells_n = np.minimum(width, np.uint64(branching))
    base = width // cells_n
    extra = width % cells_n
    j = np.arange(branching, dtype=np.uint64)[None, :]
    starts = lo[:, None] + j * base[:, None] + np.minimum(j, extra[:, None])
    ends = np.empty_like(starts)
    ends[:, :-1] = starts[:, 1:] - np.uint64(1)
    ends[np.arange(lo.size), cells_n.astype(np.int64) - 1] = hi
    valid = j < cells_n[:, None]
    rows, cols = np.nonzero(valid)
    return starts[rows, cols], ends[rows, cols], rows.astype(np.int64)


def _check_compatible(
    first: RapTree,
    second: RapTree,
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


def _add_at_range(tree: RapTree, lo: int, hi: int, count: int) -> None:
    """Add ``count`` onto the node for exactly ``[lo, hi]``.

    Descends the deterministic partition from the root, materializing
    the (at most ``log_b R``) missing siblings along the way; raises if
    ``[lo, hi]`` is not a valid partition range of the universe (it
    always is when the source is a compatible RAP tree).
    """
    node = tree.root
    branching = tree.config.branching
    created = 0
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
    # Combination deposits a source tree's range weight wholesale; the
    # destination re-establishes conservation once every range lands.
    node.count += count  # noqa: RAP-LINT003 - fold re-establishes conservation
    tree._node_count += created  # noqa: SLF001 - fold owns the new tree
    tree._generation += 1  # noqa: SLF001 - fold owns the new tree


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
