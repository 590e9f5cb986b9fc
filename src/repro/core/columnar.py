"""Struct-of-arrays RAP tree kernel with vectorized batch ingest.

:class:`ColumnarRapTree` stores the range tree in parallel numpy
columns instead of linked :class:`~repro.core.node.RapNode` objects.
One *slot* (column index) is one node; freed slots are recycled through
a free stack. Every column has exactly one copy — there is no Python
shadow list and no mirror to refresh:

========================  ============  ===================================
column                    dtype         meaning
========================  ============  ===================================
``_counts``               int64         the node's counter (canonical)
``_los`` / ``_his``       uint64        closed range bounds (universe 2**64)
``_parents``              int32         parent slot (-1 at the root)
``_first_child``          int32         head of the sorted sibling chain
``_next_sibling``         int32         next sibling in ``lo`` order
``_n_children``           int32         chain length (avoids walks)
``_depth``                int32         node depth (root 0; level kernels)
``_is_item``              bool          ``lo == hi`` (vector fit predicate)
``_dirty``                bool          dirty-frontier flag (see tree.py)
``_cached_weight``        int64         subtree weight at last merge visit
``_cached_min``           int64         min subtree weight at last visit
``_live``                 bool          slot is an allocated node
``_free_slots``           int32         free stack (``_free_top`` entries)
========================  ============  ===================================

On top of the slots sits the *cover index*: the deepest covering node is
piecewise constant over the value space, so ``_cov_starts`` (sorted
segment starts) and ``_cov_owner`` (owning slot per segment) answer
"smallest covering range" with one ``searchsorted`` — for a whole batch
at once. The index is maintained incrementally in both directions:
splits queue positioned-insert splices on ``_cov_pending`` (a split
node's owned region is exactly its missing partition cells), and merge
passes remap every segment to the nearest surviving ancestor of its old
owner and coalesce equal-owner runs — no wholesale rebuild on either
path (``_rebuild_cover`` survives as the oracle that
``check_invariants`` compares against, and as the deferred build for
trees wrapped by ``attach_columns``, run on the first cover read).

Batch ingest (`extend` / `add_counted` / `add_batch`) consumes one
*window* per round. The round routes the window through the cover index
and cuts it before the next merge trigger and before any malformed
item. Owners that merge churn left already over threshold are split
*dry* first: each is checked at its first arrival in the cut with the
scalar cascade's own dry-split predicate, split if it holds, and its
items re-routed to the fresh children. An owner whose whole-cut deposit
then fits the cut's first arrival threshold is *safe*: its items are
applied with one exact ``bincount`` scatter. Every other owner's items
are *holdouts*, settled in array passes. A pass routes the remaining
holdouts through the cover, takes each owner's running deposit against
each item's own arrival threshold, scatters every item before the
owner's first crossing, and sends only that crossing item through the
exact scalar cascade, with ``events`` rewound to its arrival value, so
split cascades land exactly where the object backend puts them. The
next pass routes what is left through the cover those cascades
deepened. A blocked owner never stalls the rest of the window, and a
pass runs once per cascade generation, not once per item. The scalar
cascade is arithmetic-identical to :class:`repro.core.tree.RapTree`
(same closed-form split crossing points, same mid-count merges), so the
two backends produce identical trees for identical operation sequences.

Why the passes are exact: within one cut window no merge can fire (the
cut ends before the trigger) and thresholds only grow, so a deposit
that keeps its owner's counter at or below the *first* item's threshold
fits at its own (later) arrival too, and a per-item check against each
arrival threshold is exactly the scalar path's check. Owner regions are
disjoint, so a cascade reads its owner's counter after exactly the
deposits that preceded it in arrival order, and the splits it performs
only re-route later items of that same owner; every other owner's items
route as before. The same facts make the dry pre-split exact: a dry
split absorbs nothing and leaves ``events`` alone, and the owner's
counter is untouched before its first arrival, so splitting it at the
start of the cut builds the tree splitting it at that arrival would
(only ``TreeStats.node_seconds`` books the new children a little
earlier).

Regimes: a cold tree starts in *storm* mode, where nearly every
deposit is a true crossing and windows run straight through the scalar
kernel. The storm ends after two scalar windows in which under 1/64 of
the items cascaded, and a vectorized round re-enters it only when a
quarter of its items cascaded. The window doubles (up to
``_WINDOW_MAX``) while under an eighth of a round cascades. Both
signals count true cascades: a held item that fits costs an array
pass, not the scalar kernel, and a dry pre-split costs one split, so
neither counts.

Exactness: the fit predicate works entirely on the integer side.
Per-owner deposits are summed exactly in int64 (``_exact_bincount``
splits each weight into 32-bit halves so every float64 partial sum that
``np.bincount`` computes internally stays below 2**53), totals are
compared against ``math.floor`` of the float threshold — for integral
``x``, ``x <= t`` iff ``x <= floor(t)`` — and the merge-trigger cut
compares int64 running totals against ``math.ceil`` of the trigger, so
no float64 rounding ever enters a routing decision, including counters
past 2**53 (RAP-LINT019/020 gate regressions here). The scalar cascade
converts every counter it reads to a Python int before comparing
against float thresholds, preserving CPython's exact int-float
comparison. Totals beyond int64 are out of the kernel's domain: a
counter store past 2**63-1 raises (``ValueError`` from the memoryview
store on the scalar paths, ``OverflowError`` from the array store on
the vectorized scatter) instead of wrapping (the object backend's
Python ints keep going; the paper's ``n`` sits far below either
bound).

Construct through ``RapTree.from_config(RapConfig(backend="columnar"))``
— importing this module's internals elsewhere is flagged by RAP-LINT012.
"""

from __future__ import annotations

import math
import os
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .config import MergeScheduler, RapConfig, split_crossing_point
from .node import RapNode, partition_range
from .stats import TreeStats

_NO_SLOT = -1
_INITIAL_CAPACITY = 64
# Vectorized window sizing: grows while rounds come back nearly
# cascade-free, shrinks while the cascade fraction is high (cold-start
# split storms), bounding the threshold staleness a long window causes.
_WINDOW_MIN = 512
_WINDOW_START = 1024
_WINDOW_MAX = 16384
# Below this many remaining items the fixed numpy overhead of a round
# (array conversion, argsort, mask passes) costs more than finishing
# the tail through the scalar kernel, which runs ~1us per item.
_MIN_VECTOR_TAIL = 384

# int64 split point for _exact_bincount: weights are divided at 32 bits
# so each half's float64 bincount sum stays exact (see the docstring).
_LOW32 = (1 << 32) - 1
_INT64_MAX = 2**63 - 1
# float64(2**63), exact: thresholds at or above it exceed every int64
# counter, so the integer-side comparison clamps to _INT64_MAX there.
_TWO_POW_63 = 9223372036854775808.0


def _exact_bincount(
    owners: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """Exact int64 per-owner sums of non-negative int64 ``weights``.

    ``np.bincount(..., weights=...)`` always accumulates in float64,
    which rounds individual deposits above 2**53. Splitting each weight
    into 32-bit halves keeps every float64 partial sum exact — with
    fewer than 2**21 contributions per owner each half sums to below
    2**21 * 2**32 = 2**53 (an ingest window holds at most ``_WINDOW_MAX``
    = 2**14 items) — and the recombined int64 total is exact for any
    sum that fits int64. Where the accumulation is an indexed add of
    existing int64 values rather than a ``weights=`` sum (the merge
    pass), ``np.add.at`` is exact and cheaper — this helper is for the
    bincount-shaped reductions only.
    """
    low = np.bincount(owners, weights=weights & _LOW32, minlength=minlength)
    high = np.bincount(owners, weights=weights >> 32, minlength=minlength)
    return low.astype(np.int64) + (high.astype(np.int64) << 32)


#: Per-slot columns, grown together (see _grow). ``_free_slots`` rides
#: along at the same capacity: every slot can be on the stack at most
#: once, so pushes can never overflow it.
_ARRAY_COLUMNS: Tuple[str, ...] = (
    "_counts",
    "_los",
    "_his",
    "_parents",
    "_first_child",
    "_next_sibling",
    "_n_children",
    "_depth",
    "_is_item",
    "_dirty",
    "_cached_weight",
    "_cached_min",
    "_live",
)


class ColumnarRapTree:
    """Array-backed RAP profile, observably equivalent to ``RapTree``.

    Implements the :class:`repro.core.backend.TreeBackend` protocol.
    ``root``/``nodes()``/``leaves()`` materialize a read-only
    :class:`~repro.core.node.RapNode` view of the columns (cached per
    mutation generation) so serialization and auditing treat both
    backends identically. Mutating the view does not affect the tree.
    Folds, estimates, hot ranges and ``check_invariants`` read the
    columns directly and never build the view.
    """

    #: dtype of every slot column plus the free stack, in
    #: ``_ARRAY_COLUMNS + ("_free_slots",)`` order. The shared-memory
    #: arena (:mod:`repro.runtime.shm`) sizes its segments from this
    #: table, and :meth:`attach_columns` validates against it.
    COLUMN_DTYPES: Dict[str, np.dtype] = {
        "_counts": np.dtype(np.int64),
        "_los": np.dtype(np.uint64),
        "_his": np.dtype(np.uint64),
        "_parents": np.dtype(np.int32),
        "_first_child": np.dtype(np.int32),
        "_next_sibling": np.dtype(np.int32),
        "_n_children": np.dtype(np.int32),
        "_depth": np.dtype(np.int32),
        "_is_item": np.dtype(np.bool_),
        "_dirty": np.dtype(np.bool_),
        "_cached_weight": np.dtype(np.int64),
        "_cached_min": np.dtype(np.int64),
        "_live": np.dtype(np.bool_),
        "_free_slots": np.dtype(np.int32),
    }

    def __init__(
        self,
        config: RapConfig,
        *,
        allocator: Optional[
            Callable[[str, np.dtype, int], np.ndarray]
        ] = None,
    ) -> None:
        self._config = config
        # Optional column allocator hook: ``allocator(name, dtype,
        # capacity)`` returns a zero-filled 1-D array of exactly
        # ``capacity`` elements. The process-executor runtime passes the
        # shared-memory arena's allocator so every column (and every
        # ``_grow`` remap) lands in a SharedMemory block the parent can
        # attach; ``None`` keeps plain heap-backed numpy arrays.
        self._allocator = allocator
        capacity = _INITIAL_CAPACITY
        self._capacity = capacity
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            setattr(
                self,
                name,
                self._new_column(name, self.COLUMN_DTYPES[name], capacity),
            )
        self._free_top = 0
        self._size = 0
        # Allocation-default pre-fill: fresh (never-allocated) slots
        # already hold the state _alloc would write — leaf chain head,
        # dirty, live — and freed slots are restored to it in bulk when
        # the merge pass recycles them, so the allocation hot path only
        # stores the per-node fields (bounds, depth, item flag). The
        # live pre-fill is safe: every _live read is masked to the
        # allocated prefix ``[:size]``.
        self._first_child.fill(_NO_SLOT)
        self._dirty.fill(True)
        self._live.fill(True)
        self._rebind_views()
        root = self._alloc(0, config.range_max - 1, 0)
        assert root == 0, "root must occupy slot 0"
        # _alloc leaves parent/sibling pointers to _set_children; the
        # root is never anyone's child, so pin its pointers here once.
        self._parents[0] = _NO_SLOT
        self._next_sibling[0] = _NO_SLOT
        self._root_hi = config.range_max - 1
        self._node_count = 1
        self._events = 0
        self._scheduler = MergeScheduler(
            initial_interval=config.merge_initial_interval,
            growth=config.merge_growth,
        )
        self._stats = TreeStats(sample_every=config.timeline_sample_every)
        self._eps_over_height = config.epsilon / config.max_height
        self._min_threshold = config.min_split_threshold
        self._audit_every = config.audit_every
        self._next_audit = config.audit_every
        self._generation = 0
        self._confined_ident: Optional[Tuple[int, int]] = None
        # Finger cache for scalar descents (same role as RapTree's
        # ``_cached_node``); reset to the root after merges recycle slots.
        self._cached_slot = 0
        # Cover index: one segment, the whole universe, owned by the root.
        self._cov_starts = np.zeros(1, dtype=np.uint64)
        self._cov_owner = np.zeros(1, dtype=np.int64)
        # Queued split splices, folded in batch by the next _sync_cover.
        self._cov_pending: List[Tuple[int, List[int]]] = []
        # Set by attach_columns: the cover is built on first read.
        self._cover_stale = False
        # Materialized RapNode view, cached per mutation generation.
        self._view_root: Optional[RapNode] = None
        self._view_generation = -1
        # Bulk-ingest mode flag, persistent across _ingest calls: a
        # cold tree starts in a split storm (every deposit crosses
        # the still-tiny thresholds), and chunked feeders like
        # add_stream re-enter _ingest mid-storm. Purely a routing
        # heuristic — both modes are the exact scalar semantics.
        # ``_calm`` counts consecutive low-fallback scalar windows; the
        # storm only ends after two, so one quiet window between split
        # bursts (common in chunked counted feeds) does not buy a
        # wasted convert-and-vectorize round trip.
        self._storm = True
        self._calm = 0

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _new_column(
        self, name: str, dtype: np.dtype, capacity: int
    ) -> np.ndarray:
        """Allocate one zero-filled column through the allocator hook."""
        if self._allocator is not None:
            return self._allocator(name, dtype, capacity)
        return np.zeros(capacity, dtype=dtype)

    def _rebind_views(self) -> None:
        """Rebind the zero-copy scalar read views over the columns.

        ``memoryview`` indexing returns plain Python ints/bools straight
        off the numpy buffers (no array-scalar boxing), which makes the
        scalar cascade's per-element reads ~3x cheaper while keeping a
        single copy of every column — the views alias the same memory,
        so every vectorized write is visible through them immediately.
        Scalar *writes* go through the views too (~1.5-2x cheaper than
        a numpy scalar store), counters included: an int64 counter
        store that overflows raises ``ValueError`` from the memoryview
        (numpy's array store would raise ``OverflowError``) — either
        way a loud failure, never a silent wrap; the module docstring
        pins the exception types. Must be called whenever a column
        array object is replaced (``_grow``/``clone``).
        """
        self._v_counts = memoryview(self._counts)
        self._v_los = memoryview(self._los)
        self._v_his = memoryview(self._his)
        self._v_parents = memoryview(self._parents)
        self._v_first_child = memoryview(self._first_child)
        self._v_next_sibling = memoryview(self._next_sibling)
        self._v_n_children = memoryview(self._n_children)
        self._v_depth = memoryview(self._depth)
        self._v_is_item = memoryview(self._is_item)
        self._v_dirty = memoryview(self._dirty)
        self._v_live = memoryview(self._live)
        self._v_free_slots = memoryview(self._free_slots)

    def _alloc(self, lo: int, hi: int, depth: int) -> int:
        """Pop a slot off the free stack (or extend) and initialize it.

        Recycled slots had their counter and item flag reset when the
        merge pass freed them, so a zero counter is an invariant of
        every non-live slot (estimate/total_weight sum the raw column).
        This path stores only the per-node fields (bounds, depth, item
        flag). Everything else already holds the allocation default:
        parent and sibling pointers are immediately overwritten by the
        caller's chain build (the root's are set once in ``__init__``),
        a dirty slot's cached weight/min are never read before the next
        merge pass rewrites them wholesale, and the leaf/dirty/live
        state is pre-filled for fresh slots and bulk-restored when the
        merge pass frees a batch (only ``live`` needs a store on the
        recycle branch — frees are what cleared it).
        """
        if self._free_top:
            self._free_top -= 1
            slot = self._v_free_slots[self._free_top]
            self._v_live[slot] = True
        else:
            slot = self._size
            if slot == self._capacity:
                self._grow()
            self._size += 1
        self._v_los[slot] = lo
        self._v_his[slot] = hi
        self._v_depth[slot] = depth
        if lo == hi:
            self._v_is_item[slot] = True
        return slot

    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, 2 * self._capacity)
        old_capacity = self._capacity
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            old = getattr(self, name)
            # Under the allocator hook this is the shared-memory "grow
            # by remap": a fresh (larger) segment per column, the live
            # prefix copied over, the old segment retired by the arena.
            grown = self._new_column(name, old.dtype, capacity)
            grown[: old.size] = old
            setattr(self, name, grown)
        # Restore the allocation-default pre-fill on the fresh tail
        # (see __init__) so _alloc can keep skipping those stores.
        self._first_child[old_capacity:] = _NO_SLOT
        self._dirty[old_capacity:] = True
        self._live[old_capacity:] = True
        self._capacity = capacity
        self._rebind_views()

    def _children_slots(self, slot: int) -> List[int]:
        """Direct children of ``slot`` in ``lo`` order."""
        out: List[int] = []
        child = self._v_first_child[slot]
        next_sibling = self._v_next_sibling
        while child != _NO_SLOT:
            out.append(child)
            child = next_sibling[child]
        return out

    def _set_children(self, slot: int, kids: List[int]) -> None:
        """Rebuild the sibling chain of ``slot`` from a sorted slot list."""
        self._v_n_children[slot] = len(kids)
        self._v_first_child[slot] = kids[0] if kids else _NO_SLOT
        parents = self._v_parents
        next_sibling = self._v_next_sibling
        last = len(kids) - 1
        for index, kid in enumerate(kids):
            parents[kid] = slot
            next_sibling[kid] = kids[index + 1] if index < last else _NO_SLOT

    def _mark_dirty(self, slot: int) -> None:
        """Mark ``slot`` and its clean ancestors dirty (early-exit walk)."""
        vdirty = self._v_dirty
        vparents = self._v_parents
        while slot != _NO_SLOT and not vdirty[slot]:
            vdirty[slot] = True
            slot = vparents[slot]

    def _mark_dirty_many(self, touched: np.ndarray) -> None:
        """Vectorized dirty propagation for a batch of deposited slots.

        Level-by-level frontier walk: same final dirty set as calling
        :meth:`_mark_dirty` per slot (a slot already dirty stops the
        climb; ancestors of newly dirtied slots continue it).
        """
        dirty = self._dirty
        parents = self._parents
        current = touched[~dirty[touched]]
        while current.size:
            dirty[current] = True
            up = parents[current]
            up = up[up != _NO_SLOT]
            if not up.size:
                return
            up = np.unique(up)
            current = up[~dirty[up]]

    # ------------------------------------------------------------------
    # Scalar descent (finger search over the sibling chains)
    # ------------------------------------------------------------------

    def _deepest_slot(self, value: int) -> int:
        """Slot of the deepest node covering ``value``.

        Finger search, exactly like ``RapTree._locate``: walk up from
        the cached slot until the value is covered, then descend the
        sorted sibling chains. Consecutive events land near each other
        (loops, hot ranges), so the walk is usually O(1). All reads go
        through the memoryview accessors (plain Python ints out).
        """
        los = self._v_los
        his = self._v_his
        no_slot = _NO_SLOT
        slot = self._cached_slot
        if value < los[slot] or value > his[slot]:
            parents = self._v_parents
            slot = parents[slot]
            while slot != no_slot and (
                value < los[slot] or value > his[slot]
            ):
                slot = parents[slot]
            if slot == no_slot:
                slot = 0
        first_child = self._v_first_child
        next_sibling = self._v_next_sibling
        while True:
            child = first_child[slot]
            while child != no_slot and value > his[child]:
                child = next_sibling[child]
            if child == no_slot or los[child] > value:
                self._cached_slot = slot
                return slot
            slot = child

    # ------------------------------------------------------------------
    # Cover index (incremental in both directions)
    # ------------------------------------------------------------------

    def _rebuild_cover(self) -> None:
        """Recompute the full cover index from the sibling chains.

        The incremental splices (split inserts in ``_sync_cover``, the
        merge remap in ``_merge_frontier``) keep the live index equal to
        this recursive emission; ``check_invariants`` asserts exactly
        that, so this survives as the oracle, not a maintenance path.
        """
        starts: List[int] = []
        owners: List[int] = []
        # Plain-list mirrors of the columns: one C-speed conversion each,
        # then the per-node walk runs on native ints instead of paying a
        # numpy scalar extraction per field per node. The walk itself is
        # the recursive emission unrolled onto an explicit stack of
        # (slot, resume position, next child) frames, so arbitrarily deep
        # trees cannot hit the interpreter recursion limit either.
        los = self._los.tolist()
        his = self._his.tolist()
        first_child = self._first_child.tolist()
        next_sibling = self._next_sibling.tolist()
        stack = [(0, los[0], first_child[0])]
        while stack:
            slot, position, child = stack.pop()
            while child != _NO_SLOT:
                if los[child] > position:
                    starts.append(position)
                    owners.append(slot)
                stack.append((slot, his[child] + 1, next_sibling[child]))
                slot = child
                position = los[slot]
                child = first_child[slot]
            if position <= his[slot]:
                starts.append(position)
                owners.append(slot)
        self._cov_starts = np.array(starts, dtype=np.uint64)
        self._cov_owner = np.array(owners, dtype=np.int64)

    def _sync_cover(self) -> None:
        """Fold queued split splices into the cover index.

        After a split every missing partition cell gained a child, so the
        split node owns nothing: its segments are exactly the union of
        the new children's ranges. Batching the queued splits means one
        positioned insert per vectorized round instead of one per split;
        a fresh child that itself split later in the same batch
        contributes no segment (its own children do). A tree wrapped by
        :meth:`attach_columns` has no cover yet; it is built here, on
        the first read that needs it.
        """
        if self._cover_stale:
            self._rebuild_cover()
            self._cover_stale = False
        pending = self._cov_pending
        if not pending:
            return
        self._cov_pending = []
        split_slots = {slot for slot, _ in pending}
        new_owners = [
            kid
            for _, created in pending
            for kid in created
            if kid not in split_slots
        ]
        # Membership via a boolean table over slots: owners are slot ids
        # (< size), so this is O(segments) with no sorting — much cheaper
        # than np.isin for the handful of splits pending between rounds.
        split_table = np.zeros(self._size, dtype=np.bool_)
        split_table[list(split_slots)] = True
        keep = ~split_table[self._cov_owner]
        kept_starts = self._cov_starts[keep]
        kept_owner = self._cov_owner[keep]
        owner_arr = np.asarray(new_owners, dtype=np.int64)
        new_starts = self._los[owner_arr]
        order = np.argsort(new_starts, kind="stable")
        new_starts = new_starts[order]
        owner_arr = owner_arr[order]
        # Both sides are sorted, so a positioned insert replaces the
        # concatenate-and-argsort: O(segments) copy, no sort. Done by
        # hand (shared scatter mask) — np.insert's argument handling
        # costs more than the copy itself at this size.
        positions = np.searchsorted(kept_starts, new_starts)
        grown = kept_starts.size + new_starts.size
        at = positions + np.arange(new_starts.size)
        starts_out = np.empty(grown, dtype=np.uint64)
        owner_out = np.empty(grown, dtype=np.int64)
        old_at = np.ones(grown, dtype=np.bool_)
        old_at[at] = False
        starts_out[at] = new_starts
        owner_out[at] = owner_arr
        starts_out[old_at] = kept_starts
        owner_out[old_at] = kept_owner
        self._cov_starts = starts_out
        self._cov_owner = owner_out

    # ------------------------------------------------------------------
    # Basic properties (mirrors RapTree)
    # ------------------------------------------------------------------

    @property
    def config(self) -> RapConfig:
        return self._config

    @property
    def root(self) -> RapNode:
        """Materialized read-only view of the tree (see class docstring)."""
        return self._materialize()

    @property
    def events(self) -> int:
        """Total event weight processed so far (the paper's ``n``)."""
        return self._events

    @property
    def node_count(self) -> int:
        """Current number of counters (nodes) in the tree."""
        return self._node_count

    @property
    def stats(self) -> TreeStats:
        return self._stats

    @property
    def mutation_generation(self) -> int:
        """Epoch counter bumped on every mutation of the profile."""
        return self._generation

    @property
    def merge_scheduler(self) -> MergeScheduler:
        return self._scheduler

    @property
    def split_threshold(self) -> float:
        """Current value of ``epsilon * n / log_b(R)`` (with floor)."""
        raw = self._eps_over_height * self._events
        return raw if raw > self._min_threshold else self._min_threshold

    def error_bound(self) -> float:
        """Worst-case undercount of any range estimate: ``epsilon * n``."""
        return self._config.epsilon * self._events

    def memory_bytes(self, bits_per_node: int = 128) -> int:
        """Actual bytes held by the column arrays.

        Counts every allocated slot — free-list slack and the unused
        capacity tail included — plus the cover index and the free
        stack: what the process really pays for this profile, not the
        paper's per-node model. ``bits_per_node`` is accepted for
        signature compatibility across backends but only the model
        (:meth:`modeled_memory_bytes`) uses it.
        """
        total = (
            self._free_slots.nbytes
            + self._cov_starts.nbytes
            + self._cov_owner.nbytes
        )
        for name in _ARRAY_COLUMNS:
            total += getattr(self, name).nbytes
        return total

    def modeled_memory_bytes(self, bits_per_node: int = 128) -> int:
        """The paper's memory model: ``node_count`` at 128 bits/node
        (§4.2). This is what figure 7 and the accuracy/memory analyses
        plot — hardware cost, not host-process allocation."""
        return (self._node_count * bits_per_node + 7) // 8

    # ------------------------------------------------------------------
    # Thread confinement and cloning (runtime hooks)
    # ------------------------------------------------------------------

    def confine_to_current_thread(self) -> None:
        """Restrict mutations to the calling thread *and process*.

        The owner key is ``(pid, thread ident)``: a shard tree confined
        inside a worker process rejects mutation from any other process
        too (thread idents alone can collide across processes, and a
        fork inherits the parent's confinement marker verbatim).
        """
        self._confined_ident = (os.getpid(), threading.get_ident())

    def unconfine(self) -> None:
        """Lift confinement (any thread in any process may mutate)."""
        self._confined_ident = None

    def _assert_owner(self) -> None:
        owner = self._confined_ident
        if owner is None:
            return
        here = (os.getpid(), threading.get_ident())
        if owner != here:
            kind = "process" if owner[0] != here[0] else "thread"
            raise RuntimeError(
                "ColumnarRapTree is confined to (pid, thread) "
                f"{owner}; mutation attempted from the wrong {kind} "
                f"{here}. Shard trees are single-writer — route events "
                "through the owning worker's queue (see repro.runtime)."
            )

    def clone(self) -> "ColumnarRapTree":
        """Deep, independent copy of this profile (still columnar).

        Column copies are cheaper than the object backend's serializer
        round-trip and preserve exactly the same state: structure,
        counters, merge-schedule position and the mutation generation.
        Statistics timelines are not carried over (same contract as
        ``RapTree.clone``). Reading is allowed from any thread, so a
        confined shard tree can be cloned by the fold coordinator while
        the owning worker is quiesced.
        """
        self._sync_cover()
        other = ColumnarRapTree(self._config)
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            setattr(other, name, getattr(self, name).copy())
        other._rebind_views()
        other._capacity = self._capacity
        other._free_top = self._free_top
        other._size = self._size
        other._node_count = self._node_count
        other._events = self._events
        other._scheduler.next_at = self._scheduler.next_at
        other._scheduler.batches_fired = self._scheduler.batches_fired
        other._generation = self._generation
        other._cov_starts = self._cov_starts.copy()
        other._cov_owner = self._cov_owner.copy()
        other._storm = self._storm
        other._calm = self._calm
        return other

    def column_state(self) -> Dict[str, object]:
        """Scalar state that travels with the columns across processes.

        Everything :meth:`attach_columns` needs beyond the column
        arrays themselves: slot accounting, event totals and the
        merge-schedule position. A shard worker sends this dict (plain
        ints/floats/bools — trivially picklable) alongside its
        shared-memory segment table; the parent reconstructs an
        equivalent tree without copying a single column.
        """
        return {
            "capacity": self._capacity,
            "size": self._size,
            "free_top": self._free_top,
            "node_count": self._node_count,
            "events": self._events,
            "next_at": self._scheduler.next_at,
            "batches_fired": self._scheduler.batches_fired,
            "generation": self._generation,
            "storm": self._storm,
            "calm": self._calm,
        }

    @classmethod
    def attach_columns(
        cls,
        config: RapConfig,
        columns: Mapping[str, np.ndarray],
        state: Mapping[str, object],
    ) -> "ColumnarRapTree":
        """Wrap already-populated column arrays as a read-only tree.

        The process executor's zero-copy fold path: the parent maps a
        quiesced worker's shared-memory segments as numpy arrays and
        wraps them here without copying. ``columns`` maps every name in
        ``_ARRAY_COLUMNS + ("_free_slots",)`` to an array of the
        :attr:`COLUMN_DTYPES` dtype; ``state`` is the owning tree's
        :meth:`column_state`. All reads work as usual — estimates,
        ``nodes()`` views, serialization, ``combine_many`` folds, and
        :meth:`clone` (which copies the columns into a writable
        heap-backed tree). The attached arrays are marked read-only so
        an accidental mutation of live worker state raises immediately
        instead of corrupting the shard.
        """
        tree = cls(config)
        capacity = int(state["capacity"])
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            arr = np.asarray(columns[name])
            expected = cls.COLUMN_DTYPES[name]
            if arr.dtype != expected or arr.shape != (capacity,):
                raise ValueError(
                    f"column {name!r} must be a 1-D {expected} array of "
                    f"{capacity} slots, got {arr.dtype} {arr.shape}"
                )
            view = arr.view()
            view.flags.writeable = False
            setattr(tree, name, view)
        tree._capacity = capacity
        tree._free_top = int(state["free_top"])
        tree._size = int(state["size"])
        tree._node_count = int(state["node_count"])
        tree._events = int(state["events"])
        tree._scheduler.next_at = float(state["next_at"])
        tree._scheduler.batches_fired = int(state["batches_fired"])
        tree._generation = int(state["generation"])
        tree._storm = bool(state["storm"])
        tree._calm = int(state["calm"])
        tree._cached_slot = 0
        tree._view_root = None
        tree._view_generation = -1
        tree._rebind_views()
        # A fold reads only counter_rows; the cover index is a Python
        # walk over the chains, so it waits for a reader (_sync_cover).
        tree._cov_starts = np.zeros(0, dtype=np.uint64)
        tree._cov_owner = np.zeros(0, dtype=np.int64)
        tree._cover_stale = True
        return tree

    @classmethod
    def from_complete_partition(
        cls,
        config: RapConfig,
        los: np.ndarray,
        his: np.ndarray,
        depths: np.ndarray,
        parents: np.ndarray,
        counts: np.ndarray,
    ) -> "ColumnarRapTree":
        """Heap-backed tree over a laid-out partition, before any merge.

        Row ``i`` becomes slot ``i``: ``[los[i], his[i]]`` at depth
        ``depths[i]`` under slot ``parents[i]`` holding ``counts[i]``.
        Row 0 must be the root (parent ``-1``), and every node with
        children must carry *all* of its ``partition_range`` cells —
        the shape :func:`repro.core.combine.combine_many` expands to.
        That makes the cover index exactly the leaves in ``lo`` order.
        Every slot starts dirty, so the caller's :meth:`merge_now`
        prunes and finalizes the tree like any fresh one.
        """
        size = int(los.size)
        tree = cls(config)
        columns = {
            "_counts": counts,
            "_los": los,
            "_his": his,
            "_parents": parents,
            "_depth": depths,
            "_is_item": los == his,
        }
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            column = np.zeros(size, dtype=cls.COLUMN_DTYPES[name])
            if name in columns:
                column[:] = columns[name]
            setattr(tree, name, column)
        tree._dirty.fill(True)
        tree._live.fill(True)
        tree._capacity = size
        tree._size = size
        tree._node_count = size
        tree._events = int(counts.sum())
        tree._rebind_views()
        tree._rebuild_chains(np.arange(size, dtype=np.int64))
        leaves = np.flatnonzero(tree._n_children == 0)
        tree._cov_owner = leaves[np.argsort(tree._los[leaves])]
        tree._cov_starts = tree._los[tree._cov_owner]
        return tree

    def compact(self) -> None:
        """Drop freed slots: renumber the live slots densely, in order.

        Every column shrinks to ``node_count`` slots (the root stays
        slot 0), pointers and cover owners are remapped, and the free
        stack empties. The profile is unchanged (same ``dump_tree``,
        estimates and merge state); slot-space scans (``estimate``,
        hot ranges, ``check_invariants``) then cost ``node_count``,
        not the high-water slot count. The array fold compacts its
        result: pruning a complete partition frees most of its slots.
        Heap-backed trees only; a tree on a column allocator keeps its
        slots where the allocator put them.
        """
        if self._allocator is not None:
            raise ValueError("compact() needs heap-backed columns")
        self._sync_cover()
        size = self._size
        live_idx = np.flatnonzero(self._live[:size])
        # One spare entry maps _NO_SLOT (index -1) to itself.
        renumber = np.full(size + 1, _NO_SLOT, dtype=np.int64)
        renumber[live_idx] = np.arange(live_idx.size)
        for name in _ARRAY_COLUMNS:
            column = getattr(self, name)[live_idx]
            if name in ("_parents", "_first_child", "_next_sibling"):
                column = renumber[column].astype(column.dtype)
            setattr(self, name, column)
        self._free_slots = np.zeros(live_idx.size, dtype=np.int32)
        self._free_top = 0
        self._size = self._capacity = int(live_idx.size)
        self._cov_owner = renumber[self._cov_owner]
        self._cached_slot = 0
        self._rebind_views()

    def counter_rows(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero counter as ``(lo, hi, count, depth)`` columns.

        Fresh arrays (one fancy-index gather per column), so they stay
        valid after an attached tree's shared memory is unmapped. Dead
        slots hold zero, so the nonzero mask needs no liveness mask.
        """
        counts = self._counts[: self._size]
        slots = np.flatnonzero(counts)
        return (
            self._los[slots],
            self._his[slots],
            counts[slots],
            self._depth[slots],
        )

    # ------------------------------------------------------------------
    # Updates — scalar path (exact port of RapTree.add/_absorb)
    # ------------------------------------------------------------------

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``.

        Arithmetic-identical to :meth:`repro.core.tree.RapTree.add`:
        same closed-form split crossing points, same mid-count merge
        triggers, same descent semantics.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if value < 0 or value > self._root_hi:
            raise ValueError(
                f"value {value} outside universe [0, {self._root_hi}]"
            )
        self._absorb_slot(self._deepest_slot(value), value, count)
        self._generation += 1
        self._stats.observe_update()

        if self._scheduler.due(self._events):
            self.merge_now()

        if self._audit_every and self._events >= self._next_audit:
            while self._next_audit <= self._events:
                self._next_audit += self._audit_every
            self.audit()

    def _absorb_slot(self, slot: int, value: int, count: int) -> None:
        """Deposit ``count`` units of ``value`` starting at ``slot``.

        Line-for-line port of ``RapTree._absorb`` onto slots. Every
        counter read is converted to a Python int before the float
        threshold comparison (CPython compares int vs float exactly at
        any magnitude; numpy would round the int64 side past 2**53), so
        the cascade arithmetic matches the object backend bit for bit.
        """
        remaining = count
        events = self._events
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        scheduler = self._scheduler
        stats = self._stats
        vcounts = self._v_counts
        vitem = self._v_is_item
        vdirty = self._v_dirty
        vparents = self._v_parents
        no_slot = _NO_SLOT
        cap = self._capacity
        while True:
            next_at = scheduler.next_at
            m_merge = int(next_at - events)
            if events + m_merge < next_at:
                m_merge += 1
            if m_merge < 1:
                m_merge = 1
            m = remaining if remaining < m_merge else m_merge

            m_split = 0
            c0 = vcounts[slot]
            if not vitem[slot]:
                cap_th = eps_h * (events + m)
                if cap_th < min_th:
                    cap_th = min_th
                if c0 + m > cap_th:
                    th1 = eps_h * (events + 1)
                    if th1 < min_th:
                        th1 = min_th
                    if c0 > int(th1):
                        # Already over threshold before absorbing (merge
                        # churn re-deposited weight): split dry and push
                        # the whole run down to the covering child. The
                        # split may grow (reallocate) the columns and
                        # rebind the views — re-hoist before the scan.
                        self._split_slot(slot)
                        if cap != self._capacity:
                            cap = self._capacity
                            vcounts = self._v_counts
                            vitem = self._v_is_item
                            vdirty = self._v_dirty
                            vparents = self._v_parents
                        vlos = self._v_los
                        vhis = self._v_his
                        vnext = self._v_next_sibling
                        child = self._v_first_child[slot]
                        while child != no_slot and not (
                            vlos[child] <= value <= vhis[child]
                        ):
                            child = vnext[child]
                        assert child != no_slot, (
                            "split left the value uncovered"
                        )
                        slot = child
                        continue
                    m_split = split_crossing_point(c0, events, eps_h, min_th)
                    if 0 < m_split < m:
                        m = m_split

            vcounts[slot] = c0 + m
            events += m
            remaining -= m
            self._events = events
            walk = slot
            while walk != no_slot and not vdirty[walk]:
                vdirty[walk] = True
                walk = vparents[walk]
            split_now = m_split != 0 and m == m_split
            if split_now:
                self._split_slot(slot)
                if cap != self._capacity:
                    cap = self._capacity
                    vcounts = self._v_counts
                    vitem = self._v_is_item
                    vdirty = self._v_dirty
                    vparents = self._v_parents
            stats.observe_weight(m, self._node_count)

            if events >= next_at:
                self.merge_now()
                if not remaining:
                    return
                # The merge may have recycled our slot; re-descend from
                # the root-side finger. (Merges never reallocate the
                # columns, so the hoisted views stay valid.)
                slot = self._deepest_slot(value)
            elif not remaining:
                self._cached_slot = slot
                return
            else:
                # A split boundary was hit with units left: descend one
                # level into the covering child of the just-split slot
                # (a sibling-chain scan — no full finger search needed).
                vlos = self._v_los
                vhis = self._v_his
                vnext = self._v_next_sibling
                child = self._v_first_child[slot]
                while child != no_slot and not (
                    vlos[child] <= value <= vhis[child]
                ):
                    child = vnext[child]
                assert child != no_slot, "split left the value uncovered"
                slot = child

    # ------------------------------------------------------------------
    # Updates — vectorized batch ingest
    # ------------------------------------------------------------------

    def extend(self, values: Iterable[int]) -> None:
        """Feed a stream of single events (vectorized rounds).

        Observably identical to calling :meth:`add` per value; with
        timeline sampling or self-audits enabled the per-event path is
        used outright so those hooks see every event.
        """
        items = values if isinstance(values, list) else list(values)
        self._ingest(items, True)

    def add_counted(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed pre-combined ``(value, count)`` pairs in arrival order."""
        items = pairs if isinstance(pairs, list) else list(pairs)
        self._ingest(items, False)

    def add_batch(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed ``(value, count)`` pairs, sorted once and routed in bulk.

        Observably identical to ``add_counted(sorted(pairs))`` — the
        same contract as the object backend's batch kernel.
        """
        self._ingest(sorted(pairs), False)

    # rap: hot
    def add_counted_arrays(
        self, values: np.ndarray, counts: np.ndarray
    ) -> None:
        """Feed pre-combined ``(value, count)`` columns, array-native.

        Observably identical to
        ``add_counted(list(zip(values.tolist(), counts.tolist())))``,
        but the pair list is never built unless a scalar window needs
        it: the vectorized rounds consume the arrays directly. This is
        the process executor's frame path — shard workers receive
        ``(values, counts)`` ndarray frames off the ring and ingest
        them without a tuple transpose on either side. Inputs the
        column dtypes cannot represent faithfully (negative or
        non-integer values, counts past int64) take the exact per-item
        path instead, which raises the object backend's errors at the
        same item.
        """
        values = np.asarray(values)
        counts = np.asarray(counts)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError(
                "values and counts must be matching 1-D arrays, got "
                f"shapes {values.shape} and {counts.shape}"
            )
        if (
            values.dtype.kind not in "iu"
            or counts.dtype.kind not in "iu"
            or (
                values.dtype.kind == "i"
                and values.size
                and int(values.min()) < 0
            )
            or (
                counts.dtype.kind == "u"
                and counts.size
                and int(counts.max()) > _INT64_MAX
            )
        ):
            # astype would wrap these silently (ndarray casts do not
            # range-check like Python ints); the list path validates
            # per item and raises exactly like the object backend.
            self._ingest(list(zip(values.tolist(), counts.tolist())), False)
            return
        self._ingest(
            None,
            False,
            columns=(
                values.astype(np.uint64, copy=False),
                counts.astype(np.int64, copy=False),
            ),
        )

    def bootstrap_counted_arrays(
        self, values: np.ndarray, counts: np.ndarray
    ) -> bool:
        """Cold-start bulk build from one sorted counted frame.

        Top-down offline construction of the adaptive partition for a
        *fresh* tree: recursively burst every range whose frame mass
        exceeds the split threshold at the final event count, working
        level by level with array kernels (one ``searchsorted`` over
        the frame per level) instead of replaying the per-event
        cascade. The result is not the same shape the online kernel
        would build — it is a *different reachable* RAP state with the
        same contracts, because both guarantees are structural, not
        historical: every counter is real mass from inside its range
        (estimates stay exact lower bounds), and every non-item node
        holds at most ``split_threshold(n)``, so a query's undercount —
        mass on nodes straddling its boundary, at most one per level
        per side — stays within ``epsilon * n`` exactly as Section 3.2
        argues for the online tree. The build ends with the standard
        catch-up merge, leaving the merge schedule where any online
        ingest of ``n`` events would have left it.

        This is the process executor's first-flush path: a shard
        worker's combining buffer hands the whole opening window to the
        empty shard tree in one frame, and building that tree directly
        is several times cheaper than cascading 30k+ deposits through
        a cold tree that splits under nearly every one. Callers that
        need the online shape (``add_counted_arrays`` is documented
        observably identical to ``add_counted``) must not use this.

        Returns ``True`` when the bulk build ran. Returns ``False`` —
        tree untouched — when a precondition fails: the tree is not
        fresh, per-event hooks (timeline sampling, auditing) must see
        every event, or the frame is not strictly-increasing in-range
        values with positive int64 counts. Fall back to
        :meth:`add_counted_arrays` in that case.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        if (
            self._events != 0
            or self._node_count != 1
            or self._size != 1
            or self._free_top != 0
            or self._stats.sample_every > 0
            or self._audit_every
        ):
            return False
        values = np.asarray(values)
        counts = np.asarray(counts)
        if (
            values.ndim != 1
            or values.shape != counts.shape
            or values.size == 0
            or values.dtype.kind not in "iu"
            or counts.dtype.kind not in "iu"
        ):
            return False
        if values.dtype.kind == "i" and int(values.min()) < 0:
            return False
        if counts.dtype.kind == "u" and int(counts.max()) > _INT64_MAX:
            return False
        varr = values.astype(np.uint64, copy=False)
        carr = counts.astype(np.int64, copy=False)
        if (
            int(carr.min()) <= 0
            or int(varr[-1]) > self._root_hi
            or not bool(np.all(varr[:-1] < varr[1:]))
            # Rules out int64 overflow in the exact sum below.
            or float(carr.sum(dtype=np.float64)) >= float(_INT64_MAX)
        ):
            return False
        total = int(carr.sum())
        floor_t = min(
            math.floor(self._config.split_threshold(total)), _INT64_MAX
        )
        branching = self._config.branching
        # Prefix masses: frame slice [i, j) weighs cum[j] - cum[i].
        cum = np.zeros(varr.size + 1, dtype=np.int64)
        np.cumsum(carr, out=cum[1:])

        created = 0
        bursts = 0
        # Cover segments, collected level by level as the build walks
        # down: a leaf's whole range, and each burst parent's runs of
        # empty cells (cell-aligned by construction). One argsort at
        # the end replaces the per-node recursive emission of
        # ``_rebuild_cover`` — which stays the oracle this collection
        # is checked against (``check_invariants``).
        cover_start_parts: List[np.ndarray] = []
        cover_owner_parts: List[np.ndarray] = []
        if total <= floor_t or self._root_hi == 0:
            self._v_counts[0] = total
            cover_start_parts.append(self._los[:1].astype(np.uint64))
            cover_owner_parts.append(np.zeros(1, dtype=np.int64))
        else:
            # Root level in exact Python ints — the root's width (the
            # whole universe) can overflow the uint64 cell arithmetic
            # the deeper levels use; its cells never can.
            bursts += 1
            cells = partition_range(0, self._root_hi, branching)
            cell_lo = np.array([lo for lo, _ in cells], dtype=np.uint64)
            cell_hi = np.array([hi for _, hi in cells], dtype=np.uint64)
            bounds = np.empty(len(cells) + 1, dtype=np.int64)
            bounds[0] = 0
            bounds[-1] = varr.size
            bounds[1:-1] = np.searchsorted(varr, cell_lo[1:])
            mass = cum[bounds[1:]] - cum[bounds[:-1]]
            # Root-owned segments: each maximal run of empty cells is
            # one gap (emit() merges consecutive empty cells too).
            root_gap = mass == 0
            root_run = root_gap.copy()
            root_run[1:] &= ~root_gap[:-1]
            if root_run.any():
                cover_start_parts.append(cell_lo[root_run])
                cover_owner_parts.append(
                    np.zeros(int(root_run.sum()), dtype=np.int64)
                )
            keep = np.flatnonzero(mass)
            sel_lo = cell_lo[keep]
            sel_hi = cell_hi[keep]
            sel_mass = mass[keep]
            sel_plo = bounds[:-1][keep]
            sel_phi = bounds[1:][keep]
            parent_rows = np.zeros(keep.size, dtype=np.int64)
            parent_slots = np.zeros(1, dtype=np.int64)
            group_sizes = np.array([keep.size], dtype=np.int64)
            depth = 1
            while True:
                spawned = int(sel_lo.size)
                while self._size + spawned > self._capacity:
                    self._grow()
                base_slot = self._size
                slots = base_slot + np.arange(spawned, dtype=np.int64)
                self._los[slots] = sel_lo
                self._his[slots] = sel_hi
                self._depth[slots] = depth
                self._parents[slots] = parent_slots[parent_rows]
                item = sel_lo == sel_hi
                self._is_item[slots] = item
                # Sibling chains: slots are handed out in row-major
                # (parent, ascending-lo) order, so each parent's group
                # is a contiguous ascending run — link the whole level
                # with one shifted store, then cut at group ends.
                group_ends = base_slot + np.cumsum(group_sizes) - 1
                self._next_sibling[slots[:-1]] = slots[1:]
                self._next_sibling[group_ends] = _NO_SLOT
                self._first_child[parent_slots] = np.concatenate(
                    (slots[:1], group_ends[:-1] + 1)
                )
                self._n_children[parent_slots] = group_sizes
                self._size += spawned
                created += spawned
                leaf = item | (sel_mass <= floor_t)
                leaf_slots = slots[leaf]
                self._counts[leaf_slots] = sel_mass[leaf]
                if leaf_slots.size:
                    cover_start_parts.append(
                        sel_lo[leaf].astype(np.uint64, copy=False)
                    )
                    cover_owner_parts.append(leaf_slots)
                recurse = np.flatnonzero(~leaf)
                if recurse.size == 0:
                    break
                bursts += int(recurse.size)
                parent_slots = slots[recurse]
                p_lo = sel_lo[recurse]
                p_hi = sel_hi[recurse]
                p_plo = sel_plo[recurse]
                p_phi = sel_phi[recurse]
                # One vectorized burst per surviving parent: the exact
                # partition_range geometry, computed for all parents at
                # once (cells = min(b, width), base + spread remainder).
                width = p_hi - p_lo + np.uint64(1)
                cells_n = np.minimum(
                    width, np.uint64(branching)
                ).astype(np.int64)
                base = width // cells_n.astype(np.uint64)
                extra = width - base * cells_n.astype(np.uint64)
                j = np.arange(branching, dtype=np.uint64)[None, :]
                starts = (
                    p_lo[:, None]
                    + j * base[:, None]
                    + np.minimum(j, extra[:, None])
                )
                idx = np.empty(
                    (starts.shape[0], branching + 1), dtype=np.int64
                )
                idx[:, 0] = p_plo
                idx[:, -1] = p_phi
                if branching > 1:
                    idx[:, 1:-1] = np.searchsorted(varr, starts[:, 1:])
                    # Columns past a narrow parent's cell count carry
                    # garbage starts; pin them to the parent's end so
                    # those cells read as empty.
                    short = (
                        np.arange(1, branching)[None, :] >= cells_n[:, None]
                    )
                    if short.any():
                        idx[:, 1:-1][short] = np.broadcast_to(
                            p_phi[:, None], short.shape
                        )[short]
                ends = np.empty_like(starts)
                ends[:, :-1] = starts[:, 1:] - np.uint64(1)
                ends[:, -1] = p_hi
                narrow = np.flatnonzero(cells_n < branching)
                if narrow.size:
                    ends[narrow, cells_n[narrow] - 1] = p_hi[narrow]
                mass = cum[idx[:, 1:]] - cum[idx[:, :-1]]
                nonzero = mass > 0
                # Parent-owned segments: runs of empty *valid* cells
                # (columns past a narrow parent's cell count are
                # padding, not range).
                valid = (
                    np.arange(branching, dtype=np.int64)[None, :]
                    < cells_n[:, None]
                )
                gap = ~nonzero & valid
                gap_run = gap.copy()
                gap_run[:, 1:] &= ~gap[:, :-1]
                g_rows, g_cols = np.nonzero(gap_run)
                if g_rows.size:
                    cover_start_parts.append(starts[g_rows, g_cols])
                    cover_owner_parts.append(parent_slots[g_rows])
                flat = np.flatnonzero(nonzero.ravel())
                rows = flat // branching
                cols = flat - rows * branching
                sel_lo = starts[rows, cols]
                sel_hi = ends[rows, cols]
                sel_mass = mass[rows, cols]
                sel_plo = idx[rows, cols]
                sel_phi = idx[rows, cols + 1]
                parent_rows = rows
                group_sizes = nonzero.sum(axis=1)
                depth += 1
        self._node_count += created
        self._events = total
        self._stats.observe_batch(total, int(varr.size), self._node_count)
        self._stats.splits += bursts
        self._generation += 1
        self._cached_slot = 0
        starts_all = np.concatenate(cover_start_parts)
        owners_all = np.concatenate(cover_owner_parts)
        # Segment starts are globally unique (one deepest owner per
        # position), so this ordering is deterministic; stable only to
        # make that self-evident.
        order = np.argsort(starts_all, kind="stable")
        self._cov_starts = starts_all[order]
        self._cov_owner = owners_all[order]
        if self._scheduler.due(self._events):
            self.merge_now()
        return True

    def add_stream(self, values: Iterable[int], combine_chunk: int = 0) -> None:
        """Feed a stream, optionally combining duplicates per chunk."""
        if combine_chunk <= 0:
            self.extend(values)
            return
        chunk: Dict[int, int] = {}
        pending = 0
        for value in values:
            chunk[value] = chunk.get(value, 0) + 1
            pending += 1
            if pending >= combine_chunk:
                self.add_batch(chunk.items())
                chunk.clear()
                pending = 0
        if chunk:
            self.add_batch(chunk.items())

    def _ingest(
        self,
        items: Optional[Sequence],
        ones: bool,
        columns: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Shared bulk kernel behind extend/add_counted/add_batch.

        One vectorized round per window: scatter the provably-safe
        positions, resolve the holdouts in exact array passes (see the
        module docstring). Items a round cannot start on — merge
        triggers and malformed items — go through :meth:`add`, which
        fires the merge mid-count or raises exactly like the object
        backend. ``ones`` means ``items`` is a raw value stream;
        otherwise it is a list of ``(value, count)`` pairs, consumed
        as-is (the scalar kernel unpacks the tuples exactly like the
        object backend's loops — no column transpose unless a
        vectorized round actually runs).

        ``columns`` is the array-native entry
        (:meth:`add_counted_arrays`): ``items`` is passed as ``None``
        and the ``(values, counts)`` arrays — already validated to fit
        the column dtypes — feed the vectorized rounds directly. A
        scalar window transposes only its own slice into pairs.
        """
        if self._confined_ident is not None:
            self._assert_owner()

        if columns is not None:
            col_values, col_counts = columns
            total = int(col_values.size)
        else:
            col_values = col_counts = None
            total = len(items)

        def scalar_window(at: int, length: int) -> Tuple[int, int]:
            # _scalar_run over [at, at + length); an array-native ingest
            # transposes just that slice into pairs.
            if items is not None:
                return self._scalar_run(items, ones, at, length)
            stop = at + length
            pairs = list(
                zip(
                    col_values[at:stop].tolist(),
                    col_counts[at:stop].tolist(),
                )
            )
            end, fallbacks = self._scalar_run(pairs, ones, 0, length)
            return at + end, fallbacks

        def add_item(at: int) -> None:
            # One item through add(): fires a merge mid-count, or raises
            # the object backend's exact error for a malformed item.
            if ones:
                self.add(items[at])
            elif items is None:
                self.add(int(col_values[at]), int(col_counts[at]))
            else:
                self.add(*items[at])

        stats = self._stats
        if stats.sample_every > 0 or self._audit_every:
            # Sampling/audit hooks must see every event: per-event path.
            for at in range(total):
                add_item(at)
            return
        if not total:
            return
        # All numpy-side state is computed lazily on the first
        # vectorized round: storm-mode windows run on the Python lists
        # directly (validity checked inline, like the object backend's
        # fast loops), so a fully-stormed ingest never pays the
        # list-to-array conversion at all. ``varr is None`` doubles as
        # the not-yet-converted marker; ``cum_counts`` holds running
        # event totals after each item (events at any point is the
        # start total plus this prefix — every item deposits exactly
        # once, in order) and ``invalid_at`` the positions the vector
        # path must hand to add() for error parity.
        varr = None
        carr = None
        cum_counts = None
        invalid_at = None
        index = 0
        window = _WINDOW_START
        # Storm mode: while thresholds are tiny (cold tree, small n)
        # nearly every deposit is a true crossing, so a vectorized
        # round would compute masks just to send the window through
        # the cascade. Run those windows through the scalar kernel
        # directly and come back to vectorized rounds once crossings
        # thin out. The flag persists across calls (chunked feeders
        # re-enter here mid-storm).
        storm = self._storm
        calm = self._calm
        try:
            while index < total:
                remaining = total - index
                if storm or remaining < _MIN_VECTOR_TAIL:
                    # Storm window or short tail (the whole tail): the
                    # exact scalar kernel, without the numpy round.
                    next_index, fallbacks = scalar_window(
                        index,
                        remaining
                        if remaining < _MIN_VECTOR_TAIL
                        else min(window, remaining),
                    )
                    if next_index == index:
                        # Malformed item at the head.
                        add_item(index)
                        index += 1
                        continue
                    consumed = next_index - index
                    index = next_index
                    # Leave the storm only when true crossings have
                    # been rare for two windows running: one quiet
                    # window mid-storm is usually just the gap between
                    # split bursts.
                    if 64 * fallbacks > consumed:
                        storm = True
                        calm = 0
                    else:
                        calm += 1
                        if calm >= 2:
                            storm = False
                    continue
                if varr is None:
                    if col_values is not None:
                        # Array-native ingest: dtypes were validated by
                        # add_counted_arrays, no conversion to attempt.
                        varr = col_values
                        carr = col_counts
                    else:
                        try:
                            if ones:
                                varr = np.asarray(items, dtype=np.uint64)
                                carr = None
                            else:
                                vcols, ccols = zip(*items)
                                varr = np.asarray(vcols, dtype=np.uint64)
                                carr = np.asarray(ccols, dtype=np.int64)
                        except (OverflowError, TypeError, ValueError):
                            # Out-of-dtype input (negative / huge /
                            # non-integer values): finish on the exact
                            # per-item path, which raises the same
                            # errors at the same item the object
                            # backend would.
                            while index < total:
                                add_item(index)
                                index += 1
                            break
                    if ones:
                        invalid_at = np.flatnonzero(
                            varr > np.uint64(self._root_hi)
                        )
                    else:
                        invalid_at = np.flatnonzero(
                            (varr > np.uint64(self._root_hi)) | (carr <= 0)
                        )
                        cum_counts = np.cumsum(carr)
                next_index, cascades = self._vector_round(
                    varr, carr, cum_counts, invalid_at, ones, index, window
                )
                if next_index == index:
                    # Blocked at the head: merge trigger or malformed
                    # item — the scalar port decides authoritatively.
                    add_item(index)
                    index += 1
                    continue
                consumed = next_index - index
                index = next_index
                # Regime signals key on true cascades, not on held
                # items: a held item that fits costs array passes, not
                # the scalar kernel. Storm re-entry when a quarter of
                # the round cascaded; long windows amortize the numpy
                # overhead but stale-threshold more items into the
                # holdout passes, so the window tracks the cascade
                # fraction too.
                storm = 4 * cascades >= consumed
                if storm:
                    calm = 0
                if 8 * cascades <= consumed:
                    if consumed == window and window < _WINDOW_MAX:
                        window *= 2
                elif storm and window > _WINDOW_MIN:
                    window //= 2
        finally:
            self._storm = storm
            self._calm = calm
            self._generation += 1
            self._view_root = None

    def _scalar_run(
        self,
        items: Sequence,
        ones: bool,
        start: int,
        window: int,
    ) -> Tuple[int, int]:
        """Storm-mode window: the exact scalar kernel, no vector pass.

        The exact scalar kernel over the whole window — finger search,
        inline fit check, full cascade only on true threshold/merge
        crossings, consecutive equal raw values run-combined — without
        the safe mask and holdout passes a cold window would spend
        mostly on cascades anyway. Semantics are the scalar port's by
        construction; there is no mask to prove anything about. Runs
        on a Python sequence — the caller's list, or just this window
        of an array-native ingest transposed to pairs — with the pair
        tuples unpacked in place, exactly like the object backend's
        loops: malformed items — out-of-universe values,
        non-positive counts — are detected inline and stop the window
        at their position. Returns ``(next_index, fallbacks)`` where
        ``fallbacks`` counts full-cascade deposits — the storm-exit
        signal (few crossings means thresholds have outgrown typical
        deposits and the vectorized rounds pay again). A return of
        ``start`` means a malformed item sits at the head; the caller
        routes it through add() for error parity.
        """
        total = len(items)
        end = start + window
        if end > total:
            end = total
        absorb = self._absorb_slot
        scheduler = self._scheduler
        stats = self._stats
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        root_hi = self._root_hi
        next_at_now = scheduler.next_at
        vcounts = self._v_counts
        vitem = self._v_is_item
        vdirty = self._v_dirty
        vparents = self._v_parents
        vlos = self._v_los
        vhis = self._v_his
        vfirst = self._v_first_child
        vnext = self._v_next_sibling
        cached = self._cached_slot
        no_slot = _NO_SLOT
        cap = self._capacity
        pending_weight = 0
        pending_updates = 0
        fallbacks = 0
        evt = self._events
        # Leaf cache: between fallbacks no split, merge or grow can
        # happen, so the deepest leaf that took the last deposit — its
        # bounds, is_item flag and running counter — stays valid as
        # plain Python ints. A stream camped on one leaf then deposits
        # with a single column store and zero reads. ``flo > fhi``
        # marks the cache empty; every cascade invalidates it.
        floc = 0
        flo = 1
        fhi = 0
        fitem = False
        fcount = 0
        if ones:
            # Raw stream: indexed loop so consecutive equal values
            # (common in address traces) combine into one deposit.
            i = start
            while i < end:
                value = items[i]
                if value < 0 or value > root_hi:
                    end = i
                    break
                j = i + 1
                while j < end and items[j] == value:
                    j += 1
                item_count = j - i
                i = j
                if flo <= value <= fhi:
                    # Cached-leaf fast path: one store, no reads.
                    landed = evt + item_count
                    if landed < next_at_now:
                        if fitem:
                            fits = True
                        else:
                            th = eps_h * landed
                            if th < min_th:
                                th = min_th
                            # Python int vs float: exact at any
                            # magnitude.
                            fits = fcount + item_count <= th
                        if fits:
                            fcount += item_count
                            vcounts[floc] = fcount
                            evt = landed
                            pending_weight += item_count
                            pending_updates += item_count
                            continue
                    slot = floc
                else:
                    # Inline finger search (the body of _deepest_slot,
                    # with the finger kept in a local across
                    # iterations).
                    slot = cached
                    if value < vlos[slot] or value > vhis[slot]:
                        slot = vparents[slot]
                        while slot != no_slot and (
                            value < vlos[slot] or value > vhis[slot]
                        ):
                            slot = vparents[slot]
                        if slot == no_slot:
                            slot = 0
                    # Descent: siblings sit in lo order, so the first
                    # child whose hi reaches the value is the only
                    # candidate; one lo read then decides
                    # covered-vs-gap (merge passes can leave gaps
                    # between surviving siblings).
                    while True:
                        child = vfirst[slot]
                        while child != no_slot and value > vhis[child]:
                            child = vnext[child]
                        if child == no_slot or vlos[child] > value:
                            break
                        slot = child
                    cached = slot
                    landed = evt + item_count
                    if landed < next_at_now:
                        c0 = vcounts[slot]
                        isit = vitem[slot]
                        if isit:
                            fits = True
                        else:
                            th = eps_h * landed
                            if th < min_th:
                                th = min_th
                            # Python int vs float: exact at any
                            # magnitude.
                            fits = c0 + item_count <= th
                        if fits:
                            c0 += item_count
                            vcounts[slot] = c0
                            evt = landed
                            pending_weight += item_count
                            pending_updates += item_count
                            if not vdirty[slot]:
                                walk = slot
                                while walk != no_slot and not vdirty[walk]:
                                    vdirty[walk] = True
                                    walk = vparents[walk]
                            if vfirst[slot] == no_slot:
                                # Childless: any in-range value is
                                # deepest here. (``child == no_slot``
                                # is weaker — children left of the
                                # value also end the scan that way,
                                # and they must keep catching their
                                # own deposits.)
                                floc = slot
                                flo = vlos[slot]
                                fhi = vhis[slot]
                                fitem = isit
                                fcount = c0
                            continue
                # True crossing (or merge boundary): the full cascade,
                # which can split (growing and rebinding the column
                # views) or merge (moving next_at and recycling slots —
                # stale finger) — re-hoist the loop locals and drop the
                # leaf cache.
                flo = 1
                fhi = 0
                self._events = evt
                absorb(slot, value, item_count)
                stats.observe_update()
                fallbacks += 1
                evt = self._events
                next_at_now = scheduler.next_at
                if cap != self._capacity:
                    # The cascade grew the columns: the memoryviews
                    # were rebound — re-hoist. (Merges recycle slots
                    # in place and never reallocate.)
                    cap = self._capacity
                    vcounts = self._v_counts
                    vitem = self._v_is_item
                    vdirty = self._v_dirty
                    vparents = self._v_parents
                    vlos = self._v_los
                    vhis = self._v_his
                    vfirst = self._v_first_child
                    vnext = self._v_next_sibling
                cached = self._cached_slot
        else:
            # Counted pairs: iterate at C speed like the object
            # backend's fast loops (no run-combining — combined feeds
            # carry unique values, so the lookahead never pays). Each
            # pair deposits on its own, exactly like the object
            # backend's per-pair path.
            hit_bad = False
            for value, item_count in items[start:end]:
                if item_count <= 0 or value < 0 or value > root_hi:
                    hit_bad = True
                    break
                if flo <= value <= fhi:
                    # Cached-leaf fast path: one store, no reads.
                    landed = evt + item_count
                    if landed < next_at_now:
                        if fitem:
                            fits = True
                        else:
                            th = eps_h * landed
                            if th < min_th:
                                th = min_th
                            # Python int vs float: exact at any
                            # magnitude.
                            fits = fcount + item_count <= th
                        if fits:
                            fcount += item_count
                            vcounts[floc] = fcount
                            evt = landed
                            pending_weight += item_count
                            pending_updates += 1
                            continue
                    slot = floc
                else:
                    slot = cached
                    if value < vlos[slot] or value > vhis[slot]:
                        slot = vparents[slot]
                        while slot != no_slot and (
                            value < vlos[slot] or value > vhis[slot]
                        ):
                            slot = vparents[slot]
                        if slot == no_slot:
                            slot = 0
                    # Descent: siblings sit in lo order, so the first
                    # child whose hi reaches the value is the only
                    # candidate; one lo read then decides
                    # covered-vs-gap (merge passes can leave gaps
                    # between surviving siblings).
                    while True:
                        child = vfirst[slot]
                        while child != no_slot and value > vhis[child]:
                            child = vnext[child]
                        if child == no_slot or vlos[child] > value:
                            break
                        slot = child
                    cached = slot
                    landed = evt + item_count
                    if landed < next_at_now:
                        c0 = vcounts[slot]
                        isit = vitem[slot]
                        if isit:
                            fits = True
                        else:
                            th = eps_h * landed
                            if th < min_th:
                                th = min_th
                            # Python int vs float: exact at any
                            # magnitude.
                            fits = c0 + item_count <= th
                        if fits:
                            c0 += item_count
                            vcounts[slot] = c0
                            evt = landed
                            pending_weight += item_count
                            pending_updates += 1
                            if not vdirty[slot]:
                                walk = slot
                                while walk != no_slot and not vdirty[walk]:
                                    vdirty[walk] = True
                                    walk = vparents[walk]
                            if vfirst[slot] == no_slot:
                                # Childless: any in-range value is
                                # deepest here (see the ones loop).
                                floc = slot
                                flo = vlos[slot]
                                fhi = vhis[slot]
                                fitem = isit
                                fcount = c0
                            continue
                flo = 1
                fhi = 0
                self._events = evt
                absorb(slot, value, item_count)
                stats.observe_update()
                fallbacks += 1
                evt = self._events
                next_at_now = scheduler.next_at
                if cap != self._capacity:
                    # The cascade grew the columns: the memoryviews
                    # were rebound — re-hoist. (Merges recycle slots
                    # in place and never reallocate.)
                    cap = self._capacity
                    vcounts = self._v_counts
                    vitem = self._v_is_item
                    vdirty = self._v_dirty
                    vparents = self._v_parents
                    vlos = self._v_los
                    vhis = self._v_his
                    vfirst = self._v_first_child
                    vnext = self._v_next_sibling
                cached = self._cached_slot
            if hit_bad:
                # Recover the malformed pair's index: every pair before
                # it was valid (the loop deposited them), so the first
                # invalid position from ``start`` is exactly where the
                # iteration stopped.
                at = start
                while True:
                    value, item_count = items[at]
                    if (
                        item_count <= 0
                        or value < 0
                        or value > root_hi
                    ):
                        break
                    at += 1
                end = at
        self._events = evt
        self._cached_slot = cached
        if pending_updates:
            stats.observe_batch(
                pending_weight, pending_updates, self._node_count
            )
        return end, fallbacks

    def _vector_round(
        self,
        varr: np.ndarray,
        carr: Optional[np.ndarray],
        cum_counts: Optional[np.ndarray],
        invalid_at: np.ndarray,
        ones: bool,
        start: int,
        window: int,
    ) -> Tuple[int, int]:
        """Consume one window: safe scatter plus exact holdout resolution.

        Returns ``(next_index, cascades)`` — the index of the first
        unconsumed item and how many deposits took the full scalar
        cascade (the regime signal: true threshold crossings, not
        merely held items). A return of ``start`` means the round could
        not start (merge trigger or malformed item at the head); the
        caller routes that item through add().

        Owners left over threshold by merge churn are split dry up
        front (:meth:`_dry_owners`) and their items re-routed; dry
        splits do not count as cascades. An owner whose whole-window
        deposit fits the round's first — smallest — arrival threshold
        is safe outright: its items scatter in one exact bincount.
        Every other owner's items are holdouts, settled by
        :meth:`_resolve_holdouts` against each item's own arrival
        threshold (the window is cut before the next merge trigger, so
        arrival event totals are known up front).
        """
        self._sync_cover()
        total = varr.size
        if start + window > total:
            window = total - start
        size = self._size
        events_before = self._events
        next_at = self._scheduler.next_at
        if ones:
            # Raw stream: the j-th window item lands at events + j, so
            # the merge cap is a scalar, no prefix array needed.
            can_take = int(next_at) - events_before
            while events_before + can_take >= next_at:
                can_take -= 1
            while events_before + can_take + 1 < next_at:
                can_take += 1
            limit = window if can_take >= window else max(can_take, 0)
            n_after = None
        else:
            base = int(cum_counts[start - 1]) if start else 0
            n_after = (
                cum_counts[start : start + window] - base
            ) + events_before
            # First item pushing events to >= next_at ends the window
            # before it. Integral n >= next_at iff n >= ceil(next_at),
            # so the cut compares int64 against an int64 scalar — exact
            # at any magnitude (searchsorted against the raw float
            # would round n_after past 2**53).
            cap = math.ceil(next_at)
            if cap > _INT64_MAX:
                limit = window
            else:
                limit = int(np.searchsorted(n_after, np.int64(cap)))
        if invalid_at.size:
            bad_index = np.searchsorted(invalid_at, start)
            if bad_index < invalid_at.size:
                next_invalid = int(invalid_at[bad_index]) - start
                if next_invalid < limit:
                    limit = next_invalid
        if limit <= 0:
            return start, 0
        owners = self._cov_owner[
            np.searchsorted(
                self._cov_starts, varr[start : start + limit], side="right"
            )
            - 1
        ]
        first_n = events_before + 1 if ones else int(n_after[0])
        th0 = self._eps_over_height * first_n
        if th0 < self._min_threshold:
            th0 = self._min_threshold
        # Integer-side threshold: for integral totals, x <= th0 iff
        # x <= floor(th0), so the mask never compares int64 against
        # float64 (inexact above 2**53). Clamped to int64 range —
        # past the clamp every representable total fits anyway.
        th_int = min(math.floor(th0), _INT64_MAX)
        counts = self._counts
        weights = None if ones else carr[start : start + limit]
        if ones:
            totals = np.bincount(owners, minlength=size)
        else:
            totals = _exact_bincount(owners, weights, size)
        owner_ok = self._is_item[:size] | (counts[:size] + totals <= th_int)
        # Merge churn leaves owners already over threshold: their first
        # arrival only splits them dry. Split those up front and re-route
        # their items, so the holdout passes never see them. Candidates
        # are over the round's first threshold, which every later
        # arrival's is at least; _dry_owners decides exactly. (A dry
        # owner this misses, only possible for a counted round's first
        # item, still splits exactly in the holdout passes.)
        dry = self._dry_owners(
            ~owner_ok & (counts[:size] > th_int) & (totals > 0),
            owners,
            weights,
            events_before if ones else n_after,
        )
        if dry.size:
            moved_from = np.zeros(size, dtype=np.bool_)
            moved_from[dry] = True
            for slot in dry.tolist():
                self._split_slot(slot)
            self._sync_cover()
            moved = np.flatnonzero(moved_from[owners])
            owners[moved] = self._cov_owner[
                np.searchsorted(
                    self._cov_starts, varr[start + moved], side="right"
                )
                - 1
            ]
            # A split may have grown (reallocated) the columns.
            size = self._size
            counts = self._counts
            if ones:
                totals = np.bincount(owners, minlength=size)
            else:
                totals = _exact_bincount(owners, weights, size)
            owner_ok = self._is_item[:size] | (
                counts[:size] + totals <= th_int
            )
        held = np.flatnonzero(~owner_ok[owners])
        if held.size:
            totals[~owner_ok] = 0
        touched = np.flatnonzero(totals)
        if touched.size:
            # Both bincount shapes produce integer sums (unweighted
            # bincount returns intp; _exact_bincount returns int64).
            counts[touched] += totals[touched]
            self._mark_dirty_many(touched)
            safe_count = limit - int(held.size)
            self._stats.observe_batch(
                safe_count if ones else int(totals[touched].sum()),
                safe_count,
                self._node_count,
            )
        cascades = 0
        if held.size:
            if ones:
                hold_weights = np.ones(held.size, dtype=np.int64)
                arrivals = events_before + held
            else:
                hold_weights = weights[held]
                arrivals = n_after[held] - hold_weights
            cascades = self._resolve_holdouts(
                varr[start + held], hold_weights, arrivals
            )
        # The whole cut is absorbed; land events on the cut's end (the
        # last cascade may have left it mid-window).
        self._events = (
            events_before + limit if ones else int(n_after[limit - 1])
        )
        return start + limit, cascades

    def _floor_thresholds(self, landed: np.ndarray) -> np.ndarray:
        """``floor`` of the split threshold once ``landed`` events are in.

        ``float64(landed)`` rounds like the scalar port's int-to-float
        conversion in ``eps_h * (events + m)``, and for an integral
        counter ``x > th`` iff ``x > floor(th)``, so comparing int64
        counters against the result is exactly ``_absorb_slot``'s
        check. Thresholds at or past 2**63 clamp to ``_INT64_MAX`` (no
        int64 counter exceeds them) before the cast, which would
        otherwise overflow.
        """
        th = self._eps_over_height * landed.astype(np.float64)
        np.maximum(th, self._min_threshold, out=th)
        big = th >= _TWO_POW_63
        big_any = bool(big.any())
        if big_any:
            th[big] = 0.0
        th_int = np.floor(th).astype(np.int64)
        if big_any:
            th_int[big] = _INT64_MAX
        return th_int

    def _dry_owners(
        self,
        candidate: np.ndarray,
        owners: np.ndarray,
        weights: Optional[np.ndarray],
        arrival_base: Union[int, np.ndarray],
    ) -> np.ndarray:
        """Owners of a round that ``_absorb_slot`` would split dry.

        ``candidate`` is a per-slot mask of owners that may be dry.
        Each one is checked at its first arrival in the round, with
        ``_absorb_slot``'s own predicate: the deposit does not fit
        (``c0 + w > threshold(events + w)``) and the counter is already
        over the threshold of the first unit (``c0 >
        int(threshold(events + 1))``). ``arrival_base`` is the event
        total before the round for a raw stream (``weights`` is
        ``None``, item ``i`` arrives at ``arrival_base + i``), else the
        round's running totals after each item. Returns the dry slots
        in first-arrival order; the module docstring says why splitting
        them at round start is exact.
        """
        if not candidate.any():
            return owners[:0]
        at = np.flatnonzero(candidate[owners])
        slots, first = np.unique(owners[at], return_index=True)
        at = at[first]
        order = np.argsort(at)
        slots = slots[order]
        at = at[order]
        if weights is None:
            deposit = 1
            arrival = arrival_base + at
        else:
            deposit = weights[at]
            arrival = arrival_base[at] - deposit
        c0 = self._counts[slots]
        dry = (c0 + deposit > self._floor_thresholds(arrival + deposit)) & (
            c0 > self._floor_thresholds(arrival + 1)
        )
        return slots[dry]

    # rap: hot
    def _resolve_holdouts(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        arrivals: np.ndarray,
    ) -> int:
        """Deposit a round's holdouts exactly, in array passes.

        ``values``/``weights`` are the held items in arrival order and
        ``arrivals`` the event total just before each one. A pass routes
        them through the cover, groups them by owner (stable sort, so a
        group keeps arrival order) and runs each owner's deposit against
        every item's own arrival threshold — the scalar fast path's
        predicate, on the integer side. Items before their owner's
        first crossing fit and scatter in one exact bincount. Of the
        rest, consecutive equal values merge into one counted deposit
        (the equivalence ``add_counted`` is built on), each owner's
        first crossing deposit takes the exact scalar cascade at its
        arrival ``events``, in arrival order, and the others wait for
        the next pass, which routes them through the cover the cascades
        just deepened. Exact for the reason the safe scatter is (see the
        module docstring): no merge fires inside a cut window and owner
        regions are disjoint, so a cascade only re-routes items of its
        own owner, all of which arrive after it. Each pass settles at
        least one deposit per owner. Returns the number of cascades.
        """
        stats = self._stats
        absorb = self._absorb_slot
        updates = np.ones(values.size, dtype=np.int64)
        cascades = 0
        # Per-pass buffers, sized for the first (largest) pass.
        positions = np.arange(values.size)
        heads_buf = np.empty(values.size, dtype=np.bool_)
        fit_buf = np.empty(values.size, dtype=np.bool_)
        first_buf = np.empty(values.size, dtype=np.bool_)
        while values.size:
            n = values.size
            self._sync_cover()
            owners = self._cov_owner[
                np.searchsorted(self._cov_starts, values, side="right") - 1
            ]
            order = np.argsort(owners, kind="stable")
            grouped = owners[order]
            group_weights = weights[order]
            heads_buf[0] = True
            np.not_equal(grouped[1:], grouped[:-1], out=heads_buf[1:n])
            heads = np.maximum.accumulate(
                np.where(heads_buf[:n], positions[:n], 0)
            )
            deposited = np.cumsum(group_weights)
            running = (
                self._counts[grouped]
                + deposited
                - (deposited[heads] - group_weights[heads])
            )
            # Integral running > th iff running > floor(th).
            th_int = self._floor_thresholds(arrivals[order] + group_weights)
            crossed = (running > th_int) & ~self._is_item[grouped]
            seen = np.cumsum(crossed)
            seen -= seen[heads] - crossed[heads]
            fit_buf[order] = seen == 0
            first_buf[order] = crossed & (seen == 1)
            fit = fit_buf[:n]
            first = first_buf[:n]
            sums = _exact_bincount(owners[fit], weights[fit], self._size)
            touched = np.flatnonzero(sums)
            if touched.size:
                self._counts[touched] += sums[touched]
                self._mark_dirty_many(touched)
                stats.observe_batch(
                    int(sums[touched].sum()),
                    int(updates[fit].sum()),
                    self._node_count,
                )
            keep = ~fit
            values = values[keep]
            weights = weights[keep]
            arrivals = arrivals[keep]
            updates = updates[keep]
            owners = owners[keep]
            first = first[keep]
            # Runs of consecutive equal values deposit as one counted
            # item. A crossing item heads its run: an equal value just
            # before it has the same owner, so it fitted.
            join = (values[1:] == values[:-1]) & (
                arrivals[1:] == arrivals[:-1] + weights[:-1]
            )
            if join.any():
                heads_buf[0] = True
                np.logical_not(join, out=heads_buf[1 : values.size])
                runs = np.flatnonzero(heads_buf[: values.size])
                weights = np.add.reduceat(weights, runs)
                updates = np.add.reduceat(updates, runs)
                values = values[runs]
                arrivals = arrivals[runs]
                owners = owners[runs]
                first = first[runs]
            for slot, value, count, arrival in zip(
                owners[first].tolist(),
                values[first].tolist(),
                weights[first].tolist(),
                arrivals[first].tolist(),
            ):
                self._events = arrival
                absorb(slot, value, count)
                stats.observe_update()
                cascades += 1
            rest = ~first
            values = values[rest]
            weights = weights[rest]
            arrivals = arrivals[rest]
            updates = updates[rest]
        return cascades

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def _split_slot(self, slot: int) -> None:
        """Burst ``slot`` into up to ``b`` children (Section 2.2).

        Same policy as ``RapTree._split``: existing children (partition
        cells that survived a partial merge) are left alone, missing
        cells gain zero-count children, and the chain up to the root is
        marked dirty. The cover splice is queued for the next vectorized
        round rather than applied here.
        """
        lo = self._v_los[slot]
        hi = self._v_his[slot]
        kid_depth = self._v_depth[slot] + 1
        if self._v_n_children[slot]:
            cells = partition_range(lo, hi, self._config.branching)
            kids = self._children_slots(slot)
            los = self._v_los
            his = self._v_his
            existing = {(los[k], his[k]) for k in kids}
            created = [
                self._alloc(cell_lo, cell_hi, kid_depth)
                for cell_lo, cell_hi in cells
                if (cell_lo, cell_hi) not in existing
            ]
            if created:
                # _alloc may have grown (reallocated) the columns:
                # re-read the bounds view before sorting the chain.
                los = self._v_los
                merged = [
                    kid
                    for _, kid in sorted(
                        [(los[k], k) for k in kids]
                        + [(los[k], k) for k in created]
                    )
                ]
                self._set_children(slot, merged)
                self._node_count += len(created)
                self._cov_pending.append((slot, created))
        else:
            # Fast path (no surviving children): every cell is fresh
            # and emitted in ``lo`` order, so the sibling chain is just
            # the allocation order — allocate the partition cells
            # directly (the same boundaries ``partition_range``
            # computes: up to ``b`` near-equal cells, the remainder
            # spread over the leading ones) and chain them inline.
            width = hi - lo + 1
            branching = self._config.branching
            cells_n = branching if width >= branching else width
            base_w = width // cells_n
            extra = width % cells_n
            # Batched allocation: same pop-then-extend order as
            # per-cell _alloc calls, but with capacity ensured up
            # front so no view can rebind mid-loop.
            while self._size + cells_n - self._free_top > self._capacity:
                self._grow()
            free_top = self._free_top
            size = self._size
            vfree = self._v_free_slots
            vlive = self._v_live
            vlos = self._v_los
            vhis = self._v_his
            vdepth = self._v_depth
            vis_item = self._v_is_item
            parents = self._v_parents
            next_sibling = self._v_next_sibling
            created = []
            cell_lo = lo
            for cell_index in range(cells_n):
                cell_w = base_w + 1 if cell_index < extra else base_w
                if free_top:
                    free_top -= 1
                    kid = vfree[free_top]
                    vlive[kid] = True
                else:
                    kid = size
                    size += 1
                cell_hi = cell_lo + cell_w - 1
                vlos[kid] = cell_lo
                vhis[kid] = cell_hi
                vdepth[kid] = kid_depth
                if cell_w == 1:
                    vis_item[kid] = True
                created.append(kid)
                cell_lo = cell_hi + 1
            self._free_top = free_top
            self._size = size
            prev = created[0]
            self._v_first_child[slot] = prev
            parents[prev] = slot
            for kid in created[1:]:
                parents[kid] = slot
                next_sibling[prev] = kid
                prev = kid
            next_sibling[prev] = _NO_SLOT
            self._v_n_children[slot] = len(created)
            self._node_count += len(created)
            self._cov_pending.append((slot, created))
        self._mark_dirty(slot)
        self._stats.observe_split()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge_now(self) -> int:
        """Run one batched merge pass; returns the number of nodes removed.

        Observably identical to ``RapTree.merge_now`` — the reference's
        dirty-frontier walk is documented to produce exactly the tree a
        full post-order pass would, and after either pass every node is
        clean with exact cached values, so the vectorized full pass in
        :meth:`_merge_frontier` lands on the same state. The cover index
        is spliced in place (no rebuild).
        """
        if self._confined_ident is not None:
            self._assert_owner()
        self._sync_cover()
        threshold = self._config.merge_threshold(self._events)
        before = self._node_count
        visited = self._merge_frontier(threshold)
        removed = before - self._node_count
        self._stats.observe_merge_batch(removed, nodes_scanned=visited)
        self._scheduler.fired(self._events)
        self._generation += 1
        if removed:
            # Recycled slots may be anywhere; park the finger at the root.
            self._cached_slot = 0
        return removed

    def _merge_frontier(self, threshold: float) -> int:
        """One vectorized merge pass over the level structure.

        Level-ordered array kernels replace the object backend's
        post-order frame walk: subtree weights bottom-up (exact int64
        bincount), collapsibility top-down, chain rebuild and cache
        finalization wholesale. Equivalent to the reference walk
        because collapsing is closed under the maximal-subtree rule:
        a subtree collapses iff its total weight is at or below the
        threshold, wherever the walk encounters it. Returns the number
        of slots examined (the whole live set, or 1 on the clean-root
        early exit — this *is* a full scan, unlike the object walk,
        which is the price of doing it in constant Python overhead).
        """
        if not self._dirty[0] and int(self._cached_min[0]) > threshold:
            return 1
        size = self._size
        counts = self._counts
        parents = self._parents
        live = self._live
        live_idx = np.flatnonzero(live[:size])
        visited = int(live_idx.size)
        levels = self._depth[live_idx]
        order = np.argsort(levels, kind="stable")
        by_depth = live_idx[order]
        level_of = levels[order]
        max_depth = int(level_of[-1])
        bounds = np.searchsorted(level_of, np.arange(max_depth + 2))
        # Subtree weights, bottom-up by level. ``np.add.at`` is an
        # unbuffered indexed add straight in int64 — exact at any
        # magnitude (the float64-splitting ``_exact_bincount`` is only
        # needed where a ``weights=`` accumulation is unavoidable) and,
        # on the shallow per-level slot groups of a deep tree, several
        # times cheaper than two bincounts over the whole slot space.
        subtree = counts[:size].copy()
        for level in range(max_depth, 0, -1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            np.add.at(subtree, parents[slots], subtree[slots])
        # Integral weights: w <= threshold iff w <= floor(threshold).
        if threshold < 0:
            floor_t = -1
        else:
            floor_t = min(math.floor(threshold), _INT64_MAX)
        collapsible = (subtree <= floor_t) & live[:size]
        collapsible[0] = False
        collapsible_idx = np.flatnonzero(collapsible)
        if collapsible_idx.size == 0:
            self._finalize_clean(by_depth, bounds, max_depth, subtree, None)
            return visited
        # A slot is removed when any ancestor-or-self collapses
        # (top-down propagation down the levels). Nothing above the
        # shallowest collapsible slot can inherit a removal, so the
        # walk starts one level below it — on a deep tree collapses
        # are usually confined to the fresh camps near the bottom.
        removed = collapsible.copy()
        start_level = int(self._depth[collapsible_idx].min()) + 1
        for level in range(start_level, max_depth + 1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            removed[slots] |= removed[parents[slots]]
        removed_idx = np.flatnonzero(removed)
        survives = live[:size] & ~removed
        # Maximal collapsed subtrees (removed slots whose parent
        # survives — necessarily collapsible themselves) fold their
        # whole weight into the surviving parent.
        tops = removed_idx[survives[parents[removed_idx]]]
        np.add.at(counts, parents[tops], subtree[tops])
        # Free the removed slots: reset counters/item flags so dead
        # slots keep reading as zero, restore the allocation defaults
        # _alloc relies on (leaf chain head, dirty), push onto the
        # free stack.
        counts[removed_idx] = 0
        self._is_item[removed_idx] = False
        self._first_child[removed_idx] = _NO_SLOT
        self._n_children[removed_idx] = 0
        self._dirty[removed_idx] = True
        live[removed_idx] = False
        freed = removed_idx.size
        self._free_slots[self._free_top : self._free_top + freed] = removed_idx
        self._free_top += int(freed)
        self._node_count -= int(freed)
        surv_idx = np.flatnonzero(survives)
        self._rebuild_chains(surv_idx)
        self._finalize_clean(by_depth, bounds, max_depth, subtree, survives)
        # Cover splice: a value's new deepest cover is the nearest
        # surviving ancestor of its old one (collapses remove whole
        # subtrees). Remap owners top-down, then coalesce equal-owner
        # runs — the result is exactly what _rebuild_cover would emit.
        ancestor = np.arange(size, dtype=np.int64)
        for level in range(start_level - 1, max_depth + 1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            gone = slots[removed[slots]]
            ancestor[gone] = ancestor[parents[gone]]
        owner_new = ancestor[self._cov_owner]
        keep = np.empty(owner_new.size, dtype=np.bool_)
        keep[0] = True
        np.not_equal(owner_new[1:], owner_new[:-1], out=keep[1:])
        self._cov_starts = self._cov_starts[keep]
        self._cov_owner = owner_new[keep]
        return visited

    def _finalize_clean(
        self,
        by_depth: np.ndarray,
        bounds: np.ndarray,
        max_depth: int,
        subtree: np.ndarray,
        survives: Optional[np.ndarray],
    ) -> None:
        """Re-finalize surviving slots as clean with exact cached values.

        ``cached_weight`` is the (collapse-invariant) subtree weight;
        ``cached_min`` is the bottom-up minimum of subtree weights over
        the surviving slots — exactly what the reference walk's
        per-frame ``min`` accumulates.
        """
        parents = self._parents
        minima = subtree.copy()
        for level in range(max_depth, 0, -1):
            slots = by_depth[bounds[level] : bounds[level + 1]]
            if survives is not None:
                slots = slots[survives[slots]]
            np.minimum.at(minima, parents[slots], minima[slots])
        if survives is None:
            idx = by_depth
        else:
            idx = np.flatnonzero(survives)
        self._cached_weight[idx] = subtree[idx]
        self._cached_min[idx] = minima[idx]
        self._dirty[idx] = False

    def _rebuild_chains(self, surv_idx: np.ndarray) -> None:
        """Rewire every surviving sibling chain in one lexsort.

        Children are grouped by parent and ordered by ``lo`` — the same
        order every chain already had, so surviving structure is
        preserved and collapsed children simply vanish.
        """
        parents = self._parents
        first_child = self._first_child
        next_sibling = self._next_sibling
        n_children = self._n_children
        first_child[surv_idx] = _NO_SLOT
        next_sibling[surv_idx] = _NO_SLOT
        n_children[surv_idx] = 0
        kids = surv_idx[surv_idx != 0]
        if not kids.size:
            return
        kid_parents = parents[kids]
        order = np.lexsort((self._los[kids], kid_parents))
        kids = kids[order]
        kid_parents = kid_parents[order]
        heads = np.empty(kids.size, dtype=np.bool_)
        heads[0] = True
        np.not_equal(kid_parents[1:], kid_parents[:-1], out=heads[1:])
        head_at = np.flatnonzero(heads)
        first_child[kid_parents[head_at]] = kids[head_at]
        tail = ~heads[1:]
        next_sibling[kids[:-1][tail]] = kids[1:][tail]
        n_children[kid_parents[head_at]] = np.diff(
            np.append(head_at, kids.size)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def smallest_covering(self, value: int) -> RapNode:
        """The deepest node whose range covers ``value`` (view node)."""
        if value < 0 or value > self._root_hi:
            raise ValueError(
                f"value {value} outside universe [0, {self._root_hi}]"
            )
        node = self._materialize()
        while True:
            child = node.child_covering(value)
            if child is None:
                return node
            node = child

    def find_node(self, lo: int, hi: int) -> Optional[RapNode]:
        """The view node with exactly the range ``[lo, hi]``, if present."""
        node = self._materialize()
        while True:
            if node.lo == lo and node.hi == hi:
                return node
            child = node.child_covering(lo)
            if child is None or child.hi < hi:
                return None
            node = child

    def estimate(self, lo: int, hi: int) -> int:
        """Lower-bound estimate of events that fell in ``[lo, hi]``.

        A node's subtree contributes iff its own range is contained in
        the query (ranges nest), so the stack walk of the object backend
        reduces to one vectorized containment mask over the slots. Dead
        slots hold count 0 (reset at merge time), so no liveness mask
        is needed.
        """
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        root_hi = self._root_hi
        if hi < 0 or lo > root_hi:
            return 0
        size = self._size
        query_lo = np.uint64(max(lo, 0))
        query_hi = np.uint64(min(hi, root_hi))
        mask = (self._los[:size] >= query_lo) & (self._his[:size] <= query_hi)
        return int(self._counts[:size][mask].sum())

    def estimate_upper(self, lo: int, hi: int) -> int:
        """Upper-bound estimate: every overlapping counter contributes."""
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        root_hi = self._root_hi
        if hi < 0 or lo > root_hi:
            return 0
        size = self._size
        query_lo = np.uint64(max(lo, 0))
        query_hi = np.uint64(min(hi, root_hi))
        mask = (self._los[:size] <= query_hi) & (self._his[:size] >= query_lo)
        return int(self._counts[:size][mask].sum())

    def nodes(self) -> Iterator[RapNode]:
        """Pre-order iteration over the materialized view."""
        return self._materialize().iter_subtree()

    def leaves(self) -> Iterator[RapNode]:
        """Iteration over childless view nodes."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def total_weight(self) -> int:
        """Sum of all counters; always equals :attr:`events`.

        Dead slots hold count 0 (reset at merge time), so the raw
        column sum is the tree total.
        """
        return int(self._counts[: self._size].sum())

    def depth(self) -> int:
        """Height of the tree (root alone has depth 0).

        The depth column is maintained at allocation time (merges never
        re-depth a surviving node), so this is a masked max, not a walk.
        """
        size = self._size
        return int(self._depth[:size][self._live[:size]].max())

    def _hot_range_rows(
        self, cutoff: float
    ) -> List[Tuple[int, int, int, int, int]]:
        """Hot nodes as ``(lo, hi, exclusive, inclusive, depth)`` rows.

        The vectorized port of :func:`repro.core.hot_ranges.find_hot_ranges`'
        post-order walk: inclusive weights are plain subtree sums;
        exclusive weights fold in only the children that are themselves
        below the cutoff, accumulated level by level. The float cutoff
        is compared on the integer side (``e < cutoff`` iff
        ``e <= ceil(cutoff) - 1`` for integral ``e``), matching the
        reference's exact int-float comparisons.

        Rows are ordered exactly as the reference walk appends them —
        post-order position, which over a laminar range family is
        ``(hi ascending, depth descending)`` — so the caller's stable
        sort by weight produces the identical final order, ties and all.

        Everything runs on the *compacted* live set (``node_count``
        rows), not the slot space: inclusive weights come from one
        int64 prefix sum over the preorder layout (a subtree is a
        contiguous preorder run — laminar family, siblings disjoint —
        whose end is the first later position with ``lo > hi``), and
        the exclusive fold walks levels through a compact parent-
        position map with ``np.add.at``. Cost is O(n log n) in the
        live node count, independent of tree depth and slot capacity.
        """
        size = self._size
        live_idx = np.flatnonzero(self._live[:size])
        n = int(live_idx.size)
        depth = self._depth[live_idx]
        # Preorder: lo ascending, ancestors (shallower) before equal-lo
        # descendants.
        order = np.lexsort((depth, self._los[live_idx]))
        slots = live_idx[order]
        pre_los = self._los[slots]
        pre_his = self._his[slots]
        pre_depth = depth[order]
        pre_counts = self._counts[slots]
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(pre_counts, out=csum[1:])
        ends = np.searchsorted(pre_los, pre_his, side="right")
        inclusive = csum[ends] - csum[:n]
        cut_m1 = min(math.ceil(cutoff) - 1, _INT64_MAX)
        # Exclusive fold, bottom-up by level: a child below the cutoff
        # donates its (already folded) weight to its parent. np.add.at
        # accumulates duplicates exactly in int64.
        pos_of = np.empty(size, dtype=np.int64)
        pos_of[slots] = np.arange(n, dtype=np.int64)
        parent_pos = pos_of[self._parents[slots]]
        by_depth = np.argsort(pre_depth, kind="stable")
        level_of = pre_depth[by_depth]
        max_depth = int(level_of[-1]) if n else 0
        bounds = np.searchsorted(level_of, np.arange(max_depth + 2))
        exclusive = pre_counts.astype(np.int64, copy=True)
        for level in range(max_depth, 0, -1):
            rows = by_depth[bounds[level] : bounds[level + 1]]
            cold = rows[exclusive[rows] <= cut_m1]
            np.add.at(exclusive, parent_pos[cold], exclusive[cold])
        hot_rows = np.flatnonzero(exclusive > cut_m1)
        if not hot_rows.size:
            return []
        post = np.lexsort((-pre_depth[hot_rows], pre_his[hot_rows]))
        hot_rows = hot_rows[post]
        return list(
            zip(
                pre_los[hot_rows].tolist(),
                pre_his[hot_rows].tolist(),
                exclusive[hot_rows].tolist(),
                inclusive[hot_rows].tolist(),
                pre_depth[hot_rows].tolist(),
            )
        )

    # ------------------------------------------------------------------
    # Materialized view
    # ------------------------------------------------------------------

    def _materialize(self) -> RapNode:
        """Build (or reuse) the linked ``RapNode`` view of the columns.

        Cached per mutation generation: serializers, auditors and folds
        may walk it repeatedly between mutations for free. The view is a
        snapshot — mutating it does not write back. Columns convert via
        ``tolist`` (one C pass each) so the per-node construction reads
        Python ints, not numpy scalars.
        """
        if (
            self._view_root is not None
            and self._view_generation == self._generation
        ):
            return self._view_root
        size = self._size
        los = self._los[:size].tolist()
        his = self._his[:size].tolist()
        counts = self._counts[:size].tolist()
        first_child = self._first_child[:size].tolist()
        next_sibling = self._next_sibling[:size].tolist()
        dirty = self._dirty[:size].tolist()
        cached_weight = self._cached_weight[:size].tolist()
        cached_min = self._cached_min[:size].tolist()

        def build(slot: int, parent: Optional[RapNode]) -> RapNode:
            node = RapNode(
                los[slot], his[slot], count=counts[slot], parent=parent
            )
            node.dirty = dirty[slot]
            node.cached_weight = cached_weight[slot]
            node.cached_min = cached_min[slot]
            return node

        root = build(0, None)
        stack = [(0, root)]
        while stack:
            slot, node = stack.pop()
            child = first_child[slot]
            while child != _NO_SLOT:
                view_child = build(child, node)
                node.attach_child(view_child)
                stack.append((child, view_child))
                child = next_sibling[child]
        self._view_root = root
        self._view_generation = self._generation
        return root

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """Run the full structural auditor; raise ``AuditError`` if dirty."""
        # Imported lazily: repro.checks imports repro.core.
        from ..checks.audit import TreeAuditor

        TreeAuditor().audit(self).raise_if_failed()

    # rap: hot
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any broken structural invariant.

        Checks every property :meth:`repro.core.tree.RapTree.check_invariants`
        checks of a linked tree, in array passes over the live slots
        (no node view, no per-slot loop; ``combine_many`` runs this on
        every fold):

        * geometry: every child is a ``partition_range`` cell of its
          parent (the ``(base, extra)`` cell formula; the root's cells
          in Python ints, since its width can be ``2**64``), and
          siblings are sorted and disjoint;
        * counts: counters are non-negative and sum exactly to
          ``events``, and the live slots number ``node_count``;
        * pointers: parent pointers and depths agree, and
          ``first_child``/``next_sibling``/``n_children`` are exactly
          the ``(parent, lo)`` ordering of the live slots;
        * merge caches: no clean node has a dirty child, and every
          clean node's ``cached_weight``/``cached_min`` equal the
          bottom-up subtree sums and minima.

        Then the columnar bookkeeping: the free stack against the live
        column, the allocation defaults of freed slots, and the
        incrementally spliced cover index against a from-scratch
        :meth:`_rebuild_cover`.
        """
        size = self._size
        live = self._live[:size]
        live_idx = np.flatnonzero(live)
        assert live_idx.size == self._node_count, (
            f"live column counts {live_idx.size} slots, "
            f"node_count says {self._node_count}"
        )
        assert size and live[0], "the root slot must be live"
        counts = self._counts[:size]
        los = self._los[:size]
        his = self._his[:size]
        parents = self._parents[:size]
        depth = self._depth[:size]
        dirty = self._dirty[:size]

        # Slot accounting: the free stack holds exactly the dead slots,
        # each restored to the allocation defaults _alloc relies on.
        free = self._free_slots[: self._free_top]
        assert np.all((free >= 0) & (free < size)), (
            "free stack holds a slot outside the allocated prefix"
        )
        on_stack = np.zeros(size, dtype=np.bool_)
        on_stack[free] = True
        assert np.count_nonzero(on_stack) == free.size, (
            "free stack has duplicates"
        )
        assert not np.any(on_stack & live), "a free slot is still live"
        assert free.size + live_idx.size == size, (
            "free stack and live column disagree on slot accounting"
        )
        assert not (
            np.any(counts[free])
            or np.any(self._is_item[free])
            or np.any(self._first_child[free] != _NO_SLOT)
            or np.any(self._n_children[free])
            or not np.all(dirty[free])
        ), "a free slot was not reset to the allocation defaults"

        # Counts: non-negative, summed exactly (32-bit halves keep every
        # int64 partial sum in range) to the event total.
        live_counts = counts[live_idx]
        negative = live_idx[live_counts < 0]
        assert not negative.size, f"negative counter at slot {negative[0]}"
        weight = (int(np.sum(live_counts >> 32)) << 32) + int(
            np.sum(live_counts & _LOW32)
        )
        assert weight == self._events, (
            f"tree weight {weight} != events {self._events}"
        )
        live_los = los[live_idx]
        live_his = his[live_idx]
        assert np.all(live_los <= live_his), "a live slot has an empty range"
        assert np.array_equal(
            self._is_item[live_idx], live_los == live_his
        ), "an item flag disagrees with its bounds"

        # Pointers: every non-root live slot hangs one level below a
        # live parent (so the parent graph is a tree rooted at slot 0),
        # and the chains are the (parent, lo) ordering of those slots.
        assert (
            los[0] == 0
            and int(his[0]) == self._root_hi
            and depth[0] == 0
            and parents[0] == _NO_SLOT
        ), "slot 0 is not the root of the universe"
        kids = live_idx[1:]
        up = parents[kids].astype(np.int64)
        assert np.all((up >= 0) & (up < size)) and np.all(live[up]), (
            "a live slot's parent pointer misses a live slot"
        )
        assert np.array_equal(depth[kids], depth[up] + 1), (
            "a child's depth disagrees with its parent's"
        )
        order = np.lexsort((los[kids], up))
        kids = kids[order]
        up = up[order]
        same = up[1:] == up[:-1]
        heads = np.ones(kids.size, dtype=np.bool_)
        heads[1:] = ~same
        heads = np.flatnonzero(heads)
        first_child = np.full(size, _NO_SLOT, dtype=np.int64)
        first_child[up[heads]] = kids[heads]
        next_sibling = np.full(size, _NO_SLOT, dtype=np.int64)
        next_sibling[kids[:-1][same]] = kids[1:][same]
        n_children = np.bincount(up, minlength=size)
        assert np.array_equal(
            self._first_child[live_idx], first_child[live_idx]
        ) and np.array_equal(
            self._next_sibling[live_idx], next_sibling[live_idx]
        ), "a sibling chain disagrees with the (parent, lo) order"
        assert np.array_equal(
            self._n_children[live_idx], n_children[live_idx]
        ), "an n_children count disagrees with its chain"

        # Geometry: siblings sorted and disjoint; each child one of its
        # parent's partition cells.
        assert np.all(his[kids[:-1][same]] < los[kids[1:][same]]), (
            "children overlap/unsorted"
        )
        at_root = up == 0
        cells = set(partition_range(0, self._root_hi, self._config.branching))
        for lo, hi in zip(
            los[kids[at_root]].tolist(), his[kids[at_root]].tolist()
        ):
            assert (lo, hi) in cells, (
                f"child [{lo}, {hi}] is not a partition cell of the root"
            )
        child = kids[~at_root]
        parent = up[~at_root]
        parent_lo = los[parent]
        width = his[parent] - parent_lo + np.uint64(1)
        splittable = width >= np.uint64(2)  # 0 after a 2**64 wrap too
        width[~splittable] = 2
        cells_n = np.minimum(width, np.uint64(self._config.branching))
        base = width // cells_n
        extra = width % cells_n
        # Invert the cell formula, then re-apply it: the first ``extra``
        # cells are ``base + 1`` wide, the rest ``base``.
        offset = los[child] - parent_lo
        wide = extra * (base + np.uint64(1))
        cell = np.where(
            offset < wide,
            offset // (base + np.uint64(1)),
            extra + (offset - wide) // base,
        )
        start = parent_lo + cell * base + np.minimum(cell, extra)
        end = start + base - (cell >= extra).astype(np.uint64)
        misfit = child[
            ~(
                splittable
                & (cell < cells_n)
                & (start == los[child])
                & (end == his[child])
            )
        ]
        assert not misfit.size, (
            f"child [{los[misfit[0]]}, {his[misfit[0]]}] is not a "
            f"partition cell of its parent slot {parents[misfit[0]]}"
        )

        # Merge caches: subtree sums and minima bottom-up by level.
        assert not np.any(~dirty[up] & dirty[kids]), (
            "a clean node has a dirty child"
        )
        by_depth = live_idx[np.argsort(depth[live_idx], kind="stable")]
        bounds = np.searchsorted(
            depth[by_depth], np.arange(int(depth[by_depth[-1]]) + 2)
        )
        up_by_depth = parents[by_depth]
        subtree = counts.copy()
        for level in range(bounds.size - 2, 0, -1):
            rows = slice(bounds[level], bounds[level + 1])
            np.add.at(subtree, up_by_depth[rows], subtree[by_depth[rows]])
        minima = subtree.copy()
        for level in range(bounds.size - 2, 0, -1):
            rows = slice(bounds[level], bounds[level + 1])
            np.minimum.at(minima, up_by_depth[rows], minima[by_depth[rows]])
        clean = live_idx[~dirty[live_idx]]
        assert np.array_equal(self._cached_weight[clean], subtree[clean]), (
            "a clean node caches a stale subtree weight"
        )
        assert np.array_equal(self._cached_min[clean], minima[clean]), (
            "a clean node caches a stale subtree minimum"
        )

        self._sync_cover()
        expected_starts = self._cov_starts
        expected_owner = self._cov_owner
        self._rebuild_cover()
        assert np.array_equal(expected_starts, self._cov_starts) and (
            np.array_equal(expected_owner, self._cov_owner)
        ), "cover index diverged from tree structure"

    def __len__(self) -> int:
        return self._node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRapTree(R={self._config.range_max}, "
            f"eps={self._config.epsilon}, nodes={self._node_count}, "
            f"events={self._events})"
        )
