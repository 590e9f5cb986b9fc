"""Struct-of-arrays RAP tree over a compiled update kernel.

:class:`ColumnarRapTree` stores the range tree in parallel numpy
columns instead of linked :class:`~repro.core.node.RapNode` objects.
One *slot* (column index) is one node; freed slots are recycled through
a free stack. Every column has exactly one copy:

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
``_live``                 bool          slot is an allocated node
``_free_slots``           int32         free stack (``_free_top`` entries)
========================  ============  ===================================

Updates run in C. ``_kernel.c`` (built and loaded by
:mod:`repro.core.native`) is a line-for-line port of
:class:`repro.core.tree.RapTree`'s update path onto these columns: the
finger descent over the sibling chains, the inline fast loop of
``add_counted`` (a deposit that stays at or below its node's
threshold and short of the merge trigger), and ``_absorb``'s cascade —
closed-form split crossing points with their ±1 fixups, the dry split
of a counter that merge churn left over threshold, mid-count merge
triggers — with ``TreeStats`` accumulated in the same order. The two
backends therefore build identical trees and statistics for identical
operation sequences. The kernel contract:

* **Exact arithmetic.** Every integer-vs-double comparison is exact, as
  CPython's is, at any magnitude: counters past 2**53 compare against
  ``floor``/``ceil`` of the double in 128-bit integers, and integers
  convert to doubles rounded to nearest. The root's width, 2**64 over
  the full universe, is held in ``unsigned __int128``. An item whose
  count would take the event total past 2**63-1 raises
  ``OverflowError`` before it deposits anything (the object backend's
  Python ints keep going; the paper's ``n`` sits far below the bound).
* **Return at merge and grow.** The update kernel never allocates
  memory and never merges. It returns when a merge is due, and Python
  runs :meth:`merge_now` (the compiled ``rap_merge`` pass); it returns
  when a split needs more free slots than the columns hold, and Python
  runs :meth:`_grow` (under the shared-memory allocator hook, a remap).
  Either way the kernel then resumes at the item and remaining count
  where it stopped.
* **Per-event hooks.** With ``timeline_sample_every`` or
  ``audit_every`` set, every entry point feeds the kernel one item at a
  time through :meth:`add`, so the hooks see every update.

The kernel keeps the tree's scalar state (slot accounting, event total,
finger) in its ``KernelState`` struct; the ``_size``/``_events``/...
attributes read and write it. A fresh tree's first frame may instead
take the cold-start bulk build, one compiled breadth-first pass
(:meth:`~ColumnarRapTree.bootstrap_counted_arrays`). The merge pass
(:meth:`~ColumnarRapTree.merge_now`, ``rap_merge``) and the snapshot
fold's layout (:meth:`~ColumnarRapTree.from_counter_rows`,
``rap_fold``) are compiled too; estimates, hot ranges and
``check_invariants`` stay numpy passes.

Construct through ``RapTree.from_config(RapConfig(backend="columnar"))``
— importing this module's internals elsewhere is flagged by RAP-LINT012.
If the kernel cannot be built or loaded, construction raises
:class:`repro.core.native.NativeKernelError`.
"""

from __future__ import annotations

import ctypes
import math
import operator
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
)

import numpy as np

from .config import MergeScheduler, RapConfig
from .native import (
    F_BELOW_ITEM,
    F_OFF_PARTITION,
    K_BAD,
    K_DONE,
    K_GROW,
    K_MERGE,
    K_OVERFLOW,
    K_TIMELINE,
    K_UNCOVERED,
    KernelState,
    load_kernel,
)
from .node import RapNode, partition_range
from .stats import TreeStats

_NO_SLOT = -1
_INITIAL_CAPACITY = 64
# Timeline samples the kernel buffers before handing them to TreeStats.
_TIMELINE_BUFFER = 64

# 32-bit split for exact int64 sums (check_invariants).
_LOW32 = (1 << 32) - 1
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1


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
    "_live",
)


def _int_column(
    items: Sequence, dtype: type, low: int, high: int
) -> Tuple[np.ndarray, int]:
    """``items`` as a ``dtype`` column, and where it stops holding them.

    Returns the column of the leading items that are integers in
    ``[low, high]``, and the index of the first item that is not (the
    length when all are). Nothing is cast unchecked: ndarray casts do
    not range-check, and numpy would read a list mixing ints past 2**63
    with small ones as float64.
    """
    if isinstance(items, np.ndarray):
        if items.ndim == 1 and items.dtype.kind in "iu":
            if items.dtype.kind == "i" and low > np.iinfo(items.dtype).min:
                outside = np.flatnonzero(items < low)
            elif items.dtype.kind == "u" and high < np.iinfo(items.dtype).max:
                outside = np.flatnonzero(items > np.uint64(high))
            else:
                outside = np.zeros(0, dtype=np.int64)
            stop = int(outside[0]) if outside.size else int(items.size)
            return items[:stop].astype(dtype, copy=False), stop
        items = items.tolist()
    elif set(map(type, items)) <= {int}:
        try:
            return np.array(items, dtype=dtype), len(items)
        except OverflowError:
            pass
    held: List[int] = []
    for item in items:
        try:
            item = operator.index(item)
        except TypeError:
            break
        if not low <= item <= high:
            break
        held.append(item)
    return np.array(held, dtype=dtype), len(held)


def _state_field(name: str) -> property:
    """A tree attribute stored in the kernel's state struct."""

    def get(self: "ColumnarRapTree") -> int:
        return getattr(self._kstate, name)

    def put(self: "ColumnarRapTree", value: int) -> None:
        setattr(self._kstate, name, value)

    return property(get, put)


class ColumnarRapTree:
    """Array-backed RAP profile, observably equivalent to ``RapTree``.

    Implements the :class:`repro.core.backend.TreeBackend` protocol.
    ``root``/``nodes()``/``leaves()`` materialize a read-only
    :class:`~repro.core.node.RapNode` view of the columns (cached per
    mutation generation) so serialization and auditing treat both
    backends identically. Mutating the view does not affect the tree.
    The compiled kernel (updates, bootstrap, merge, fold layout),
    estimates, hot ranges and ``check_invariants`` read the columns
    directly and never build the view.
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
        "_live": np.dtype(np.bool_),
        "_free_slots": np.dtype(np.int32),
    }

    _capacity = _state_field("capacity")
    _size = _state_field("size")
    _free_top = _state_field("free_top")
    _node_count = _state_field("node_count")
    _events = _state_field("events")
    _cached_slot = _state_field("cached_slot")

    def __init__(
        self,
        config: RapConfig,
        *,
        allocator: Optional[
            Callable[[str, np.dtype, int], np.ndarray]
        ] = None,
    ) -> None:
        if config.range_max - 1 > _UINT64_MAX:
            raise ValueError(
                "the columnar backend holds ranges in uint64: range_max "
                f"must be at most 2**64, got {config.range_max}"
            )
        # Fail construction, not the first update, without a kernel.
        load_kernel()
        self._kstate = KernelState()
        self._kstate_at = ctypes.addressof(self._kstate)
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
        # Allocation-default pre-fill: fresh (never-allocated) slots
        # already hold the state a split writes — leaf chain head,
        # live — and freed slots are restored to it in bulk when the
        # merge pass recycles them, so a split only stores the per-node
        # fields (bounds, depth). The live pre-fill is safe: every
        # _live read is masked to the allocated prefix ``[:size]``.
        self._first_child.fill(_NO_SLOT)
        self._live.fill(True)
        self._rebind_views()
        self._root_hi = config.range_max - 1
        # The root: slot 0, never anyone's child.
        self._his[0] = self._root_hi
        self._parents[0] = _NO_SLOT
        self._next_sibling[0] = _NO_SLOT
        self._size = 1
        self._free_top = 0
        self._node_count = 1
        self._events = 0
        # The kernel's finger (same role as RapTree's ``_cached_node``);
        # reset to the root after merges recycle slots.
        self._cached_slot = 0
        kstate = self._kstate
        kstate.root_hi = self._root_hi
        kstate.branching = config.branching
        kstate.eps_h = config.epsilon / config.max_height
        kstate.min_th = config.min_split_threshold
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
        # Timeline samples buffered by the kernel, (events, nodes) pairs.
        self._timeline = np.zeros(2 * _TIMELINE_BUFFER, dtype=np.int64)
        kstate.timeline = self._timeline.ctypes.data
        kstate.timeline_cap = _TIMELINE_BUFFER
        # One-item arguments for add().
        self._one_value = ctypes.c_uint64()
        self._one_count = ctypes.c_int64()
        # Materialized RapNode view, cached per mutation generation.
        self._view_root: Optional[RapNode] = None
        self._view_generation = -1

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
        """Point the kernel at the current column arrays.

        Must be called whenever a column array object is replaced
        (``_grow``, ``clone``, ``attach_columns``, ``from_counter_rows``),
        after ``_capacity`` is set. The kernel indexes raw addresses, so each
        column must be a contiguous array of its dtype holding at least
        ``_capacity`` slots.
        """
        kstate = self._kstate
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            column = getattr(self, name)
            if (
                column.dtype != self.COLUMN_DTYPES[name]
                or not column.flags.c_contiguous
                or column.size < self._capacity
            ):
                raise ValueError(
                    f"column {name!r} must be a contiguous "
                    f"{self.COLUMN_DTYPES[name]} array of at least "
                    f"{self._capacity} slots"
                )
            setattr(kstate, name[1:], column.ctypes.data)

    def _children_slots(self, slot: int) -> List[int]:
        """Direct children of ``slot`` in ``lo`` order."""
        out: List[int] = []
        child = int(self._first_child[slot])
        while child != _NO_SLOT:
            out.append(child)
            child = int(self._next_sibling[child])
        return out

    def _set_children(self, slot: int, kids: List[int]) -> None:
        """Rebuild the sibling chain of ``slot`` from a slot list."""
        self._n_children[slot] = len(kids)
        self._first_child[slot] = kids[0] if kids else _NO_SLOT
        for index, kid in enumerate(kids):
            self._parents[kid] = slot
            self._next_sibling[kid] = (
                kids[index + 1] if index + 1 < len(kids) else _NO_SLOT
            )

    def _grow(self, slots: int) -> None:
        """Double the columns until they hold ``slots`` slots.

        One reallocation however many doublings that takes.
        """
        old_capacity = self._capacity
        capacity = max(_INITIAL_CAPACITY, 2 * old_capacity)
        while capacity < slots:
            capacity *= 2
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            old = getattr(self, name)
            # Under the allocator hook this is the shared-memory "grow
            # by remap": a fresh (larger) segment per column, the live
            # prefix copied over, the old segment retired by the arena.
            grown = self._new_column(name, old.dtype, capacity)
            grown[: old.size] = old
            setattr(self, name, grown)
        # Restore the allocation-default pre-fill on the fresh tail
        # (see __init__) so splits can keep skipping those stores.
        self._first_child[old_capacity:] = _NO_SLOT
        self._live[old_capacity:] = True
        self._capacity = capacity
        self._rebind_views()

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
        capacity tail included — plus the free stack: what the process
        really pays for this profile, not the
        paper's per-node model. ``bits_per_node`` is accepted for
        signature compatibility across backends but only the model
        (:meth:`modeled_memory_bytes`) uses it.
        """
        total = self._free_slots.nbytes
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
        other = ColumnarRapTree(self._config)
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            setattr(other, name, getattr(self, name).copy())
        other._capacity = self._capacity
        other._rebind_views()
        other._free_top = self._free_top
        other._size = self._size
        other._node_count = self._node_count
        other._events = self._events
        other._scheduler.next_at = self._scheduler.next_at
        other._scheduler.batches_fired = self._scheduler.batches_fired
        other._generation = self._generation
        return other

    def column_state(self) -> Dict[str, object]:
        """Scalar state that travels with the columns across processes.

        Everything :meth:`attach_columns` needs beyond the column
        arrays themselves: slot accounting, event totals and the
        merge-schedule position, as plain ints and floats (trivially
        picklable). A lone process-executor shard sends it, through
        :meth:`compact_columns`, with its compact columns.
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
        }

    @classmethod
    def attach_columns(
        cls,
        config: RapConfig,
        columns: Mapping[str, np.ndarray],
        state: Mapping[str, object],
    ) -> "ColumnarRapTree":
        """Wrap already-populated column arrays as a read-only tree.

        Copies nothing: the parent wraps a lone process-executor
        shard's compact columns, decoded from its sync reply, then
        clones them into its snapshot. ``columns`` maps every name in
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
        tree._cached_slot = 0
        tree._view_root = None
        tree._view_generation = -1
        tree._rebind_views()
        return tree

    @classmethod
    def from_counter_rows(
        cls,
        config: RapConfig,
        los: np.ndarray,
        his: np.ndarray,
        counts: np.ndarray,
        depths: np.ndarray,
    ) -> "ColumnarRapTree":
        """The pruned fold of counter rows, as a fresh heap-backed tree.

        The rows are every shard's nonzero counters (:meth:`counter_rows`).
        The result is the complete partition they sit on (see
        :mod:`repro.core.combine`) after one :meth:`merge_now` at the
        rows' total, already compacted: with the rows sorted by
        ``(lo, depth)``, ``rap_fold`` counts the survivors, every column
        is sized to them once, and a second pass lays them out breadth
        first in ``(parent, lo)`` order. The statistics record that
        merge batch.
        Raises ``ValueError`` when a row is not a partition range of the
        universe at its depth, or lies below an item range.
        """
        if los.ndim != 1 or not (
            los.shape == his.shape == counts.shape == depths.shape
        ):
            raise ValueError("counter rows must be matching 1-D arrays")
        tree = cls(config)
        order = np.lexsort((depths, los))
        los = np.ascontiguousarray(los[order], dtype=np.uint64)
        his = np.ascontiguousarray(his[order], dtype=np.uint64)
        depths = np.ascontiguousarray(depths[order], dtype=np.int64)
        cum = np.zeros(los.size + 1, dtype=np.int64)
        np.cumsum(counts[order], out=cum[1:])
        total = int(cum[-1])
        fold = load_kernel().rap_fold
        complete = ctypes.c_int64()
        rows = (los.ctypes.data, his.ctypes.data, depths.ctypes.data)
        rows += (cum.ctypes.data, los.size, config.merge_threshold(total))
        at = tree._kstate_at
        survivors = fold(at, *rows, None, ctypes.byref(complete))
        if survivors == F_OFF_PARTITION:
            raise ValueError(
                "a shard counter is not a partition range of this universe "
                "at its depth"
            )
        if survivors == F_BELOW_ITEM:
            raise ValueError("a shard counter lies below an item range")
        for name in _ARRAY_COLUMNS + ("_free_slots",):
            setattr(
                tree, name, np.zeros(survivors, dtype=cls.COLUMN_DTYPES[name])
            )
        tree._capacity = survivors
        tree._rebind_views()
        spans = np.empty(2 * survivors, dtype=np.int64)
        fold(at, *rows, spans.ctypes.data, ctypes.byref(complete))
        tree._events = total
        tree._stats.observe_merge_batch(
            complete.value - survivors, nodes_scanned=complete.value
        )
        tree._scheduler.fired(total)
        tree._generation += 1
        return tree

    def counter_rows(
        self, into: Optional[Callable[[int], np.ndarray]] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero counter as ``(lo, hi, count, depth)`` columns.

        Fresh arrays (one fancy-index gather per column), so they stay
        valid after an attached tree's shared memory is unmapped. Dead
        slots hold zero, so the nonzero mask needs no liveness mask.
        With ``into``, a function of the row count returning a
        ``(4, n)`` ``uint64`` block, the rows are gathered into that
        block instead and returned as views of it (``count`` and
        ``depth`` as ``int64``): a shard worker's sync reply.
        """
        counts = self._counts[: self._size]
        slots = np.flatnonzero(counts)
        if into is None:
            return (
                self._los[slots],
                self._his[slots],
                counts[slots],
                self._depth[slots],
            )
        block = into(slots.size)
        np.take(self._los, slots, out=block[0])
        np.take(self._his, slots, out=block[1])
        np.take(counts, slots, out=block[2].view(np.int64))
        block[3] = self._depth[slots]
        return (block[0], block[1], *block[2:].view(np.int64))

    def compact_columns(
        self,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Slots ``[0, size)`` of every column, and their state.

        Views, not copies; the state is :meth:`column_state` with the
        capacity cut to the size, so :meth:`attach_columns` wraps the
        columns as an equivalent tree. Every allocated slot, free-list
        slack included, lies below the size.
        """
        size = self._size
        columns = {
            name: getattr(self, name)[:size] for name in self.COLUMN_DTYPES
        }
        state = self.column_state()
        state["capacity"] = size
        return columns, state

    # ------------------------------------------------------------------
    # Updates (the compiled kernel)
    # ------------------------------------------------------------------

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``.

        Arithmetic-identical to :meth:`repro.core.tree.RapTree.add`:
        same closed-form split crossing points, same mid-count merge
        triggers, same descent semantics, same statistics.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if value < 0 or value > self._root_hi:
            raise ValueError(
                f"value {value} outside universe [0, {self._root_hi}]"
            )
        self._one_value.value = operator.index(value)
        count = operator.index(count)
        if count > _INT64_MAX:
            raise OverflowError(
                f"count {count} is past the columnar int64 counter range"
            )
        self._one_count.value = count
        self._run(
            ctypes.addressof(self._one_value),
            ctypes.addressof(self._one_count),
            1,
            direct=True,
        )
        self._generation += 1

        if self._scheduler.due(self._events):
            self.merge_now()

        if self._audit_every and self._events >= self._next_audit:
            while self._next_audit <= self._events:
                self._next_audit += self._audit_every
            self.audit()

    def extend(self, values: Iterable[int]) -> None:
        """Feed a stream of single events.

        Observably identical to calling :meth:`add` per value, and to
        ``RapTree.extend``; with timeline sampling or self-audits
        enabled the per-event path is used outright so those hooks see
        every event.
        """
        if not isinstance(values, (list, np.ndarray)):
            values = list(values)
        self._feed(values, None)

    def add_counted(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed pre-combined ``(value, count)`` pairs in arrival order."""
        items = pairs if isinstance(pairs, list) else list(pairs)
        if not items:
            return
        try:
            pairs_only = set(map(len, items)) == {2}
        except TypeError:
            pairs_only = False
        if not pairs_only:
            # Not all pairs: the per-item path raises at the first bad one.
            if self._confined_ident is not None:
                self._assert_owner()
            for value, count in items:
                self.add(value, count)
            return
        values, counts = zip(*items)
        self._feed(values, counts)

    def add_batch(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed ``(value, count)`` pairs, sorted once.

        Observably identical to ``add_counted(sorted(pairs))`` — the
        same contract as the object backend's batch kernel.
        """
        self.add_counted(sorted(pairs))

    # rap: hot
    def add_counted_arrays(
        self, values: np.ndarray, counts: np.ndarray
    ) -> None:
        """Feed pre-combined ``(value, count)`` columns, array-native.

        Observably identical to
        ``add_counted(list(zip(values.tolist(), counts.tolist())))``,
        without building the pair list: the kernel reads the arrays.
        This is the process executor's frame path — shard workers
        receive ``(values, counts)`` ndarray frames off the ring and
        ingest them without a tuple transpose on either side. An item
        the column dtypes cannot hold (a negative or non-integer value,
        a count past int64) raises the object backend's error at that
        item, after every item before it went in.
        """
        values = np.asarray(values)
        counts = np.asarray(counts)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError(
                "values and counts must be matching 1-D arrays, got "
                f"shapes {values.shape} and {counts.shape}"
            )
        self._feed(values, counts)

    def _feed(
        self, values: Sequence[int], counts: Optional[Sequence[int]]
    ) -> None:
        """The batch entry points' shared body (``counts`` None: ones).

        Items go to the kernel as uint64/int64 columns. The first item
        the columns cannot hold goes through :meth:`add` instead, which
        raises exactly the object backend's error for it.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        total = len(values)
        if self._stats.sample_every > 0 or self._audit_every:
            # Sampling/audit hooks must see every event: per-event path.
            if isinstance(values, np.ndarray):
                values = values.tolist()
            if isinstance(counts, np.ndarray):
                counts = counts.tolist()
            for at in range(total):
                self.add(values[at], 1 if counts is None else counts[at])
            return
        varr, stop = _int_column(values, np.uint64, 0, _UINT64_MAX)
        carr = None
        if counts is not None:
            carr, count_stop = _int_column(
                counts, np.int64, -(2**63), _INT64_MAX
            )
            if count_stop < stop:
                stop = count_stop
                varr = varr[:stop]
            carr = np.ascontiguousarray(carr[:stop])
        varr = np.ascontiguousarray(varr)
        if stop:
            try:
                self._run(
                    varr.ctypes.data,
                    None if carr is None else carr.ctypes.data,
                    stop,
                    direct=False,
                )
            finally:
                self._generation += 1
        if stop < total:
            self.add(values[stop], 1 if counts is None else counts[stop])
            self._feed(
                values[stop + 1 :],
                None if counts is None else counts[stop + 1 :],
            )

    def _require_writable(self) -> None:
        """Refuse read-only (attached) columns: the kernel writes through
        raw addresses, past numpy's read-only flag."""
        if not self._counts.flags.writeable:
            raise ValueError(
                "the tree wraps read-only columns (attach_columns); "
                "update a clone() instead"
            )

    def _run(
        self,
        values_at: int,
        counts_at: Optional[int],
        total: int,
        direct: bool,
    ) -> None:
        """Drive the kernel over ``total`` items until it finishes.

        ``values_at``/``counts_at`` are the addresses of the uint64
        values and int64 counts (``None``: one unit each). The kernel
        stops for merges, column growth and full timeline buffers,
        which run here, and then resumes where it stopped; a malformed
        item or an event total past int64 raises.
        """
        self._require_writable()
        kstate = self._kstate
        stats = self._stats
        kstate.st_events = stats.events
        kstate.st_updates = stats.updates
        kstate.st_splits = stats.splits
        kstate.st_max_nodes = stats.max_nodes
        kstate.st_node_seconds = stats.node_seconds
        kstate.sample_every = stats.sample_every
        kstate.next_sample = stats.next_sample
        kstate.item = 0
        kstate.phase = 0
        ingest = load_kernel().rap_ingest
        at = self._kstate_at
        while True:
            kstate.next_at = self._scheduler.next_at
            code = ingest(at, values_at, counts_at, total, direct)
            stats.events = kstate.st_events
            stats.updates = kstate.st_updates
            stats.splits = kstate.st_splits
            stats.max_nodes = kstate.st_max_nodes
            stats.node_seconds = kstate.st_node_seconds
            stats.next_sample = kstate.next_sample
            if kstate.timeline_len:
                samples = self._timeline[: 2 * kstate.timeline_len].tolist()
                stats.timeline.extend(zip(samples[0::2], samples[1::2]))
                kstate.timeline_len = 0
            if code == K_DONE:
                return
            if code == K_MERGE:
                self.merge_now()
            elif code == K_GROW:
                self._grow(self._size - self._free_top + kstate.need)
            elif code == K_BAD:
                offset = 8 * kstate.item
                value = ctypes.c_uint64.from_address(values_at + offset).value
                count = 1
                if counts_at is not None:
                    count = ctypes.c_int64.from_address(
                        counts_at + offset
                    ).value
                if count <= 0:
                    raise ValueError(f"count must be positive, got {count}")
                raise ValueError(
                    f"value {value} outside universe [0, {self._root_hi}]"
                )
            elif code == K_OVERFLOW:
                raise OverflowError(
                    "event total would pass 2**63-1, the columnar "
                    "backend's int64 counter range"
                )
            elif code == K_UNCOVERED:
                raise AssertionError("split left the value uncovered")
            elif code != K_TIMELINE:
                raise AssertionError(f"unknown kernel return code {code}")

    def bootstrap_counted_arrays(
        self, values: np.ndarray, counts: np.ndarray
    ) -> bool:
        """Cold-start bulk build from one sorted counted frame.

        Top-down offline construction of the adaptive partition for a
        *fresh* tree: burst every range whose frame mass exceeds the
        split threshold at the final event count, instead of replaying
        the per-event cascade. ``rap_bootstrap`` in ``_kernel.c`` does
        it in one compiled breadth-first pass over the frame's prefix
        masses (each cell's mass is one binary search inside its
        parent's slice), after a counting pass that sizes the columns
        for one :meth:`_grow`. Slots go out in (parent, ascending
        ``lo``) order, only to nonzero-mass cells; a cell is a leaf
        holding its mass when ``lo == hi`` or its mass is at most the
        threshold, else a zero-count burst.

        The result is not the shape the online kernel would build but a
        *different reachable* RAP state with the same contracts, which
        are structural, not historical: every counter is real mass from
        inside its range (estimates stay exact lower bounds), and every
        non-item node holds at most ``split_threshold(n)``, so a query's
        undercount stays within ``epsilon * n`` as Section 3.2 argues
        for the online tree. The build ends with the standard catch-up
        merge, leaving the merge schedule where any online ingest of
        ``n`` events would have left it.

        This is the first flush of every shard's combining window.
        Callers that need the online shape (``add_counted_arrays`` is
        documented observably identical to ``add_counted``) must not
        use it. Returns ``True`` when the build ran. Returns ``False``
        — tree untouched — when a precondition fails: the tree is not
        fresh or wraps read-only columns, per-event hooks (timeline
        sampling, auditing) must see every event, or the frame is not
        strictly-increasing in-range values with positive int64 counts.
        Fall back to :meth:`add_counted_arrays` in that case.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        if (
            self._events != 0
            or self._node_count != 1
            or self._size != 1
            or self._free_top != 0
            or not self._counts.flags.writeable
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
        varr = np.ascontiguousarray(values, dtype=np.uint64)
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
        # Prefix masses: frame slice [i, j) weighs cum[j] - cum[i].
        cum = np.zeros(varr.size + 1, dtype=np.int64)
        np.cumsum(carr, out=cum[1:])
        bootstrap = load_kernel().rap_bootstrap
        bursts = ctypes.c_int64()
        frame = (varr.ctypes.data, cum.ctypes.data, varr.size, floor_t)
        # Counting pass, one grow to the final size, then the fill pass
        # (whose fifo must be non-NULL even when the root is a leaf).
        at, tally = self._kstate_at, ctypes.byref(bursts)
        created = bootstrap(at, *frame, None, tally)
        if self._size + created > self._capacity:
            self._grow(self._size + created)
        fifo = np.empty(3 * max(bursts.value, 1), dtype=np.int64)
        bootstrap(at, *frame, fifo.ctypes.data, tally)
        self._events = total
        self._stats.observe_batch(total, int(varr.size), self._node_count)
        self._stats.splits += bursts.value
        self._generation += 1
        self._cached_slot = 0
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


    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge_now(self) -> int:
        """Run one batched merge pass; returns the number of nodes removed.

        Observably identical to ``RapTree.merge_now``: ``rap_merge`` in
        ``_kernel.c`` is the same post-order pass over the sibling
        chains, collapsing every non-root subtree that weighs at most
        the merge threshold into its parent, and both report the
        pre-merge node count as the nodes scanned. The removed slots
        are freed in one ascending sweep (count 0, no children, not
        live) and pushed onto the free stack in slot order. Like the
        update path, it refuses read-only (attached) columns.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        self._require_writable()
        threshold = self._config.merge_threshold(self._events)
        before = self._node_count
        removed = load_kernel().rap_merge(self._kstate_at, threshold)
        self._stats.observe_merge_batch(removed, nodes_scanned=before)
        self._scheduler.fired(self._events)
        self._generation += 1
        if removed:
            # Recycled slots may be anywhere; park the finger at the root.
            self._cached_slot = 0
        return removed

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

        def build(slot: int, parent: Optional[RapNode]) -> RapNode:
            return RapNode(
                los[slot], his[slot], count=counts[slot], parent=parent
            )

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
        """Run the full structural auditor; raise ``AuditError`` on failure."""
        # Imported lazily: repro.checks imports repro.core.
        from ..checks.audit import TreeAuditor

        TreeAuditor().audit(self).raise_if_failed()

    # rap: hot
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any broken structural invariant.

        Checks the structural properties
        :meth:`repro.core.tree.RapTree.check_invariants` checks of a
        linked tree, in array passes over the live slots (no node view,
        no per-slot loop; ``combine_many`` runs this on every fold):

        * geometry: every child is a ``partition_range`` cell of its
          parent (the ``(base, extra)`` cell formula; the root's cells
          in Python ints, since its width can be ``2**64``), and
          siblings are sorted and disjoint;
        * counts: counters are non-negative and sum exactly to
          ``events``, and the live slots number ``node_count``;
        * pointers: parent pointers and depths agree, and
          ``first_child``/``next_sibling``/``n_children`` are exactly
          the ``(parent, lo)`` ordering of the live slots.

        Then the columnar bookkeeping: the free stack against the live
        column, and the allocation defaults of freed slots.
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

        # Slot accounting: the free stack holds exactly the dead slots,
        # each restored to the allocation defaults a split relies on.
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
            or np.any(self._first_child[free] != _NO_SLOT)
            or np.any(self._n_children[free])
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
        assert np.all(los[live_idx] <= his[live_idx]), (
            "a live slot has an empty range"
        )

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

    def __len__(self) -> int:
        return self._node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRapTree(R={self._config.range_max}, "
            f"eps={self._config.epsilon}, nodes={self._node_count}, "
            f"events={self._events})"
        )
