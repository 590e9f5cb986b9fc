"""The Range Adaptive Profiling tree (Sections 2 and 3 of the paper).

``RapTree`` is the core data structure of the paper: a tree of counters
over ranges of an integer universe ``[0, R-1]``. Three operations exist:

* **update** — route an incoming event to the *smallest* existing range
  that covers it and increment that counter (Section 2.1);
* **split** — burst a counter that exceeded
  ``SplitThreshold = epsilon * n / log_b(R)`` into ``b`` children so the
  hot range is profiled more precisely (Section 2.2);
* **merge** — collapse subtrees whose cumulative weight no longer
  justifies separate counters back into their parent, in periodic batches
  whose spacing grows geometrically (Sections 2.2 and 3.1).

Counters are never decremented: RAP merges data rather than sampling or
filtering it, so every event is accounted for in *some* range, and every
range estimate is a lower bound on the truth (Section 4.3).

This linked-node tree is the readable reference that the columnar
backend and its compiled kernel are checked against. It keeps two pieces
of hot-path engineering (see "Performance notes" in ``DESIGN.md``):

* updates remember the last-hit node (*descent cache*) and re-validate it
  before falling back to a root descent, exploiting the temporal locality
  of profiled streams;
* ``add_counted`` keeps per-pair work in a tight local loop and only
  drops into the general ``add`` path around splits and merges;
  ``extend`` is ``add_counted`` at count 1 and ``add_batch`` is
  ``add_counted`` over the sorted pairs.

A merge pass is a plain post-order walk over the whole tree.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import repeat
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .config import MergeScheduler, RapConfig, split_crossing_point
from .node import RapNode, partition_range
from .stats import TreeStats


class RapTree:
    """A range-adaptive profile over the universe ``[0, R-1]``.

    Examples
    --------
    >>> from repro.core import RapConfig, RapTree
    >>> tree = RapTree(RapConfig(range_max=256, epsilon=0.05))
    >>> for value in [3, 3, 3, 7, 200]:
    ...     tree.add(value)
    >>> tree.events
    5
    >>> tree.estimate(0, 255)
    5
    """

    def __init__(self, config: RapConfig) -> None:
        self._config = config
        self._root = RapNode(0, config.range_max - 1)
        self._node_count = 1
        self._events = 0
        self._scheduler = MergeScheduler(
            initial_interval=config.merge_initial_interval,
            growth=config.merge_growth,
        )
        self._stats = TreeStats(sample_every=config.timeline_sample_every)
        # Hoisted constants for the hot update path.
        self._eps_over_height = config.epsilon / config.max_height
        self._min_threshold = config.min_split_threshold
        # Debug hook: self-audit every N events (0 = off).
        self._audit_every = config.audit_every
        self._next_audit = config.audit_every
        # Descent cache: the node the previous update deposited into.
        # Invalidated by merge passes (the only operation that detaches
        # live nodes); splits keep the cached node attached, so the cache
        # survives them.
        self._cached_node: Optional[RapNode] = None
        # Mutation epoch for query-side caches (see repro.core.quantiles).
        # Bumped whenever counters or structure change.
        self._generation = 0
        # Owner confinement (see repro.runtime): when set, only the
        # owning (pid, thread) may mutate this tree. ``None`` means
        # unconfined.
        self._confined_ident: Optional[Tuple[int, int]] = None

    @classmethod
    def from_config(cls, config: RapConfig) -> "RapTree":
        """API v2 constructor: build an empty tree from a configuration.

        The blessed way to construct a tree outside :mod:`repro.core`
        (RAP-LINT011 flags direct ``RapTree(...)`` calls elsewhere); for
        a managed, shardable ingestion surface use
        :class:`repro.runtime.Profiler` instead.

        Dispatches on ``config.backend``: ``"object"`` builds this
        linked-node reference implementation, ``"columnar"`` builds the
        struct-of-arrays kernel from :mod:`repro.core.columnar`. Both
        satisfy the :class:`repro.core.backend.TreeBackend` protocol and
        are observably equivalent; the return type is annotated as
        ``RapTree`` because every caller programs against that surface.
        """
        if cls is RapTree and config.backend == "columnar":
            from .columnar import ColumnarRapTree  # lazy: numpy kernel

            return ColumnarRapTree(config)  # type: ignore[return-value]
        return cls(config)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def config(self) -> RapConfig:
        return self._config

    @property
    def root(self) -> RapNode:
        return self._root

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
        """Epoch counter bumped on every mutation of the profile.

        Query-side caches (e.g. the CDF arrays in
        :mod:`repro.core.quantiles`) key on this to know when their
        derived data is stale without subscribing to tree internals.
        """
        return self._generation

    @property
    def split_threshold(self) -> float:
        """Current value of ``epsilon * n / log_b(R)`` (with floor)."""
        raw = self._eps_over_height * self._events
        return raw if raw > self._min_threshold else self._min_threshold

    def error_bound(self) -> float:
        """Worst-case undercount of any range estimate: ``epsilon * n``."""
        return self._config.epsilon * self._events

    def memory_bytes(self, bits_per_node: int = 128) -> int:
        """Current memory footprint at the paper's 128 bits/node (§4.2).

        For the object backend the model *is* the report — a linked
        Python object graph has no hardware-meaningful byte count. The
        columnar backend reports its real column allocation here
        instead; use :meth:`modeled_memory_bytes` when an analysis
        means the paper's figure regardless of backend.
        """
        return (self._node_count * bits_per_node + 7) // 8

    def modeled_memory_bytes(self, bits_per_node: int = 128) -> int:
        """The paper's memory model, identical across backends (§4.2)."""
        return (self._node_count * bits_per_node + 7) // 8

    # ------------------------------------------------------------------
    # Thread confinement and cloning (runtime hooks)
    # ------------------------------------------------------------------

    def confine_to_current_thread(self) -> None:
        """Restrict mutations to the calling thread *and process*.

        The process executor gives each worker a private tree;
        confinement turns an accidental cross-owner mutation (a data
        race that would silently corrupt counters) into an immediate
        ``RuntimeError``. The owner key is ``(pid, thread ident)``
        because thread idents can collide across processes and a fork
        inherits the parent's marker verbatim. Reads are not
        restricted — snapshot folds walk shard trees from the
        coordinating side while workers are quiesced.
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
                "RapTree is confined to (pid, thread) "
                f"{owner}; mutation attempted from the wrong {kind} "
                f"{here}. Shard trees are single-writer — route events "
                "through the owning worker's queue (see repro.runtime)."
            )

    def clone(self) -> "RapTree":
        """Deep, independent copy of this profile.

        Round-trips through the serializer (which preserves structure,
        counters, merge-schedule state and the full configuration), so
        the clone continues exactly where this tree is — but shares no
        nodes with it. Used by the runtime to snapshot a single-shard
        profile without aliasing the live tree. Statistics timelines are
        not carried over; the clone starts fresh counters for
        splits/merges observed after the clone point.
        """
        from .serialize import dump_tree, load_tree  # lazy: serialize imports tree

        clone = load_tree(dump_tree(self))
        clone._generation = self._generation  # noqa: SLF001 - same class
        return clone

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``.

        The event is routed to the smallest existing range covering it
        and that counter is incremented; a split fires when the counter
        crosses the split threshold, and a batched merge fires whenever
        the schedule says one is due — including *mid-count*, so that a
        counted add is unit-for-unit identical to calling
        ``add(value)`` ``count`` times (Section 3.3's equivalence claim).

        Counted adds *cascade*: the split threshold is re-evaluated for
        every absorbed unit (unit ``m`` of the run sees
        ``threshold(events + m)``), the counter absorbs exactly up to the
        unit whose arrival crosses it, splits, and the remainder descends
        into the new child — exactly what the hardware does by flushing
        the pipeline and re-entering buffered events after a split
        (Section 3.3, stage 0). This keeps combined updates equivalent to
        one-at-a-time arrival, so buffering does not degrade the
        summarization accuracy.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        root = self._root
        if value < 0 or value > root.hi:
            raise ValueError(
                f"value {value} outside universe [0, {root.hi}]"
            )
        self._absorb(self._locate(value), value, count)
        self._generation += 1
        self._stats.observe_update()

        if self._scheduler.due(self._events):
            self.merge_now()

        if self._audit_every and self._events >= self._next_audit:
            while self._next_audit <= self._events:
                self._next_audit += self._audit_every
            self.audit()

    def _locate(self, value: int) -> RapNode:
        """Find the smallest covering node, starting from the cache.

        Walks up from the cached last-hit node to its nearest ancestor
        covering ``value`` (range nesting guarantees the global smallest
        covering node lies below that ancestor), then descends. With no
        cache this is the plain root descent.
        """
        node = self._cached_node
        if node is None:
            node = self._root
        else:
            while value < node.lo or node.hi < value:
                node = node.parent
                assert node is not None, "no covering ancestor in cache walk"
        while True:
            kids = node.children
            if not kids:
                return node
            low, high = 0, len(kids) - 1
            found = None
            while low <= high:
                mid = (low + high) // 2
                kid = kids[mid]
                if value < kid.lo:
                    high = mid - 1
                elif value > kid.hi:
                    low = mid + 1
                else:
                    found = kid
                    break
            if found is None:
                return node
            node = found

    def _absorb(self, node: RapNode, value: int, count: int) -> None:
        """Deposit ``count`` units of ``value`` starting at ``node``.

        Unit-for-unit identical to single adds: instead of looping per
        unit, closed forms give the next *split boundary* (the unit whose
        arrival pushes the counter over its own threshold — see
        :func:`repro.core.config.split_crossing_point`) and the next
        *merge boundary* (the unit that reaches the scheduler's trigger),
        and whole runs up to the nearest boundary are absorbed in one
        step. Splits and mid-count merges then fire exactly where the
        unit-by-unit loop would have fired them.
        """
        remaining = count
        events = self._events
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        scheduler = self._scheduler
        stats = self._stats
        while True:
            # Units until the merge trigger: smallest m with
            # events + m >= next_at, in exact integers (a float
            # ``next_at - events`` rounds once events pass 2**53).
            # Merges are never left overdue, but guard to 1 so a stale
            # schedule cannot wedge the loop.
            next_at = scheduler.next_at
            m_merge = math.ceil(next_at) - events
            if m_merge < 1:
                m_merge = 1
            m = remaining if remaining < m_merge else m_merge

            m_split = 0
            if node.lo != node.hi:
                c0 = node.count
                # Endpoint check: (c0 + j) - threshold(j) grows with j,
                # so if unit m does not cross, no earlier unit does.
                cap_th = eps_h * (events + m)
                if cap_th < min_th:
                    cap_th = min_th
                if c0 + m > cap_th:
                    th1 = eps_h * (events + 1)
                    if th1 < min_th:
                        th1 = min_th
                    if c0 > int(th1):
                        # Counter already over threshold before absorbing
                        # anything (merge churn re-deposited weight):
                        # split without absorbing and push the whole run
                        # down to the covering child.
                        self._split(node)
                        node = node.child_covering(value)
                        assert node is not None, "split left the value uncovered"
                        continue
                    m_split = split_crossing_point(c0, events, eps_h, min_th)
                    if 0 < m_split < m:
                        m = m_split

            node.count += m
            events += m
            remaining -= m
            self._events = events
            split_now = m_split != 0 and m == m_split
            if split_now:
                # The crossing unit always absorbs then splits: its
                # pre-arrival count is at or below int(threshold).
                self._split(node)
            stats.observe_weight(m, self._node_count)

            if events >= next_at:
                self.merge_now()
                if not remaining:
                    return
                # The merge may have collapsed our position; re-descend.
                node = self._locate(value)
            elif not remaining:
                self._cached_node = node
                return
            else:
                # A split boundary was hit with units left: descend.
                node = node.child_covering(value)
                assert node is not None, "split left the value uncovered"

    def extend(self, values: Iterable[int]) -> None:
        """Feed a stream of single events: :meth:`add_counted` at count 1."""
        self.add_counted(zip(values, repeat(1)))

    def add_counted(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed pre-combined ``(value, count)`` pairs in order.

        This is the software analogue of the hardware event buffer that
        combines duplicate events before they reach the RAP engine
        (Section 3.3, stage 0). Order is preserved; the inline fast path
        makes it observably identical to calling :meth:`add` per pair.
        :meth:`add_batch` is this over the value-sorted pairs, whose
        neighbouring values share descents.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        stats = self._stats
        add = self.add
        if stats.sample_every > 0 or self._audit_every:
            for value, count in pairs:
                add(value, count)
            return
        root = self._root
        root_hi = root.hi
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        scheduler = self._scheduler
        events = self._events
        next_at = scheduler.next_at
        node_count = self._node_count
        cache = self._cached_node
        pending_events = 0
        pending_updates = 0
        try:
            for value, count in pairs:
                if count > 0 and 0 <= value <= root_hi:
                    # Finger search: up from the last-hit node to a
                    # covering ancestor, then the usual descent.
                    node = cache
                    if node is None:
                        node = root
                    else:
                        while value < node.lo or node.hi < value:
                            node = node.parent
                    kids = node.children
                    while kids:
                        low, high = 0, len(kids) - 1
                        found = None
                        while low <= high:
                            mid = (low + high) // 2
                            kid = kids[mid]
                            if value < kid.lo:
                                high = mid - 1
                            elif value > kid.hi:
                                low = mid + 1
                            else:
                                found = kid
                                break
                        if found is None:
                            break
                        node = found
                        kids = node.children
                    n = events + count
                    if n < next_at:
                        if node.lo == node.hi:
                            fits = True
                        else:
                            threshold = eps_h * n
                            if threshold < min_th:
                                threshold = min_th
                            fits = node.count + count <= threshold
                        if fits:
                            node.count += count
                            events = n
                            cache = node
                            pending_events += count
                            pending_updates += 1
                            continue
                # Slow path (split or merge due, or an invalid pair):
                # sync deferred state, take the general add, then
                # re-sync the loop-local mirrors.
                self._events = events
                self._cached_node = cache
                if pending_events:
                    stats.observe_batch(
                        pending_events, pending_updates, node_count
                    )
                    pending_events = 0
                    pending_updates = 0
                add(value, count)
                events = self._events
                next_at = scheduler.next_at
                node_count = self._node_count
                cache = self._cached_node
        finally:
            self._events = events
            self._cached_node = cache
            if pending_events:
                stats.observe_batch(pending_events, pending_updates, node_count)
                self._generation += 1

    def add_batch(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Feed ``(value, count)`` pairs, sorted once.

        The batch kernel behind :meth:`add_stream`: exactly
        ``add_counted(sorted(pairs))``. Sorted order makes each finger
        search a short hop through the previous pair's prefix rather
        than a fresh root descent.
        """
        self.add_counted(sorted(pairs))

    def add_stream(self, values: Iterable[int], combine_chunk: int = 0) -> None:
        """Feed a stream, optionally combining duplicates per chunk.

        With ``combine_chunk > 0`` the stream is consumed in chunks of
        that many events; duplicates within a chunk are merged into one
        counted update, mirroring the paper's software advice that "the
        input data should be buffered to some extent and duplicate values
        should be merged together" (Section 3). Each combined chunk goes
        through the :meth:`add_batch` kernel.
        """
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
    # Split
    # ------------------------------------------------------------------

    def _split(self, node: RapNode) -> None:
        """Burst ``node`` into up to ``b`` children (Section 2.2).

        The node keeps its counter; children are created with zero counts
        covering the cells of the deterministic partition of its range.
        Cells already occupied by surviving children (possible after a
        partial merge) are left alone — this is the paper's "identifying
        the new parent of the existing children" case from Section 3.3.
        """
        existing = {(child.lo, child.hi) for child in node.children}
        created = 0
        for lo, hi in partition_range(node.lo, node.hi, self._config.branching):
            if (lo, hi) in existing:
                continue
            node.attach_child(RapNode(lo, hi, count=0))
            created += 1
        self._node_count += created
        self._stats.observe_split()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge_now(self) -> int:
        """Run one batched merge pass; returns the number of nodes removed.

        A bottom-up walk collapses every subtree whose cumulative weight
        is at most the merge threshold into its parent's counter. Because
        weights are summed into the parent (a valid super-range), no
        event is ever lost (Section 2.2, "Merge").

        The walk visits every node once, children before parents
        (reversed pre-order, so no recursion limit on deep universes), and
        reports the pre-merge node count as the nodes it scanned. A child
        at or below the threshold is a leaf by the time its parent is
        reached: every one of its own children weighs no more than it
        does, so they have already collapsed into it.
        """
        if self._confined_ident is not None:
            self._assert_owner()
        threshold = self._config.merge_threshold(self._events)
        before = self._node_count
        weights: Dict[int, int] = {}
        for node in reversed(list(self._root.iter_subtree())):
            total = node.count
            kept = []
            for child in node.children:
                weight = weights.pop(id(child))
                total += weight
                if weight <= threshold:
                    node.count += weight
                    child.parent = None
                    self._node_count -= 1
                else:
                    kept.append(child)
            node.children = kept
            weights[id(node)] = total
        removed = before - self._node_count
        self._stats.observe_merge_batch(removed, nodes_scanned=before)
        self._scheduler.fired(self._events)
        self._cached_node = None
        self._generation += 1
        return removed

    @property
    def merge_scheduler(self) -> MergeScheduler:
        return self._scheduler

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def smallest_covering(self, value: int) -> RapNode:
        """The deepest node whose range covers ``value``."""
        node = self._root
        if not node.covers(value):
            raise ValueError(
                f"value {value} outside universe [0, {node.hi}]"
            )
        while True:
            child = node.child_covering(value)
            if child is None:
                return node
            node = child

    def find_node(self, lo: int, hi: int) -> Optional[RapNode]:
        """The node with exactly the range ``[lo, hi]``, if present."""
        node = self._root
        while True:
            if node.lo == lo and node.hi == hi:
                return node
            child = node.child_covering(lo)
            if child is None or child.hi < hi:
                return None
            node = child

    def estimate(self, lo: int, hi: int) -> int:
        """Lower-bound estimate of events that fell in ``[lo, hi]``.

        Sums the counters of every node whose range is fully contained in
        the query. Counts recorded on coarser ancestors are excluded,
        which is what makes the estimate a guaranteed lower bound with
        undercount at most ``epsilon * n`` (Section 2.2).
        """
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.lo > hi or node.hi < lo:
                continue
            if lo <= node.lo and node.hi <= hi:
                total += node.subtree_weight()
                continue
            stack.extend(node.children)
        return total

    def estimate_upper(self, lo: int, hi: int) -> int:
        """Upper-bound estimate: adds counters of partially covering nodes."""
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.lo > hi or node.hi < lo:
                continue
            if lo <= node.lo and node.hi <= hi:
                total += node.subtree_weight()
                continue
            total += node.count
            stack.extend(node.children)
        return total

    def nodes(self) -> Iterator[RapNode]:
        """Pre-order iteration over every node in the tree."""
        return self._root.iter_subtree()

    def leaves(self) -> Iterator[RapNode]:
        """Iteration over childless nodes."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def total_weight(self) -> int:
        """Sum of all counters; always equals :attr:`events`."""
        return self._root.subtree_weight()

    def depth(self) -> int:
        """Height of the tree (root alone has depth 0)."""
        best = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > best:
                best = depth
            stack.extend((child, depth + 1) for child in node.children)
        return best

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """Run the full structural auditor; raise ``AuditError`` if dirty.

        This is the ``config.audit_every`` debug hook, also callable
        directly. The heavyweight sibling of :meth:`check_invariants`:
        it additionally verifies split-threshold discipline, the merge
        schedule and the theoretical node budget (see
        :mod:`repro.checks.invariants`).
        """
        # Imported lazily: repro.checks imports this module.
        from ..checks.audit import TreeAuditor

        TreeAuditor().audit(self).raise_if_failed()

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any structural invariant is broken.

        Used by the test suite after randomized operation sequences:

        * children are sorted, disjoint cells of their parent's partition;
        * parent pointers are consistent;
        * all counters are non-negative and sum to ``events``;
        * the cached node count matches the actual tree size.
        """
        seen = 0
        weight = 0
        stack = [self._root]
        branching = self._config.branching
        while stack:
            node = stack.pop()
            seen += 1
            weight += node.count
            assert node.count >= 0, f"negative counter at {node!r}"
            assert node.lo <= node.hi, f"empty range at {node!r}"
            if node.children:
                cells = set(partition_range(node.lo, node.hi, branching))
                previous_hi = node.lo - 1
                for child in node.children:
                    assert child.parent is node, "broken parent pointer"
                    assert (child.lo, child.hi) in cells, (
                        f"child [{child.lo}, {child.hi}] is not a partition "
                        f"cell of [{node.lo}, {node.hi}]"
                    )
                    assert child.lo > previous_hi, "children overlap/unsorted"
                    previous_hi = child.hi
                stack.extend(node.children)
        assert seen == self._node_count, (
            f"cached node_count {self._node_count} != actual {seen}"
        )
        assert weight == self._events, (
            f"tree weight {weight} != events {self._events}"
        )

    def __len__(self) -> int:
        return self._node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RapTree(R={self._config.range_max}, "
            f"eps={self._config.epsilon}, nodes={self._node_count}, "
            f"events={self._events})"
        )
