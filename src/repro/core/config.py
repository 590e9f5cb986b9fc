"""Configuration for Range Adaptive Profiling trees.

The paper exposes three user-facing knobs:

* ``epsilon`` — the error parameter. For any range, the estimate produced
  by RAP undercounts the true count by at most ``epsilon * n`` where ``n``
  is the number of events processed so far (Section 2.2).
* ``branching`` — the branching factor ``b`` used by split operations.
  The paper settles on ``b = 4`` as the best trade-off between memory and
  convergence speed (Section 3.1, Figure 2).
* ``merge_growth`` — the ratio ``q`` by which the interval between batched
  merges grows. The paper finds ``q = 2`` (doubling) most cost effective
  (Section 3.1, Figures 2 and 3).

Everything else here is an engineering constant that the paper leaves
implicit; defaults follow the paper's hardware implementation where one is
described (e.g. the first merge batch happens after about a thousand
events, Section 3.3).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field, replace


@dataclass(frozen=True)
class RapConfig:
    """Immutable parameter set for a :class:`~repro.core.tree.RapTree`.

    Every field except ``range_max`` is keyword-only (the API v2
    contract): tuning knobs are named at every call site, so adding a
    knob can never silently reinterpret a positional argument.

    Parameters
    ----------
    range_max:
        Size ``R`` of the event universe. Events must be integers in
        ``[0, range_max - 1]``. The root of the RAP tree covers exactly
        this range.
    epsilon:
        Error parameter in ``(0, 1]``. Estimates undercount any range by
        at most ``epsilon * n``.
    branching:
        Branching factor ``b >= 2`` used when a node splits.
    merge_initial_interval:
        Number of events before the first batched merge.
    merge_growth:
        Factor ``q > 1`` by which the merge interval grows after every
        batch (``q = 2`` doubles it, as in the paper).
    min_split_threshold:
        Floor applied to the split threshold so that very short streams do
        not burst every counter on its first event. ``1.0`` means a node
        must count at least two events before it may split.
    timeline_sample_every:
        If positive, the tree records ``(events, node_count)`` samples
        every this many events (used to regenerate Figure 6). ``0``
        disables timeline recording.
    audit_every:
        If positive, the tree runs the full structural
        :class:`~repro.checks.audit.TreeAuditor` every this many events
        and raises :class:`~repro.checks.audit.AuditError` on the first
        violated invariant. A debug hook — it walks the whole tree, so
        keep it off (``0``, the default) outside tests and bug hunts.
    backend:
        Which tree kernel :meth:`RapTree.from_config` constructs:
        ``"columnar"`` (the default: the struct-of-arrays kernel in
        :mod:`repro.core.columnar`, whose update and bootstrap kernels
        are C compiled with gcc on first use) or ``"object"`` (the linked
        ``RapNode`` graph: the reference implementation, which needs no
        compiler). The two are observably equivalent — identical
        serialized trees for identical operation sequences — so this is
        purely a performance knob; it is construction-time only and never
        serialized. A :class:`~repro.runtime.profiler.Profiler` runs
        columnar shard trees only and rejects ``"object"``.
    executor:
        Which runtime a :class:`~repro.runtime.profiler.Profiler` built
        from this config uses to drive its shards: ``"serial"`` (the
        default: each shard's combining window flushed inline on the
        calling thread — the oracle) or ``"process"`` (one worker
        process per shard, each owning a columnar tree on its own heap
        and fed through a shared-memory ring). Like ``backend`` it
        selects an observably-equivalent engine, is construction-time
        only, and is never serialized.
    shards:
        How many shard trees that profiler partitions the stream
        across (``>= 1``). Construction-time only, never serialized.
    debug_sanitize:
        If true, a :class:`~repro.checks.sanitizer.RapSanitizer` is
        attached to every :class:`~repro.runtime.profiler.Profiler`
        built from this config: in-process shard trees assert on every
        mutating call that the ingest lock is held (worker-process
        trees assert their owner thread), lock traffic goes into a
        happens-before log, and any confinement or lock-discipline
        violation raises immediately with the recorded event trail. A
        debug hook — it adds a per-call bookkeeping cost, so keep it
        off (the default) outside tests and race hunts. Like
        ``backend`` it is construction-time only and never serialized.
    """

    range_max: int
    _: KW_ONLY
    epsilon: float = 0.01
    branching: int = 4
    merge_initial_interval: int = 1024
    merge_growth: float = 2.0
    min_split_threshold: float = 1.0
    timeline_sample_every: int = 0
    audit_every: int = 0
    backend: str = "columnar"
    executor: str = "serial"
    shards: int = 1
    debug_sanitize: bool = False

    def __post_init__(self) -> None:
        if self.range_max < 2:
            raise ValueError(f"range_max must be >= 2, got {self.range_max}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if self.merge_initial_interval < 1:
            raise ValueError(
                "merge_initial_interval must be >= 1, got "
                f"{self.merge_initial_interval}"
            )
        if self.merge_growth <= 1.0:
            raise ValueError(
                f"merge_growth must be > 1, got {self.merge_growth}"
            )
        if self.min_split_threshold < 0.0:
            raise ValueError(
                "min_split_threshold must be >= 0, got "
                f"{self.min_split_threshold}"
            )
        if self.timeline_sample_every < 0:
            raise ValueError(
                "timeline_sample_every must be >= 0, got "
                f"{self.timeline_sample_every}"
            )
        if self.audit_every < 0:
            raise ValueError(
                f"audit_every must be >= 0, got {self.audit_every}"
            )
        if self.backend not in ("object", "columnar"):
            raise ValueError(
                "backend must be 'object' or 'columnar', got "
                f"{self.backend!r}"
            )
        if self.executor not in ("serial", "process"):
            raise ValueError(
                "executor must be 'serial' or 'process', got "
                f"{self.executor!r}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @property
    def max_height(self) -> int:
        """Maximum possible height of the tree, ``ceil(log_b(R))``.

        This is the ``log(R)`` term in the paper's split threshold
        ``epsilon * n / log(R)``: the deepest chain of ranges from the
        root down to a single item.
        """
        return max_tree_height(self.range_max, self.branching)

    def split_threshold(self, events: int) -> float:
        """The paper's ``SplitThreshold = epsilon * n / log(R)``.

        Any node whose own counter exceeds this value is burst into
        ``branching`` children. The same value is used as the merge
        threshold (Section 3.3, stage 4: "the split and merge thresholds
        can be the same, hence just one computation and one register is
        sufficient").
        """
        raw = self.epsilon * events / self.max_height
        if raw < self.min_split_threshold:
            return self.min_split_threshold
        return raw

    def merge_threshold(self, events: int) -> float:
        """Merge threshold; equal to the split threshold (Section 3.3)."""
        return self.split_threshold(events)

    def with_updates(self, **changes: object) -> "RapConfig":
        """Return a copy of this configuration with fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


def split_crossing_point(
    count: int,
    events: int,
    eps_over_height: float,
    floor: float,
) -> int:
    """Smallest ``m >= 1`` whose arrival pushes a counter over threshold.

    A counter holding ``count`` at event total ``events`` receives units
    one at a time; the ``m``-th unit sees the threshold
    ``max(eps_over_height * (events + m), floor)``. This returns the
    first ``m`` with ``count + m > threshold(events + m)`` — i.e. the
    unit whose arrival makes the counter split under the one-at-a-time
    arrival semantics of Section 3.3. Both the software batch kernel and
    the hardware pipeline model use this to absorb whole runs of events
    in one step while staying unit-for-unit identical to single adds.

    Returns ``0`` when no such unit exists (``eps_over_height >= 1``:
    the threshold grows at least as fast as the counter, and a counter
    never exceeds the event total).

    The closed-form guess from the linear part is corrected by ±1 fixup
    loops evaluated against the exact float predicate, so the result
    matches what a unit-by-unit loop would compute, float rounding
    included.
    """
    if eps_over_height >= 1.0:
        return 0
    # Linear-part estimate: count + m > eps_over_height * (events + m).
    guess = int((eps_over_height * events - count) / (1.0 - eps_over_height)) + 1
    # The floor can dominate the linear term: count + m > floor too.
    floor_guess = int(floor) + 1 - count
    if floor_guess > guess:
        guess = floor_guess
    if guess < 1:
        guess = 1

    def _crosses(m: int) -> bool:
        threshold = eps_over_height * (events + m)
        if threshold < floor:
            threshold = floor
        return count + m > threshold

    while guess > 1 and _crosses(guess - 1):
        guess -= 1
    while not _crosses(guess):
        guess += 1
    return guess


def max_tree_height(range_max: int, branching: int) -> int:
    """Number of b-ary refinements needed to reach single items.

    ``ceil(log_b(range_max))``, but computed with integer arithmetic so
    that huge universes (2**64 and beyond) are exact — ``math.log`` on
    floats misrounds near power boundaries.
    """
    if range_max < 2:
        return 1
    height = 0
    reach = 1
    while reach < range_max:
        reach *= branching
        height += 1
    return height


def bits_for_range(range_max: int) -> int:
    """Number of bits needed to address the universe ``[0, range_max-1]``."""
    return max(1, (range_max - 1).bit_length())


@dataclass
class MergeScheduler:
    """Decides *when* batched merges fire (Section 3.1, Figure 3).

    Merges are performed periodically with exponentially growing spacing:
    the first batch fires once ``initial_interval`` events have been
    processed, and after every batch the trigger point is multiplied by
    ``growth`` (the paper's ``q``). The paper shows that with ``q = 2``
    profiling ``2**32`` events needs only ``32 - 10 = 22`` batches.
    """

    initial_interval: int = 1024
    growth: float = 2.0
    next_at: float = field(init=False)
    batches_fired: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.initial_interval < 1:
            raise ValueError(
                f"initial_interval must be >= 1, got {self.initial_interval}"
            )
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        self.next_at = float(self.initial_interval)

    def due(self, events: int) -> bool:
        """True when a merge batch should fire at this event count."""
        return events >= self.next_at

    def fired(self, events: int) -> None:
        """Advance the schedule after a batch has been performed.

        The trigger grows geometrically; if processing jumped far past the
        trigger (large counted adds), keep multiplying so the *next*
        trigger is strictly in the future.
        """
        self.batches_fired += 1
        while self.next_at <= events:
            self.next_at *= self.growth

    def schedule_preview(self, max_events: int) -> list:
        """Trigger points strictly inside a stream of ``max_events``.

        A batch due exactly at end-of-stream never fires, which makes the
        count match the paper's arithmetic: 2**32 events with the first
        batch at 2**10 gives ``32 - 10 = 22`` batches (Section 3.3).
        """
        points = []
        at = float(self.initial_interval)
        while at < max_events:
            points.append(int(at))
            at *= self.growth
        return points
