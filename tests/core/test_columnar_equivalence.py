"""Property-style equivalence sweep: columnar backend vs object backend.

The columnar kernel (:mod:`repro.core.columnar`) promises *exact
observational equivalence* with the object tree: identical operation
sequences must produce byte-identical ``dump_tree`` output — same
splits, same merge batches, same counters — for any workload shape.
This sweep drives both backends through zipf/uniform/phased raw streams
and pre-combined counted updates at eps ∈ {1e-2, 1e-3}, then checks

* ``dump_tree`` identity (serialization-level equivalence),
* event totals and merge-scheduler state,
* ``check_invariants()`` on the columnar structure itself, and
* a clean :class:`~repro.checks.audit.TreeAuditor` report on columnar.

``tests/core/test_tree_fastpath.py`` pins the object tree to the
reference oracle; this file pins columnar to the object tree, closing
the chain back to the oracle.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.checks.audit import TreeAuditor
from repro.core import RapConfig, RapTree, dump_tree, load_tree

UNIVERSE = 2**20


def zipf_stream(rng: random.Random, n: int) -> list:
    return [int(rng.paretovariate(1.2)) % UNIVERSE for _ in range(n)]


def uniform_stream(rng: random.Random, n: int) -> list:
    return [rng.randrange(UNIVERSE) for _ in range(n)]


def phased_stream(rng: random.Random, n: int) -> list:
    """Locality phases: the stream camps in one narrow window at a time."""
    values = []
    remaining = n
    while remaining:
        span = min(remaining, rng.randint(200, 800))
        base = rng.randrange(UNIVERSE - 1024)
        values.extend(base + rng.randrange(1024) for _ in range(span))
        remaining -= span
    return values


STREAMS = {
    "zipf": zipf_stream,
    "uniform": uniform_stream,
    "phased": phased_stream,
}


def stable_seed(*parts) -> int:
    """Deterministic across processes — ``hash()`` on strings is not."""
    return zlib.crc32("|".join(map(str, parts)).encode())


def both_trees(epsilon: float):
    config = RapConfig(UNIVERSE, epsilon=epsilon, merge_initial_interval=512)
    return (
        RapTree.from_config(config.with_updates(backend="object")),
        RapTree.from_config(config.with_updates(backend="columnar")),
    )


def assert_equivalent(obj: RapTree, col: RapTree) -> None:
    assert obj.events == col.events
    assert obj.node_count == col.node_count
    assert obj.merge_scheduler.next_at == col.merge_scheduler.next_at
    dump_obj, dump_col = dump_tree(obj), dump_tree(col)
    assert dump_obj == dump_col
    col.check_invariants()
    TreeAuditor().audit(col).raise_if_failed()
    # The serialized form must round-trip regardless of the backend that
    # produced it (the backend is a runtime knob, never serialized).
    assert dump_tree(load_tree(dump_col)) == dump_obj


class TestStreamEquivalence:
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    @pytest.mark.parametrize("workload", sorted(STREAMS))
    def test_extend_equivalence(self, workload, epsilon):
        rng = random.Random(stable_seed(workload, epsilon))
        values = STREAMS[workload](rng, 6_000)
        obj, col = both_trees(epsilon)
        obj.extend(values)
        col.extend(values)
        assert_equivalent(obj, col)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    @pytest.mark.parametrize("workload", sorted(STREAMS))
    def test_counted_equivalence(self, workload, epsilon):
        """Pre-combined (value, count) updates, in arrival order."""
        rng = random.Random(stable_seed(workload, epsilon, "counted"))
        pairs = [
            (value, rng.randint(1, 25))
            for value in STREAMS[workload](rng, 2_500)
        ]
        obj, col = both_trees(epsilon)
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert_equivalent(obj, col)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_batch_equivalence(self, epsilon):
        """add_batch (value-sorted counted ingest) on a zipf profile."""
        rng = random.Random(int(1 / epsilon))
        pairs = [(value, rng.randint(1, 9)) for value in zipf_stream(rng, 3_000)]
        obj, col = both_trees(epsilon)
        for at in range(0, len(pairs), 512):
            obj.add_batch(pairs[at:at + 512])
            col.add_batch(pairs[at:at + 512])
        assert_equivalent(obj, col)


class TestMixedOperations:
    """Randomized interleavings of add/extend/add_counted/add_batch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_operation_equivalence(self, seed):
        rng = random.Random(seed)
        epsilon = rng.choice([1e-2, 1e-3])
        obj, col = both_trees(epsilon)
        for _ in range(rng.randint(4, 8)):
            kind = rng.choice(["add", "extend", "add_counted", "add_batch"])
            if kind == "add":
                value, count = rng.randrange(UNIVERSE), rng.randint(1, 50)
                obj.add(value, count)
                col.add(value, count)
            elif kind == "extend":
                workload = rng.choice(sorted(STREAMS))
                values = STREAMS[workload](rng, rng.randint(100, 1_500))
                obj.extend(values)
                col.extend(values)
            else:
                pairs = [
                    (rng.randrange(UNIVERSE), rng.randint(1, 20))
                    for _ in range(rng.randint(50, 800))
                ]
                getattr(obj, kind)(pairs)
                getattr(col, kind)(pairs)
        assert_equivalent(obj, col)


class TestCoherenceUnderChurn:
    """Mutation-generation coherence of the single-copy columnar layout.

    The contiguous kernel keeps exactly one copy of every column, so
    there is no mirror to refresh — but every *derived* structure (the
    materialized node view, the cover index, query-side caches keyed on
    ``mutation_generation``) must still track mutations exactly. These
    tests interleave every mutating operation with dump/estimate reads
    so a stale view or a skipped generation bump shows up as a direct
    divergence from the object backend.
    """

    def test_mutation_generation_bumps_and_views_track(self):
        rng = random.Random(stable_seed("coherence"))
        obj, col = both_trees(1e-2)
        # Mirror every op onto both trees with identical inputs.
        for step in range(12):
            kind = rng.choice(["add", "extend", "add_counted", "add_batch"])
            if kind == "add":
                value, count = rng.randrange(UNIVERSE), rng.randint(1, 60)
                inputs = [(value, count)]
            else:
                inputs = [
                    (rng.randrange(UNIVERSE), rng.randint(1, 12))
                    for _ in range(rng.randint(64, 500))
                ]
            before = col.mutation_generation
            if kind == "add":
                obj.add(value, count)
                col.add(value, count)
            elif kind == "extend":
                values = [value for value, _ in inputs]
                obj.extend(values)
                col.extend(values)
            else:
                getattr(obj, kind)(inputs)
                getattr(col, kind)(inputs)
            assert col.mutation_generation > before, (
                f"{kind} did not bump mutation_generation"
            )
            # Reads between mutations must reflect the newest state:
            # a stale cached view would reproduce the previous epoch.
            assert dump_tree(col) == dump_tree(obj)
            for _ in range(4):
                lo = rng.randrange(UNIVERSE)
                hi = rng.randrange(lo, UNIVERSE)
                assert col.estimate(lo, hi) == obj.estimate(lo, hi)
                assert col.estimate_upper(lo, hi) == obj.estimate_upper(lo, hi)
            assert col.total_weight() == col.events
        before = col.mutation_generation
        obj.merge_now()
        col.merge_now()
        assert col.mutation_generation > before
        assert_equivalent(obj, col)

    def test_free_list_churn_split_merge_free_realloc_cycles(self):
        """Camp/collapse cycles: slots split into existence, merge back
        onto the free stack, and get recycled by the next camp.

        Each cycle camps the stream in a fresh narrow window (forcing
        split cascades and fresh allocations), then fires an explicit
        merge pass (collapsing the previous camp and freeing its slots).
        The columnar tree must stay dump-identical to the object tree
        through every cycle while its free list actually churns.
        """
        rng = random.Random(stable_seed("churn"))
        obj, col = both_trees(1e-2)
        saw_free_slots = False
        saw_reuse = False
        for cycle in range(6):
            base = rng.randrange(UNIVERSE - 2048)
            values = [base + rng.randrange(512) for _ in range(2_000)]
            free_before = col._free_top  # noqa: SLF001 - churn probe
            obj.extend(values)
            col.extend(values)
            if col._free_top < free_before:  # noqa: SLF001 - churn probe
                saw_reuse = True
            obj.merge_now()
            col.merge_now()
            if col._free_top > 0:  # noqa: SLF001 - churn probe
                saw_free_slots = True
            assert_equivalent(obj, col)
        assert saw_free_slots, "merge passes never freed a slot"
        assert saw_reuse, "allocation never reused a freed slot"


class TestExtremeCounts:
    """Exact split decisions for counters above 2**53.

    float64 cannot represent 2**53 + 1, so comparing a counter total of
    2**53 + 1 as a double rounds it down to 2**53 and wrongly keeps it
    at a threshold of exactly 2**53. The compiled kernel
    (``core/_kernel.c``) compares integers against the double threshold
    exactly, as CPython does: it holds the integer side in 128 bits and
    compares it against ``floor``/``ceil`` of the threshold, so the
    columnar tree must agree with the object backend's unbounded-int
    arithmetic at any magnitude.
    """

    def _trees(self):
        config = RapConfig(
            UNIVERSE,
            epsilon=1e-6,
            min_split_threshold=float(2**53),
            merge_initial_interval=2**62,
        )
        return (
            RapTree.from_config(config.with_updates(backend="object")),
            RapTree.from_config(config.with_updates(backend="columnar")),
        )

    def test_fit_mask_exact_at_2_53_boundary(self):
        """A counted batch whose running total lands on 2**53 + 1 —
        one past the largest odd float64 integer — must split exactly
        where the object backend splits."""
        obj, col = self._trees()
        pairs = [(200_000, 2**53 - 63)] + [
            (100 if i % 2 else 300_000, 1) for i in range(64)
        ]
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert obj.events == 2**53 + 1
        assert_equivalent(obj, col)

    def test_fit_mask_exact_below_boundary_no_split(self):
        """The same batch one deposit short stays below the threshold on
        both backends (guards against the fix over-flooring)."""
        obj, col = self._trees()
        pairs = [(200_000, 2**53 - 64)] + [
            (100 if i % 2 else 300_000, 1) for i in range(64)
        ]
        obj.add_counted(pairs)
        col.add_counted(pairs)
        assert obj.events == 2**53
        assert_equivalent(obj, col)
