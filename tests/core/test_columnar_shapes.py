"""Extreme tree shapes the contiguous columnar layout must survive.

The flat-array kernel recycles slots through a free stack, grows every
column by doubling, and rebuilds sibling chains wholesale during merge
passes. The shapes here stress exactly those mechanisms: degenerate
fanout-1 chains (merge passes that strip every sibling), growth to the
capacity boundary followed by a near-total collapse (mass free) and
continued ingest (reallocation from the free stack), and ``clone()``
of a thread-confined tree with the runtime race sanitizer attached.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.checks.audit import TreeAuditor
from repro.core import RapConfig, RapTree, dump_tree
from repro.runtime import Profiler

UNIVERSE = 2**20


def columnar(**overrides) -> RapTree:
    base = dict(epsilon=0.05, backend="columnar")
    base.update(overrides)
    return RapTree.from_config(RapConfig(UNIVERSE, **base))


def both(**overrides):
    base = dict(epsilon=0.05)
    base.update(overrides)
    config = RapConfig(UNIVERSE, **base)
    return (
        RapTree.from_config(config.with_updates(backend="object")),
        RapTree.from_config(config.with_updates(backend="columnar")),
    )


def assert_equivalent(obj: RapTree, col: RapTree) -> None:
    assert obj.events == col.events
    assert obj.node_count == col.node_count
    assert dump_tree(obj) == dump_tree(col)
    col.check_invariants()
    TreeAuditor().audit(col).raise_if_failed()


class TestFanoutOneChains:
    def test_single_value_hammer_leaves_a_chain(self):
        """Hammering one value then merging strips every zero-weight
        sibling, leaving a spine of fanout-1 nodes — the worst case for
        the sibling-chain columns (every chain has length one)."""
        obj, col = both(merge_initial_interval=256)
        value = 0xBEEF0
        for _ in range(8):
            obj.extend([value] * 600)
            col.extend([value] * 600)
        obj.merge_now()
        col.merge_now()
        chain_nodes = [
            node for node in col.nodes() if len(node.children) == 1
        ]
        assert len(chain_nodes) >= 3, (
            "expected a fanout-1 spine after stripping zero-weight "
            f"siblings, got node_count={col.node_count}"
        )
        assert_equivalent(obj, col)

    def test_chain_survives_further_ingest_and_queries(self):
        """Descents, splits and merges through a degenerate chain must
        keep behaving: follow the hammer phase with scattered ingest."""
        rng = random.Random(0xC4A1)
        obj, col = both(merge_initial_interval=256)
        value = 0xBEEF0
        obj.extend([value] * 4_000)
        col.extend([value] * 4_000)
        obj.merge_now()
        col.merge_now()
        scattered = [rng.randrange(UNIVERSE) for _ in range(3_000)]
        obj.extend(scattered)
        col.extend(scattered)
        assert col.estimate(value, value) == obj.estimate(value, value)
        assert col.depth() == max(n.depth for n in obj.nodes())
        assert_equivalent(obj, col)


class TestGrowthBoundaryAndMassFree:
    def test_grow_to_capacity_boundary_then_merge_back_then_realloc(self):
        """Grow past several capacity doublings, collapse nearly the
        whole tree in one merge pass, keep ingesting.

        After the collapse the free stack holds most of the column
        space; continued ingest must recycle those slots instead of
        growing, and the tree must stay dump-identical to the object
        backend through all three phases.
        """
        rng = random.Random(0x60A7)
        obj, col = both(
            epsilon=0.01,
            merge_initial_interval=10**9,  # defer merging to the test
        )
        # Phase 1: splits everywhere — repeated values across the whole
        # universe push node_count past the 64-slot initial capacity
        # several doublings over.
        values = [rng.randrange(UNIVERSE) for _ in range(2_000)]
        stream = values * 5
        obj.extend(stream)
        col.extend(stream)
        peak = col.node_count
        assert peak > 512, f"workload too small to stress growth: {peak}"
        assert col._capacity >= 1024  # noqa: SLF001 - growth-boundary probe
        capacity_at_peak = col._capacity  # noqa: SLF001 - growth-boundary probe
        assert_equivalent(obj, col)

        # Phase 2: one huge counted add inflates n (and with it the
        # merge threshold) so the next pass collapses every cold camp;
        # only the hot value's spine and the root survive.
        obj.add(0, 10**7)
        col.add(0, 10**7)
        obj.merge_now()
        col.merge_now()
        assert col.node_count < peak // 8, (
            f"merge pass kept {col.node_count} of {peak} nodes"
        )
        freed = col._free_top  # noqa: SLF001 - mass-free probe
        assert freed > peak // 2, "free stack did not absorb the collapse"
        assert_equivalent(obj, col)

        # Phase 3: regrow — allocation must come from the free stack,
        # not fresh capacity. The merge threshold now sits near
        # eps * 10**7 / height, so regrowth needs concentrated weight:
        # heavy counted deposits that cross it and split spines.
        regrow = [
            (rng.randrange(UNIVERSE), 50_000) for _ in range(40)
        ]
        obj.add_counted(regrow)
        col.add_counted(regrow)
        assert col._free_top < freed  # noqa: SLF001 - realloc probe
        assert col._capacity == capacity_at_peak  # noqa: SLF001 - realloc probe
        assert_equivalent(obj, col)


class TestCloneUnderConfinement:
    def test_clone_of_confined_tree_from_another_thread(self):
        """A shard tree confined to its owner (as a process-executor
        worker confines its own) must still clone from a foreign
        thread: cloning the flat arrays is a read and must succeed; the
        clone must be unconfined, independent, and state-identical."""
        tree = columnar()
        errors = []

        def worker():
            try:
                tree.confine_to_current_thread()
                tree.extend([7, 7, 7, 9000, 9000] * 500)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert not errors
        # The original is still confined to the (dead) worker thread.
        with pytest.raises(RuntimeError, match="confined"):
            tree.add(1)
        snapshot = tree.clone()
        assert dump_tree(snapshot) == dump_tree(tree)
        # The clone is unconfined and fully independent.
        snapshot.add(12345, 10)
        assert snapshot.events == tree.events + 10
        assert tree.estimate(12345, 12345) == 0
        snapshot.check_invariants()

    def test_sanitized_profiler_snapshot_over_columnar_shards(self):
        """End-to-end: lock-guarded columnar shard trees under the race
        sanitizer, snapshot folds (clone path) included, no violations."""
        rng = random.Random(0x5A71)
        values = [rng.randrange(UNIVERSE) for _ in range(4_000)]
        config = RapConfig(
            UNIVERSE, epsilon=0.05, backend="columnar", debug_sanitize=True
        )
        with Profiler(config, shards=4) as profiler:
            profiler.ingest(values[:2_000])
            mid = profiler.snapshot()
            profiler.ingest(values[2_000:])
        final = profiler.snapshot()
        assert mid.events == 2_000
        assert final.events == 4_000
        assert profiler.sanitizer is not None
        assert profiler.sanitizer.violations == ()
        final.check_invariants()
