"""``ShmArena``: the slab allocator under every shared-memory column.

The arena hands out regions without writing to them: their zeros come
from ``ftruncate`` on a fresh segment, and a bump region is never
handed out twice. These tests pin that contract directly (first
allocation and grow-remap read zero), plus the segment lifecycle the
process executor's leak checks rely on: a vacated slab is unlinked at
once and closed only by ``reap_retired``, ``close()`` leaves nothing
under the arena's prefix, and ``sweep_prefix`` reclaims orphans.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.runtime.shm import ShmArena, ShmAttachment, sweep_prefix

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="needs a /dev/shm view of POSIX shm"
)


@pytest.fixture
def prefix():
    name = f"rap-test-{os.getpid():x}-{os.urandom(3).hex()}-"
    yield name
    sweep_prefix(name)


def entries(prefix: str) -> list:
    return sorted(
        entry for entry in os.listdir(SHM_DIR) if entry.startswith(prefix)
    )


class TestZeroedRegions:
    def test_columns_read_zero_on_first_allocation(self, prefix):
        arena = ShmArena(prefix)
        try:
            columns = {
                name: arena.allocate(name, dtype, 1000)
                for name, dtype in (
                    ("lo", np.uint64),
                    ("count", np.int64),
                    ("depth", np.int8),
                    ("weight", np.float64),
                )
            }
            for name, column in columns.items():
                assert len(column) == 1000, name
                assert not column.any(), name
                column[:] = 7  # neighbours must not see these writes
            extra = arena.allocate("extra", np.int64, 500)
            assert not extra.any()
        finally:
            arena.close()

    def test_grow_remap_reads_zero_past_the_copied_prefix(self, prefix):
        arena = ShmArena(prefix)
        try:
            old = arena.allocate("count", np.int64, 100)
            old[:] = np.arange(1, 101)
            # Fill the first slab so the grow lands in a new one.
            filler = arena.allocate("filler", np.uint8, (1 << 18) - 1024)
            filler[:] = 0xFF
            slabs_before = entries(prefix)
            new = arena.allocate("count", np.int64, 50_000)
            assert entries(prefix) != slabs_before, "expected a new slab"
            new[:100] = old  # the caller's grow-copy
            assert np.array_equal(new[:100], np.arange(1, 101))
            assert not new[100:].any()
            # A grow that fits the current slab takes a fresh region of
            # it: zero past the prefix too, old region left behind.
            small = arena.allocate("small", np.int64, 10)
            small[:] = -1
            slabs_before = entries(prefix)
            grown = arena.allocate("small", np.int64, 1000)
            assert entries(prefix) == slabs_before, "expected no new slab"
            grown[:10] = small
            assert (grown[:10] == -1).all()
            assert not grown[10:].any()
        finally:
            arena.close()


class TestSegmentLifecycle:
    def test_vacated_slab_is_unlinked_at_once_and_closed_by_reap(
        self, prefix
    ):
        arena = ShmArena(prefix)
        try:
            first = arena.allocate("count", np.int64, 1000)
            first[:] = 3
            first_slab = arena.segment_table()["count"][0]
            assert entries(prefix) == [first_slab]
            grown = arena.allocate("count", np.int64, 1 << 16)
            # The old slab is gone from /dev/shm as soon as its last
            # column moved out, yet still mapped for the grow-copy.
            assert first_slab not in entries(prefix)
            grown[:1000] = first
            assert int(grown[:1000].sum()) == 3000
            retired = list(arena._retired)  # noqa: SLF001 - lifecycle probe
            assert [segment.name for segment in retired] == [first_slab]
            del first
            arena.reap_retired()
            assert arena._retired == []  # noqa: SLF001 - lifecycle probe
            assert retired[0].buf is None  # closed: mapping released
        finally:
            arena.close()

    def test_close_leaves_nothing_under_the_prefix(self, prefix):
        arena = ShmArena(prefix)
        columns = [
            arena.allocate(f"c{index}", np.int64, 1 << (10 + index))
            for index in range(8)
        ]
        columns.append(arena.allocate("c0", np.int64, 1 << 19))
        assert len(entries(prefix)) >= 2
        attachment = ShmAttachment(arena.segment_table())
        assert set(attachment.arrays) == {f"c{i}" for i in range(8)}
        attachment.close()
        arena.close()
        assert entries(prefix) == []
        arena.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            arena.allocate("late", np.int64, 8)

    def test_sweep_prefix_removes_orphans_and_names_them(self, prefix):
        arena = ShmArena(prefix)
        arena.allocate("count", np.int64, 1000)
        arena.allocate("big", np.int64, 1 << 16)
        # A crashed owner never unlinks: model it by abandoning the
        # arena without close().
        orphans = entries(prefix)
        assert len(orphans) == 2
        # Another profiler's namespace is not this sweep's business.
        other_prefix = prefix[:-1] + "x-"
        other = ShmArena(other_prefix)
        try:
            other.allocate("count", np.int64, 8)
            assert sorted(sweep_prefix(prefix)) == orphans
            assert entries(prefix) == []
            assert len(entries(other_prefix)) == 1
            assert sweep_prefix(prefix) == []
        finally:
            other.close()
            arena.close()
        assert entries(other_prefix) == []
