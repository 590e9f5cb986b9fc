"""``ShmArena``: the segments under the process executor's rings.

The arena hands out regions without writing to them: each is a fresh
segment, whose zeros come from ``ftruncate``. These tests pin that
contract directly, plus the segment lifecycle the process executor's
leak checks rely on: ``close()`` leaves nothing under the arena's
prefix, and ``sweep_prefix`` reclaims orphans.
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
            assert entries(prefix) == sorted(
                prefix + name for name in (*columns, "extra")
            )
        finally:
            arena.close()


class TestSegmentLifecycle:
    def test_close_leaves_nothing_under_the_prefix(self, prefix):
        arena = ShmArena(prefix)
        columns = [
            arena.allocate(f"c{index}", np.int64, 1 << (10 + index))
            for index in range(8)
        ]
        columns[3][:] = np.arange(columns[3].size)
        assert len(entries(prefix)) == 8
        attachment = ShmAttachment(arena.segment_table())
        assert set(attachment.arrays) == {f"c{i}" for i in range(8)}
        assert np.array_equal(attachment.arrays["c3"], columns[3])
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
