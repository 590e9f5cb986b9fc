"""Partitioning an event stream across worker shards.

Two schemes, both deterministic functions of the event value alone (so
any replay of a stream lands every event on the same shard, regardless
of batch boundaries or executor):

* **hash** — Fibonacci multiplicative hashing spreads values uniformly
  across shards regardless of the input distribution. The default: RAP
  workloads are heavily skewed (that is the point of the profiler), and
  contiguous-range assignment would put an entire hot range on one
  shard.
* **range** — shard ``i`` owns the contiguous slice
  ``[floor(i * R / N), floor((i + 1) * R / N))`` of the universe. Keeps
  each shard's tree spatially compact (useful when shards map to
  NUMA-style locality domains) at the cost of skew sensitivity.

Both offer a scalar path (``shard_of``) and a vectorized numpy path
(``split``) that produce identical assignments.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

# Knuth's multiplicative hash constant: the nearest odd integer to
# 2**64 / phi. Multiplying by it diffuses low-order structure (stride
# patterns, small dense universes) into the high bits we shard on.
_FIB_MULT = 11400714819323198485


class Partitioner:
    """Deterministic value → shard assignment over ``[0, R-1]``."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    def shard_of(self, value: int) -> int:
        """Shard index owning ``value``."""
        raise NotImplementedError

    def split(self, values: np.ndarray) -> List[np.ndarray]:
        """Partition ``values`` into per-shard arrays (vectorized).

        Returns one array per shard; shard ``i``'s array preserves the
        relative order of its events in the input. The concatenation of
        all outputs is a permutation of the input.
        """
        raise NotImplementedError

    def split_counted(
        self, values: np.ndarray
    ) -> List[Sequence[Tuple[int, int]]]:
        """Partition and duplicate-combine in one pass.

        For each shard, returns ``(value, count)`` pairs with duplicates
        merged via ``np.unique`` — the vectorized analogue of the
        paper's event-combining buffer (Section 3.3, stage 0), feeding
        :meth:`RapTree.add_batch` directly.
        """
        combined: List[Sequence[Tuple[int, int]]] = []
        for part in self.split(values):
            if len(part) == 0:
                combined.append([])
                continue
            uniques, counts = np.unique(part, return_counts=True)
            combined.append(
                list(zip(uniques.tolist(), counts.tolist()))
            )
        return combined

    def split_counted_arrays(
        self, values: np.ndarray
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Partition and duplicate-combine, staying array-shaped.

        The array-native sibling of :meth:`split_counted`: per shard,
        ``(uniques, counts)`` ndarrays (``None`` for an empty shard)
        instead of a pair list. ``np.unique`` output is sorted
        ascending, so feeding a frame to
        ``ColumnarRapTree.add_counted_arrays`` is observably identical
        to ``add_batch`` on the equivalent pairs. (The process executor
        ships *raw* ``split`` frames instead and duplicate-combines
        across frames in each worker's combining buffer — see
        ``repro.runtime.worker`` — so this combined shape serves the
        in-process paths and counted feeds.)
        """
        frames: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        for part in self.split(values):
            if len(part) == 0:
                frames.append(None)
                continue
            uniques, counts = np.unique(part, return_counts=True)
            frames.append((uniques, counts))
        return frames


class HashPartitioner(Partitioner):
    """Fibonacci-hash assignment: uniform across shards under any skew."""

    def shard_of(self, value: int) -> int:
        mixed = (value * _FIB_MULT) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 32) % self.shards

    def split(self, values: np.ndarray) -> List[np.ndarray]:
        if self.shards == 1:
            return [np.asarray(values)]
        values = np.asarray(values, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = values * np.uint64(_FIB_MULT)
        assignment = (mixed >> np.uint64(32)) % np.uint64(self.shards)
        return [
            values[assignment == shard] for shard in range(self.shards)
        ]


class RangePartitioner(Partitioner):
    """Contiguous-slice assignment over the universe ``[0, R-1]``."""

    def __init__(self, shards: int, range_max: int) -> None:
        super().__init__(shards)
        if range_max < 2:
            raise ValueError(f"range_max must be >= 2, got {range_max}")
        self.range_max = range_max
        # boundaries[i] is the first value owned by shard i+1; shard i
        # owns [boundaries[i-1], boundaries[i]).
        self._boundaries = np.array(
            [(i * range_max) // shards for i in range(1, shards)],
            dtype=np.int64,
        )

    def shard_of(self, value: int) -> int:
        return int(np.searchsorted(self._boundaries, value, side="right"))

    def split(self, values: np.ndarray) -> List[np.ndarray]:
        if self.shards == 1:
            return [np.asarray(values)]
        values = np.asarray(values)
        assignment = np.searchsorted(
            self._boundaries, values, side="right"
        )
        return [
            values[assignment == shard] for shard in range(self.shards)
        ]


def make_partitioner(
    scheme: str, shards: int, range_max: int
) -> Partitioner:
    """Build the partitioner for ``scheme`` (``"hash"`` or ``"range"``)."""
    if scheme == "hash":
        return HashPartitioner(shards)
    if scheme == "range":
        return RangePartitioner(shards, range_max)
    raise ValueError(
        f"unknown partition scheme {scheme!r}; expected 'hash' or 'range'"
    )
