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

Both offer a scalar path (``shard_of``, which routes ``ingest_counted``
pairs) and a vectorized numpy path (``split``, which routes ``ingest``
chunks) that produce identical assignments. ``split`` runs on the
dispatching thread for every event of a multi-shard profiler, so it
stays a few array passes: the hash is reduced with a bitmask when the
shard count is a power of two (equal to ``%`` on unsigned values), and
each shard's slice is taken with ``np.compress``, several times cheaper
than boolean fancy indexing on the same mask. The range scheme keeps its
boundaries in uint64 and searches uint64 keys, so no comparison rounds
through float64 anywhere in a 2**64 universe.
"""

from __future__ import annotations

import bisect
from typing import List

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
        all outputs is a permutation of the input. Each output becomes
        one raw frame for its shard's combining window
        (:mod:`repro.runtime.window`), which duplicate-combines across
        frames — in a worker under the process executor, inline under
        the serial one.
        """
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Fibonacci-hash assignment: uniform across shards under any skew."""

    def shard_of(self, value: int) -> int:
        mixed = (value * _FIB_MULT) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 32) % self.shards

    # rap: hot
    def split(self, values: np.ndarray) -> List[np.ndarray]:
        shards = self.shards
        if shards == 1:
            return [np.asarray(values)]
        values = np.asarray(values, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = values * np.uint64(_FIB_MULT)
        mixed >>= np.uint64(32)
        if shards & (shards - 1):
            mixed %= np.uint64(shards)
        else:
            mixed &= np.uint64(shards - 1)
        return [
            np.compress(mixed == shard, values) for shard in range(shards)
        ]


class RangePartitioner(Partitioner):
    """Contiguous-slice assignment over the universe ``[0, R-1]``."""

    def __init__(self, shards: int, range_max: int) -> None:
        super().__init__(shards)
        if range_max < 2:
            raise ValueError(f"range_max must be >= 2, got {range_max}")
        self.range_max = range_max
        # bounds[i] is the first value owned by shard i+1; shard i owns
        # [bounds[i-1], bounds[i]). Python ints for shard_of, uint64 for
        # split: both search exactly across the whole 2**64 universe.
        self._bounds = [(i * range_max) // shards for i in range(1, shards)]
        self._boundaries = np.array(self._bounds, dtype=np.uint64)

    def shard_of(self, value: int) -> int:
        return bisect.bisect_right(self._bounds, value)

    def split(self, values: np.ndarray) -> List[np.ndarray]:
        if self.shards == 1:
            return [np.asarray(values)]
        values = np.asarray(values)
        # Same-dtype search: uint64 keys against uint64 boundaries
        # (mixed int64/uint64 operands would compare through float64).
        assignment = np.searchsorted(
            self._boundaries,
            values.astype(np.uint64, copy=False),
            side="right",
        )
        return [
            np.compress(assignment == shard, values)
            for shard in range(self.shards)
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
