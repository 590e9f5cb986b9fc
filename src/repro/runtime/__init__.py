"""Sharded concurrent ingestion runtime for RAP profiles.

The paper's RAP engine is a one-pass streaming summarizer whose trees
are mergeable by construction (``combine_many`` folds shard profiles
with the undercount bound ``sum_i(epsilon_i * n_i)``). This package
turns that mergeability into a service: an event stream is partitioned
across ``N`` shard trees, each fed its own substream, and periodically
folded into a consistent global snapshot on an epoch boundary.

Entry point is :class:`Profiler` — ``open() / ingest(batch) /
snapshot() / query(range) / close()`` — the blessed v2 ingestion
surface for workloads, experiments and the CLI. The executor is chosen
uniformly through ``RapConfig(executor=..., shards=...)``: ``"serial"``
(the default: shard trees in this process, each fed through a
:class:`~repro.runtime.window.CombiningWindow` flushed inline)
or ``"process"`` (one worker process per shard over shared-memory
columnar trees, each worker running the same window, fed through
bounded shared-memory rings whose producer waits when one is full —
see :mod:`repro.runtime.ring` and :mod:`repro.runtime.shm`; a dead
worker surfaces as :class:`WorkerCrashed` instead of a hang). Both
executors cut the stream into the same frames, so they build
byte-identical shard trees. See ``docs/runtime.md`` for the
architecture, executor selection, partitioning schemes, the ring and
the snapshot consistency model.
"""

from .metrics import RuntimeMetrics, ShardMetrics
from .partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from .profiler import Profiler, WorkerCrashed
from .ring import (
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    RingConsumer,
    RingProducer,
    RingStalled,
)
from .shm import ShmArena, ShmAttachment, sweep_prefix

__all__ = [
    "DEFAULT_RING_BYTES",
    "HashPartitioner",
    "MIN_RING_BYTES",
    "Partitioner",
    "Profiler",
    "RangePartitioner",
    "RingConsumer",
    "RingProducer",
    "RingStalled",
    "RuntimeMetrics",
    "ShardMetrics",
    "ShmArena",
    "ShmAttachment",
    "WorkerCrashed",
    "make_partitioner",
    "sweep_prefix",
]
