"""Sharded concurrent ingestion runtime for RAP profiles.

The paper's RAP engine is a one-pass streaming summarizer whose trees
are mergeable: ``combine_many`` folds shard profiles into one tree
that never overcounts and keeps every shard's weight. This package
turns that mergeability into a service: an event stream is partitioned
across ``N`` shard trees, each fed its own substream through a
:class:`~repro.runtime.window.CombiningWindow`, and folded into a
consistent global snapshot on an epoch boundary:

.. code-block:: text

    ingest(values)                  calling thread, ingest lock held
        └─ chunk (frame length) → partition → one frame per shard
             ├─ serial:  window[i] → shard i                  (inline)
             └─ process: ring[i] (shm) ── worker i: window → shard i
    flush       =  combine the window's frames (one sort), then one
                   tree pass; when 2**17 events are buffered and at
                   every drain() / snapshot() / close()
    snapshot()  =  flush (serial) or sync (process) every shard, then
                   fold the shards' counter rows with ``combine_many``
                   (compiled) into one consistent tree; a worker sends
                   its rows with every sync reply

Layout: a front and two executor modules. :class:`Profiler`
(:mod:`repro.runtime.profiler`) — ``open() / ingest(batch) /
snapshot() / query(range) / close()`` — is the blessed v2 ingestion
surface; it validates, chunks, partitions, locks, caches and folds.
The executor, chosen through ``RapConfig(executor=..., shards=...)``,
holds the shards: :mod:`repro.runtime.serial` (the default and the
oracle) or :mod:`repro.runtime.process` (one worker process per shard,
fed through shared-memory rings — :mod:`repro.runtime.ring`,
:mod:`repro.runtime.shm`, :mod:`repro.runtime.worker`; a dead worker
surfaces as :class:`WorkerCrashed` instead of a hang).

Consistency model: a snapshot is taken on an *epoch boundary* — new
ingests are locked out and, under the process executor, every worker
whose ring took a frame since its last sync acknowledges a sync frame
that trails its batches in ring order — and only then are the shard
trees folded (a worker with no news is already in sync). The snapshot
therefore reflects exactly the events accepted before the call, no
torn batches. Both executors cut the stream into the same frames, so
they build byte-identical shard trees (and hence snapshots). See
``docs/runtime.md`` for executor selection, partitioning schemes and
the ring.
"""

from .metrics import RuntimeMetrics, ShardMetrics
from .partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from .process import WorkerCrashed
from .profiler import Profiler
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
