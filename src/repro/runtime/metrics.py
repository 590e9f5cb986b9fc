"""Runtime metrics: per-shard and aggregate ingestion statistics.

Everything event-count-shaped here is deterministic for a given stream
and configuration, under either executor, so tests and the regression
gate can assert on exact values.
Time-shaped fields (``ingest_seconds``, ``events_per_second``,
``snapshot_seconds``) are only populated when the profiler was given a
clock — timing stays caller-supplied (the same discipline RAP-LINT005
enforces for the rest of the library), and without a clock they read
``0.0`` so metric dumps stay reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ShardMetrics:
    """Ingestion counters for one worker shard.

    The transport fields (``transport_stalls`` / ``transport_stall_s``,
    ``ring_peak_bytes``) describe the shard's shared-memory ring under
    the process executor: how often (and, with a clock, for how long)
    the producer waited for ring space, and the ring's high-water
    occupancy. The serial executor has no
    transport, so they read zero there. ``transport_stall_s`` is
    time-shaped and stays ``0.0`` without a clock, like every other
    duration here.
    """

    shard: int
    events: int = 0
    batches: int = 0
    transport_stalls: int = 0
    transport_stall_s: float = 0.0
    ring_peak_bytes: int = 0
    splits: int = 0
    merge_batches: int = 0
    node_count: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "events": self.events,
            "batches": self.batches,
            "transport_stalls": self.transport_stalls,
            "transport_stall_s": self.transport_stall_s,
            "ring_peak_bytes": self.ring_peak_bytes,
            "splits": self.splits,
            "merge_batches": self.merge_batches,
            "node_count": self.node_count,
        }


@dataclass
class RuntimeMetrics:
    """Aggregate view over every shard plus profiler-level counters."""

    shards: List[ShardMetrics] = field(default_factory=list)
    snapshots: int = 0
    snapshot_seconds: float = 0.0
    ingest_seconds: float = 0.0

    @property
    def events(self) -> int:
        """Total events accepted into shard trees."""
        return sum(shard.events for shard in self.shards)

    @property
    def node_count(self) -> int:
        return sum(shard.node_count for shard in self.shards)

    @property
    def transport_stalls(self) -> int:
        """Producer waits for transport space, summed over shards."""
        return sum(shard.transport_stalls for shard in self.shards)

    @property
    def transport_stall_s(self) -> float:
        """Seconds spent in those waits; ``0.0`` without a clock."""
        return sum(shard.transport_stall_s for shard in self.shards)

    @property
    def events_per_second(self) -> float:
        """Ingest throughput; ``0.0`` unless a clock was supplied."""
        if self.ingest_seconds <= 0.0:
            return 0.0
        return self.events / self.ingest_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "node_count": self.node_count,
            "transport_stalls": self.transport_stalls,
            "transport_stall_s": self.transport_stall_s,
            "snapshots": self.snapshots,
            "snapshot_seconds": self.snapshot_seconds,
            "ingest_seconds": self.ingest_seconds,
            "events_per_second": self.events_per_second,
            "shards": [shard.as_dict() for shard in self.shards],
        }
