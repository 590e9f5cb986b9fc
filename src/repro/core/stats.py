"""Bookkeeping for RAP tree runs.

The paper's evaluation tracks two memory statistics per run (Figure 7):
the *maximum* number of nodes ever held (tree size just before a merge
batch) and the *average* number of nodes over the run. Figure 6 addition-
ally plots the full node-count timeline for gcc. ``TreeStats`` records all
of these with O(1) work per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class TreeStats:
    """Counters describing one profiling run.

    Attributes
    ----------
    events:
        Total weight of events processed (counted adds add their count).
    updates:
        Number of ``add`` calls (a counted add is one update).
    splits:
        Number of split operations performed.
    merge_batches:
        Number of batched merge passes that ran.
    nodes_merged:
        Total nodes removed by merges across all batches.
    max_nodes:
        Largest node count ever observed.
    node_seconds:
        Integral of node count over events — ``node_seconds / events`` is
        the run's average tree size (the "average" bars of Figure 7).
    timeline:
        Optional ``(events, node_count)`` samples (Figure 6), recorded
        every ``sample_every`` events when ``sample_every > 0``.
    merge_points:
        Event counts at which merge batches fired (the dashed lines in
        Figure 6).
    """

    sample_every: int = 0
    events: int = 0
    updates: int = 0
    splits: int = 0
    merge_batches: int = 0
    nodes_merged: int = 0
    merge_scan_visits: int = 0
    max_nodes: int = 1
    node_seconds: float = 0.0
    timeline: List[Tuple[int, int]] = field(default_factory=list)
    merge_points: List[int] = field(default_factory=list)
    #: Event count at which the next timeline sample is due.
    next_sample: int = field(default=0, repr=False)

    def observe(self, events_delta: int, node_count: int) -> None:
        """Record the tree size after processing ``events_delta`` weight."""
        self.observe_weight(events_delta, node_count)
        self.updates += 1

    def observe_weight(self, events_delta: int, node_count: int) -> None:
        """Record weight without counting an update.

        The counted-add cascade flushes one of these per absorbed run so
        that ``events``/``node_seconds``/``timeline`` stay consistent at
        the moment a mid-count merge fires; the enclosing ``add`` then
        bumps ``updates`` once via :meth:`observe_update`.
        """
        self.events += events_delta
        if node_count > self.max_nodes:
            self.max_nodes = node_count
        self.node_seconds += events_delta * node_count
        if self.sample_every > 0 and self.events >= self.next_sample:
            self.timeline.append((self.events, node_count))
            self.next_sample = self.events + self.sample_every

    def observe_update(self) -> None:
        """Count one ``add`` call (a counted add is one update)."""
        self.updates += 1

    def observe_batch(
        self, events_delta: int, updates_delta: int, node_count: int
    ) -> None:
        """Flush a fast-path run: many updates at a constant tree size.

        Used by the inline ``extend``/``add_batch`` loops, which only run
        while no split or merge can fire (so ``node_count`` is constant
        across the run) and timeline sampling is off.
        """
        self.events += events_delta
        self.updates += updates_delta
        if node_count > self.max_nodes:
            self.max_nodes = node_count
        self.node_seconds += events_delta * node_count

    def observe_split(self) -> None:
        self.splits += 1

    def observe_merge_batch(self, nodes_removed: int, nodes_scanned: int) -> None:
        self.merge_batches += 1
        self.nodes_merged += nodes_removed
        self.merge_scan_visits += nodes_scanned
        self.merge_points.append(self.events)

    @property
    def average_nodes(self) -> float:
        """Time-averaged node count over the run (0 for an empty run)."""
        if self.events == 0:
            return 0.0
        return self.node_seconds / self.events

    def memory_bytes(self, bits_per_node: int = 128) -> int:
        """Peak memory in bytes at the paper's 128 bits per node (§4.2)."""
        return (self.max_nodes * bits_per_node + 7) // 8
