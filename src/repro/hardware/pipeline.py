"""The pipelined RAP engine (Figure 4, Sections 3.3–3.4).

A cycle-level model of the 5-stage hardware profiler:

* **Stage 0** — combining event buffer
  (:class:`~repro.hardware.event_buffer.CombiningEventBuffer`);
* **Stage 1** — TCAM range match (:class:`~repro.hardware.tcam.TernaryCam`);
* **Stage 2** — fixed-priority arbiter picking the longest prefix
  (:class:`~repro.hardware.arbiter.PriorityArbiter`);
* **Stage 3** — SRAM counter increment
  (:class:`~repro.hardware.sram.CounterSram`);
* **Stage 4** — split comparator against the threshold register.

The engine implements the RAP algorithm *independently* of the software
tree — updates are resolved by TCAM search + arbitration, not by tree
descent — and the test suite checks that both produce identical profiles
for identical input. Splits flush the pipeline; merges batch with the
exponential schedule and stall the pipeline while rows are scanned; the
paper's headline throughput ("on an average, RAP requires 4 cycles to
process an event, and requires 2 cycles each for TCAM and SRAM accesses
per event") falls out of the accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.config import (
    MergeScheduler,
    RapConfig,
    bits_for_range,
    split_crossing_point,
)
from ..core.node import partition_range
from .arbiter import PriorityArbiter
from .event_buffer import CombiningEventBuffer
from .sram import CounterSram
from .tcam import TernaryCam, range_to_entry


@dataclass(frozen=True)
class HardwareParams:
    """Physical configuration of the engine (the paper's Section 3.4).

    Defaults are the paper's aggressive off-chip configuration: a
    4096-entry TCAM with a 16 KB SRAM data array and a 1k-event
    combining buffer.
    """

    tcam_capacity: int = 4096
    counter_bits: int = 32
    buffer_capacity: int = 1024
    combine_events: bool = True
    pipeline_depth: int = 5
    tcam_cycles_per_event: int = 2
    sram_cycles_per_event: int = 2
    insert_cycles: int = 2
    delete_cycles: int = 2
    merge_scan_cycles_per_row: int = 1

    def __post_init__(self) -> None:
        if self.tcam_capacity < 1:
            raise ValueError("tcam_capacity must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")

    @property
    def update_cycles(self) -> int:
        """Cycles per ordinary update (the paper's 4: 2 TCAM + 2 SRAM)."""
        return self.tcam_cycles_per_event + self.sram_cycles_per_event


@dataclass
class EngineStats:
    """Cycle and operation accounting for one engine run."""

    events: int = 0
    records: int = 0
    update_cycles: int = 0
    split_stall_cycles: int = 0
    merge_stall_cycles: int = 0
    splits: int = 0
    suppressed_splits: int = 0
    reentries: int = 0
    merge_batches: int = 0
    nodes_merged: int = 0
    forced_merges: int = 0
    max_rows: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.update_cycles
            + self.split_stall_cycles
            + self.merge_stall_cycles
        )

    @property
    def cycles_per_event(self) -> float:
        if self.events == 0:
            return 0.0
        return self.total_cycles / self.events

    @property
    def cycles_per_record(self) -> float:
        if self.records == 0:
            return 0.0
        return self.total_cycles / self.records

    @property
    def stall_fraction(self) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return (self.split_stall_cycles + self.merge_stall_cycles) / total


class _HwNode:
    """Per-row metadata: the range, its SRAM slot, and tree links.

    The hardware keeps this in the SRAM data array next to the counter
    ("corresponding entries in the memory are inserted storing the
    counter and other information of the newly created nodes",
    Section 3.3) — 128 bits per node in the paper's budget.
    """

    __slots__ = ("lo", "hi", "slot", "parent", "children")

    def __init__(
        self, lo: int, hi: int, slot: int, parent: Optional["_HwNode"]
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.slot = slot
        self.parent = parent
        self.children: List[_HwNode] = []


class PipelinedRapEngine:
    """Hardware RAP: same algorithm, resolved through TCAM hardware."""

    def __init__(
        self,
        config: RapConfig,
        params: Optional[HardwareParams] = None,
    ) -> None:
        if config.range_max & (config.range_max - 1):
            raise ValueError(
                "hardware engine needs a power-of-two universe (prefix "
                f"ranges); got {config.range_max}"
            )
        if config.branching & (config.branching - 1):
            raise ValueError(
                "hardware engine needs a power-of-two branching factor; "
                f"got {config.branching}"
            )
        self.config = config
        self.params = params or HardwareParams()
        self.width_bits = bits_for_range(config.range_max)

        self.tcam = TernaryCam(self.params.tcam_capacity, self.width_bits)
        self.arbiter = PriorityArbiter(self.params.tcam_capacity)
        self.sram = CounterSram(
            self.params.tcam_capacity, self.params.counter_bits
        )
        self.buffer = CombiningEventBuffer(
            capacity=self.params.buffer_capacity,
            combine=self.params.combine_events,
        )
        self.stats = EngineStats()
        self._scheduler = MergeScheduler(
            initial_interval=config.merge_initial_interval,
            growth=config.merge_growth,
        )
        self._events = 0
        self._eps_over_height = config.epsilon / config.max_height
        self._min_threshold = config.min_split_threshold

        # Install the root range as the first row.
        root_slot = self.sram.allocate()
        self._root = _HwNode(0, config.range_max - 1, root_slot, parent=None)
        self._nodes: List[_HwNode] = [self._root]
        self.tcam.insert(range_to_entry(0, config.range_max - 1, self.width_bits))

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    @property
    def events(self) -> int:
        return self._events

    @property
    def threshold_register(self) -> float:
        """Current split/merge threshold (one shared register, stage 4)."""
        raw = self._eps_over_height * self._events
        return raw if raw > self._min_threshold else self._min_threshold

    def process_stream(self, events: Iterable[int]) -> EngineStats:
        """Run a raw event stream through stage 0 and the pipeline.

        Stage 1 is batched: each stage-0 window's TCAM winners are
        precomputed in one :meth:`~repro.hardware.tcam.TernaryCam.search_batch`
        matrix compare. Precomputed winners are valid only while the row
        table is unchanged, so consumption is gated on ``tcam.writes``;
        after any split or merge rewrite the remainder of the window is
        re-searched. Every record is still billed one TCAM access and
        one arbiter grant, so stats are bit-identical to the per-record
        loop (``tests/hardware/test_pipeline.py`` asserts this).
        """
        for window in self.buffer.windows(events):
            total = len(window)
            try:
                keys = np.fromiter(
                    (record[0] for record in window), np.uint64, total
                )
            except (OverflowError, TypeError, ValueError):
                # Out-of-domain values: let the scalar path raise its
                # usual validation errors in arrival order.
                for value, count in window:
                    self.process_record(value, count)
                continue
            start = 0
            lookahead = 8
            while start < total:
                version = self.tcam.writes
                stop = min(total, start + lookahead)
                winners = self.tcam.search_batch(keys[start:stop])
                index = start
                while index < stop and self.tcam.writes == version:
                    value, count = window[index]
                    self._process(value, count, int(winners[index - start]))
                    index += 1
                # Splits invalidate winners, so the lookahead adapts to
                # the split cadence: grow while batches drain cleanly,
                # reset when a rewrite discards precomputed work.
                if index == stop and self.tcam.writes == version:
                    lookahead = min(lookahead * 2, 1024)
                else:
                    lookahead = 8
                start = index
        return self.stats

    def process_record(self, value: int, count: int = 1) -> None:
        """One combined ``(value, count)`` record through stages 1–4.

        When the granted counter would blow past the threshold, the
        counter absorbs up to the threshold, the node splits, the
        pipeline flushes, and the remaining weight re-enters from the
        buffer and lands in the new child ("the pipeline will need to be
        flushed and reset to the point directly before where the split
        should have occurred. In this case the buffer will re-enter
        those events into the pipeline", Section 3.3) — mirroring the
        software tree's cascade exactly.
        """
        self._process(value, count, None)

    def _process(
        self, value: int, count: int, winner_row: Optional[int]
    ) -> None:
        """Stages 1–4 for one record, with an optional precomputed winner.

        ``winner_row`` (from :meth:`TernaryCam.search_batch`) replaces
        the first stage-1 search only; cascade re-entries always
        re-search because the row table may have changed underneath.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if not 0 <= value < self.config.range_max:
            raise ValueError(f"value {value} outside universe")

        self.stats.events += count
        self.stats.records += 1
        eps_h = self._eps_over_height
        min_th = self._min_threshold
        scheduler = self._scheduler
        events = self._events

        remaining = count
        while True:
            if winner_row is None:
                # Stage 1: all covering ranges match in one TCAM search.
                matches = self.tcam.search(value)
                # Stage 2: the arbiter grants the longest prefix.
                winner = self.arbiter.grant(matches)
                assert winner is not None, "root row always matches"
            else:
                # Precomputed by search_batch — still one TCAM access
                # and one arbiter grant in hardware terms.
                winner = winner_row
                winner_row = None
                self.tcam.searches += 1
                self.arbiter.grants += 1
            node = self._nodes[winner]
            self.stats.update_cycles += self.params.update_cycles

            # Stage 3 + 4: counter update against the threshold register.
            # The register tracks the event total, so unit m of the run
            # sees threshold(events + m) — the same per-unit evaluation
            # as the software cascade, which keeps the two engines
            # bit-identical on counted records. Closed forms find the
            # next split or merge boundary so whole runs are absorbed
            # per SRAM access.
            current = self.sram.read(node.slot)
            next_at = scheduler.next_at
            m_merge = math.ceil(next_at) - events
            if m_merge < 1:
                m_merge = 1
            m = remaining if remaining < m_merge else m_merge

            m_split = 0
            if node.lo != node.hi:
                cap_th = eps_h * (events + m)
                if cap_th < min_th:
                    cap_th = min_th
                if current + m > cap_th:
                    th1 = eps_h * (events + 1)
                    if th1 < min_th:
                        th1 = min_th
                    if current > int(th1):
                        # Over threshold before absorbing anything
                        # (merge churn re-deposited weight): split,
                        # flush, and re-enter the whole run.
                        if self._split(node):
                            self.stats.reentries += 1
                            continue
                        # Capacity exhausted: the run stays at this
                        # precision.
                        self.sram.write(node.slot, current + remaining)
                        events += remaining
                        self._events = events
                        if events >= next_at:
                            self._merge_batch()
                        break
                    m_split = split_crossing_point(
                        current, events, eps_h, min_th
                    )
                    if 0 < m_split < m:
                        m = m_split

            self.sram.write(node.slot, current + m)
            events += m
            remaining -= m
            self._events = events
            if m_split != 0 and m == m_split:
                if not self._split(node) and remaining:
                    # Capacity exhausted: the rest stays at this precision.
                    self.sram.write(
                        node.slot, self.sram.read(node.slot) + remaining
                    )
                    events += remaining
                    remaining = 0
                    self._events = events
            if events >= next_at:
                # Mid-record merge batches fire exactly where the
                # schedule puts them, as in the software tree.
                self._merge_batch()
            if not remaining:
                break
            # Pipeline flush (split or merge): the remainder re-enters
            # from the buffer.
            self.stats.reentries += 1

        self.stats.max_rows = max(self.stats.max_rows, len(self._nodes))

    # ------------------------------------------------------------------
    # Split (pipeline flush + TCAM/SRAM inserts)
    # ------------------------------------------------------------------

    def _split(self, node: _HwNode) -> bool:
        """Burst a node; returns False when TCAM capacity forbids it."""
        cells = partition_range(node.lo, node.hi, self.config.branching)
        existing = {(child.lo, child.hi) for child in node.children}
        missing = [cell for cell in cells if cell not in existing]
        if not missing:
            return True
        rows_needed = len(missing)
        if len(self._nodes) + rows_needed > self.params.tcam_capacity:
            # Capacity pressure: force an early merge batch to make room.
            self._merge_batch(forced=True)
            if len(self._nodes) + rows_needed > self.params.tcam_capacity:
                # Still no room: keep profiling at current precision.
                self.stats.suppressed_splits += 1
                return False
        stall = self.params.pipeline_depth
        for lo, hi in missing:
            slot = self.sram.allocate()
            child = _HwNode(lo, hi, slot, parent=node)
            # _HwNode rows mirror TCAM state, not the software tree; the
            # engine is its own (hardware) implementation of RAP.
            node.children.append(child)  # noqa: RAP-LINT003 - hardware's own row table
            row = self.tcam.insert(range_to_entry(lo, hi, self.width_bits))
            self._nodes.insert(row, child)
            stall += self.params.insert_cycles
        self.stats.splits += 1
        self.stats.split_stall_cycles += stall
        self.buffer.absorb_stall(stall)
        return True

    # ------------------------------------------------------------------
    # Merge (batched bottom-up TCAM scan)
    # ------------------------------------------------------------------

    def _merge_batch(self, forced: bool = False) -> None:
        """Scan rows bottom-up and collapse light subtrees.

        "Batch merges are initiated periodically and in every batch of
        merges entries in the TCAM are scanned bottom-up to find
        candidate nodes to be merged" (Section 3.3).
        """
        threshold = self.threshold_register
        scanned = len(self._nodes)
        removed = self._merge_subtree(self._root, threshold)
        stall = (
            scanned * self.params.merge_scan_cycles_per_row
            + removed * self.params.delete_cycles
        )
        self.stats.merge_stall_cycles += stall
        self.stats.merge_batches += 1
        self.stats.nodes_merged += removed
        if forced:
            self.stats.forced_merges += 1
        else:
            self._scheduler.fired(self._events)
        self.buffer.absorb_stall(stall)

    def _merge_subtree(self, node: _HwNode, threshold: float) -> int:
        removed = 0
        weight_total = self.sram.read(node.slot)
        kept: List[_HwNode] = []
        for child in node.children:
            removed += self._merge_subtree(child, threshold)
            child_weight = self._subtree_weight(child)
            weight_total += child_weight
            if child_weight <= threshold:
                # Fold the (now leaf) child into this node's counter.
                current = self.sram.read(node.slot)
                self.sram.write(node.slot, current + child_weight)
                self._remove_row(child)
                removed += 1
            else:
                kept.append(child)
        node.children = kept  # noqa: RAP-LINT003 - _HwNode row table
        return removed

    def _subtree_weight(self, node: _HwNode) -> int:
        total = self.sram.read(node.slot)
        for child in node.children:
            total += self._subtree_weight(child)
        return total

    def _remove_row(self, node: _HwNode) -> None:
        # The row table mirrors the TCAM exactly, so the node's position
        # IS its row; list.index on _HwNode compares by identity, which
        # avoids find_row's per-row TcamEntry equality scan.
        row = self._nodes.index(node)
        entry = self.tcam.rows[row]
        assert entry.matches(node.lo), "row table out of sync"
        self.tcam.delete(row)
        del self._nodes[row]
        self.sram.release(node.slot)
        node.parent = None

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def counters(self) -> Dict[Tuple[int, int], int]:
        """Snapshot ``{(lo, hi): count}`` of every live range counter."""
        return {
            (node.lo, node.hi): self.sram.read(node.slot)
            for node in self._nodes
        }

    def to_software_tree(self) -> "RapTreeExport":
        """Export ranges/counters for comparison against the software tree."""
        return RapTreeExport(
            events=self._events,
            counters=self.counters(),
        )

    def check_invariants(self) -> None:
        """Row order, range nesting, and weight conservation checks."""
        self.tcam.check_sorted()
        assert len(self.tcam.rows) == len(self._nodes)
        total = 0
        for entry, node in zip(self.tcam.rows, self._nodes):
            assert entry.matches(node.lo), "row/node mismatch"
            total += self.sram.read(node.slot)
        assert total == self._events, (
            f"counter sum {total} != events {self._events}"
        )


@dataclass(frozen=True)
class RapTreeExport:
    """Flat snapshot of a profile: stream length plus range counters."""

    events: int
    counters: Dict[Tuple[int, int], int]

    def estimate(self, lo: int, hi: int) -> int:
        """Lower-bound estimate over the snapshot (sums contained ranges)."""
        return sum(
            count
            for (range_lo, range_hi), count in self.counters.items()
            if lo <= range_lo and range_hi <= hi
        )
