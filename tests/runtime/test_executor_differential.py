"""Differential machine: the serial and process executors side by side.

A Hypothesis state machine drives one ``serial`` and one ``process``
profiler (1–3 shards, a small ring) through the same ``ingest`` /
``ingest_counted`` / ``snapshot`` / ``query`` / ``drain`` calls, then
``close``. At every read it checks that the two executors answer
byte-identically (``dump_tree``, per-shard metrics, estimates), that
the snapshot holds exactly the accepted events, that no range
overcounts against the exact counts and that the fold conserves the
stream's weight. The ``epsilon * n`` undercount bound is not checked
here. After each example the process profiler has left no segment
under its shared-memory prefix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import RapConfig, dump_tree
from repro.runtime import MIN_RING_BYTES, Profiler

UNIVERSE = 2**10
EXECUTORS = ("serial", "process")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a /dev/shm view of POSIX shm"
)

values_st = st.lists(st.integers(0, UNIVERSE - 1), max_size=400)
pairs_st = st.lists(
    st.tuples(st.integers(0, UNIVERSE - 1), st.integers(1, 1_000)),
    max_size=40,
)


class ExecutorDifferential(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.profilers = []
        self.counts = np.zeros(UNIVERSE, dtype=np.int64)

    @initialize(
        shards=st.integers(1, 3), batch_size=st.sampled_from([64, 512])
    )
    def open_profilers(self, shards, batch_size):
        config = RapConfig(
            UNIVERSE, epsilon=0.05, merge_initial_interval=64, shards=shards
        )
        for executor in EXECUTORS:
            self.profilers.append(
                Profiler(
                    config,
                    executor=executor,
                    batch_size=batch_size,
                    ring_bytes=MIN_RING_BYTES + 3072,
                ).open()
            )
        self.prefix = self.profilers[1]._executor._shm_prefix  # noqa: SLF001

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def exact(self, lo: int, hi: int) -> int:
        return int(self.counts[lo:hi + 1].sum())

    def check_snapshots(self):
        serial, process = (profiler.snapshot() for profiler in self.profilers)
        assert dump_tree(serial) == dump_tree(process)
        assert serial.events == self.total
        nodes = list(serial.nodes())
        assert sum(node.count for node in nodes) == self.total
        for node in nodes:
            assert serial.estimate(node.lo, node.hi) <= self.exact(
                node.lo, node.hi
            )

    @rule(values=values_st)
    def ingest(self, values):
        for profiler in self.profilers:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
        np.add.at(self.counts, np.asarray(values, dtype=np.int64), 1)

    @rule(pairs=pairs_st)
    def ingest_counted(self, pairs):
        for profiler in self.profilers:
            profiler.ingest_counted(pairs)
        for value, count in pairs:
            self.counts[value] += count

    @rule()
    def snapshot(self):
        self.check_snapshots()

    @rule(lo=st.integers(0, UNIVERSE - 1), width=st.integers(0, UNIVERSE))
    def query(self, lo, width):
        hi = min(UNIVERSE - 1, lo + width)
        answers = [profiler.query(lo, hi) for profiler in self.profilers]
        assert answers[0] == answers[1] <= self.exact(lo, hi)
        self.check_snapshots()

    @rule()
    def drain(self):
        shards = []
        for profiler in self.profilers:
            profiler.drain()
            shards.append(
                [
                    (shard.events, shard.node_count, shard.splits,
                     shard.merge_batches)
                    for shard in profiler.metrics.shards
                ]
            )
        assert shards[0] == shards[1]
        assert sum(events for events, *_ in shards[0]) == self.total

    @precondition(lambda self: self.profilers)
    @invariant()
    def process_segments_are_the_rings(self):
        shards = self.profilers[1].shards
        assert len(_segments(self.prefix)) == shards

    def teardown(self):
        finals = []
        try:
            for profiler in self.profilers:
                finals.append(profiler.close())
        finally:
            for profiler in self.profilers:
                if not profiler.closed:
                    profiler.close()
        if finals:
            assert dump_tree(finals[0]) == dump_tree(finals[1])
            assert finals[0].events == self.total
            assert _segments(self.prefix) == []


def _segments(prefix: str) -> list:
    return [e for e in os.listdir("/dev/shm") if e.startswith(prefix)]


ExecutorDifferential.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestExecutorDifferential = ExecutorDifferential.TestCase
