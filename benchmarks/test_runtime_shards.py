"""Multi-shard runtime throughput against the single-shard baseline.

The tentpole claim for :mod:`repro.runtime`: partitioning a stream
across shard trees — each shard's combining window duplicate-combining
its frames before one counted tree pass — beats single-shard per-event
ingest (one bare tree fed ``extend``) by >= 2x events/sec at the
default 50k scale.
The multi-shard configuration uses ``shard_epsilon = N * epsilon``
(equal total node budget, documented ``shard_epsilon * n`` snapshot
bound) so the comparison holds memory constant; see ``docs/runtime.md``.

The workload is the 64-bit gzip value stream at eps = 1% — the
"heaviest realistic configuration" from ``test_core_throughput.py`` —
ingested in 16k-event chunks so ``np.unique`` amortizes per chunk.

These benchmarks feed the same regression lineage as
``test_core_throughput.py``: their means land in the JSON payload that
``check_regression.py`` gates in CI (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import RapConfig, RapTree, dump_tree
from repro.core.combine import combine_by_descent, combine_many
from repro.runtime import Profiler
from repro.workloads import benchmark as load_benchmark

EVENTS = int(os.environ.get("RAP_BENCH_EVENTS", "50000"))
EPSILON = 0.01
SHARDS = 4
BATCH = 16_384
#: Chunk size of the single-shard baseline (``Profiler``'s default
#: ``batch_size``).
CHUNK = 4096


@pytest.fixture(scope="module")
def value_stream():
    stream = load_benchmark("gzip").value_stream(EVENTS, seed=1)
    return (
        np.asarray(stream.values, dtype=np.uint64),
        stream.universe,
    )


class _BareTree:
    """One object tree fed ``extend`` per ``CHUNK`` events — no
    partition, no combining — behind the slice of the ``Profiler``
    surface the timers below use."""

    shards = 1

    def __init__(self, universe):
        self.tree = RapTree.from_config(
            RapConfig(range_max=universe, epsilon=EPSILON, backend="object")
        )

    def open(self):
        return self

    def ingest(self, values):
        for at in range(0, len(values), CHUNK):
            self.tree.extend(int(value) for value in values[at:at + CHUNK])

    def snapshot(self):
        return self.tree

    close = snapshot

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


def _single_shard(values, universe):
    """The baseline: single-shard per-event ingest on a bare tree."""
    return _BareTree(universe)


def _multi_shard(values, universe):
    """The tentpole path: hash partition, 4 serial shards, equal node
    budget."""
    return Profiler(
        RapConfig(range_max=universe, epsilon=EPSILON),
        shards=SHARDS,
        executor="serial",
        shard_epsilon=SHARDS * EPSILON,
        batch_size=BATCH,
    )


def _process_shard(values, universe):
    """The multiprocess path: same partition/budget, worker processes
    over shared-memory columnar trees fed raw partitioned frames that
    each worker duplicate-combines in its own combining buffer. The
    frames travel through one shared-memory ring per shard."""
    return Profiler(
        RapConfig(range_max=universe, epsilon=EPSILON),
        shards=SHARDS,
        executor="process",
        shard_epsilon=SHARDS * EPSILON,
        batch_size=BATCH,
    )


def _timed_ingest(profiler, values):
    """The measured section: producer dispatch plus, for multi-shard
    profilers, ``drain()`` so every accepted batch is applied before
    the clock stops (worker processes apply theirs asynchronously) —
    the same methodology as the 2x speedup floor below. Open/close
    (worker spawn and teardown) and the snapshot fold happen outside
    the timer: the fold has its own row (``test_runtime_snapshot_fold``)
    and lifecycle churn is round-to-round scheduling noise, not ingest
    throughput."""
    profiler.ingest(values)
    if profiler.shards > 1:
        profiler.drain()
    return profiler


def _bench_ingest(benchmark, make_profiler, values, universe, rounds=7):
    opened = []

    def fresh_profiler():
        while opened:
            opened.pop().close()
        profiler = make_profiler(values, universe).open()
        opened.append(profiler)
        return (profiler, values), {}

    benchmark.pedantic(
        _timed_ingest, setup=fresh_profiler, rounds=rounds, iterations=1
    )
    snapshot = opened.pop().close()
    assert snapshot.events == EVENTS


def test_runtime_single_shard_ingest(benchmark, value_stream):
    _bench_ingest(benchmark, _single_shard, *value_stream)


# The runtime rows keep a ``[columnar]`` parameter only so their
# lineages keep their names: ``Profiler`` runs columnar shard trees
# only.
@pytest.mark.parametrize("backend", ["columnar"])
def test_runtime_multi_shard_ingest(benchmark, backend, value_stream):
    _bench_ingest(benchmark, _multi_shard, *value_stream)


@pytest.mark.parametrize("backend", ["columnar"])
def test_runtime_process_shard_ingest(benchmark, backend, value_stream):
    # This row feeds the process-executor gate's min ratio — so give
    # its min estimator more samples to find the quiet-machine floor
    # through scheduler noise.
    _bench_ingest(benchmark, _process_shard, *value_stream, rounds=21)


@pytest.mark.parametrize("backend", ["columnar"])
def test_runtime_snapshot_fold(benchmark, backend, value_stream):
    """Latency of folding 4 populated shards into one snapshot tree.

    ``combine_many`` gathers the shards' counter columns and lays out
    the pruned fold in one compiled pass (``rap_fold``)."""
    values, universe = value_stream
    with _multi_shard(values, universe) as profiler:
        profiler.ingest(values)
        profiler.drain()  # folds below then see quiesced shards
        folded = benchmark(combine_many, profiler.shard_trees())
    assert folded.events == EVENTS


@pytest.mark.parametrize("backend", ["columnar"])
def test_runtime_snapshot_fold_descent(benchmark, backend, value_stream):
    """The reference per-counter descent fold, on shards built exactly
    like the row above (serial ingest is deterministic).

    The live denominator of ``check_regression.py``'s fold gate: the
    compiled fold above must stay >= 10x faster than this row from the
    10k smoke scale up."""
    values, universe = value_stream
    with _multi_shard(values, universe) as profiler:
        profiler.ingest(values)
        profiler.drain()
        shards = profiler.shard_trees()
        folded = benchmark(combine_by_descent, shards)
        assert dump_tree(folded) == dump_tree(combine_many(shards))
    assert folded.events == EVENTS


def test_multi_shard_speedup_is_at_least_2x(value_stream):
    """The ISSUE acceptance gate, asserted only at the full 50k scale.

    Times pure ingest — producer dispatch plus ``drain()`` for the
    multi-shard path. The snapshot fold is measured separately above.
    Scaled-down smoke runs (e.g. CI at 10k) still execute both paths —
    exercising the runtime end to end — but the 2x floor applies only
    at the scale the claim is documented for.
    """
    values, universe = value_stream

    def timed_ingest(make_profiler, runs=3):
        best = float("inf")
        for _ in range(runs):
            with make_profiler(values, universe) as profiler:
                start = time.perf_counter()
                profiler.ingest(values)
                if profiler.shards > 1:
                    profiler.drain()
                best = min(best, time.perf_counter() - start)
                assert profiler.snapshot().events == EVENTS
        return best

    single = timed_ingest(_single_shard)
    multi = timed_ingest(_multi_shard)
    speedup = single / multi
    print(
        f"\nsingle-shard {EVENTS / single:,.0f} ev/s, "
        f"{SHARDS}-shard {EVENTS / multi:,.0f} ev/s "
        f"({speedup:.2f}x)"
    )
    if EVENTS >= 50_000:
        assert speedup >= 2.0, (
            f"multi-shard ingest only {speedup:.2f}x the single-shard "
            f"baseline at {EVENTS} events (required >= 2x)"
        )


def test_process_speedup_is_at_least_1_5x(value_stream):
    """The ``executor="process"`` acceptance gate, at the full 50k scale.

    Same methodology as the 2x floor above — pure ingest plus
    ``drain()``, best of three — comparing the multiprocess executor
    against the serial executor's 4 in-process shards on the *same*
    columnar backend. Both executors run the same combining windows
    and build the same shard trees, so the ratio isolates what the
    process executor adds: shard kernels running in parallel outside
    this interpreter, against the cost of the rings and the syncs.
    Mirrored in CI
    by ``check_regression.py``'s process-executor gate over the same
    two rows of ``BENCH_core_throughput.json``. Smoke scales run both
    paths but skip the floor: process spawn and sync handshakes
    dominate there.
    """
    values, universe = value_stream

    def timed_ingest(make_profiler, runs=3):
        best = float("inf")
        for _ in range(runs):
            with make_profiler(values, universe) as profiler:
                start = time.perf_counter()
                profiler.ingest(values)
                profiler.drain()
                best = min(best, time.perf_counter() - start)
                assert profiler.snapshot().events == EVENTS
        return best

    serial = timed_ingest(_multi_shard)
    process = timed_ingest(_process_shard)
    speedup = serial / process
    print(
        f"\nserial {SHARDS}-shard {EVENTS / serial:,.0f} ev/s, "
        f"process {EVENTS / process:,.0f} ev/s ({speedup:.2f}x)"
    )
    if EVENTS >= 50_000:
        assert speedup >= 1.5, (
            f"process-executor ingest only {speedup:.2f}x the serial "
            f"{SHARDS}-shard executor at {EVENTS} events (required >= 1.5x)"
        )
