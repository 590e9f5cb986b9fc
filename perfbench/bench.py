"""Workloads, sessions and the exact-count oracle of the benchmark.

One closed-loop caller (this process, no extra threads) drives
``Profiler(RapConfig(R, epsilon=0.01, backend="columnar"),
executor="process", shards=2, shard_epsilon=0.02, batch_size=16384)``
with streams from ``repro.workloads``, generated from the seed before
any timing. Every ``ingest()`` call carries 64k events. ``run.py`` is
the command line; ``layers.py`` is the traced run.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SHARDS = 2
EPSILON = 0.01
SHARD_EPSILON = 0.02
BATCH_SIZE = 16384
INGEST_EVENTS = 1 << 16
HOT_FRACTION = 0.10
#: Length of the seeded array the long workloads replay.
BASE_EVENTS = 1 << 22
SPEC_STREAMS = ("gcc", "mcf", "vpr", "gzip", "parser", "vortex", "bzip2")


@dataclass(frozen=True)
class Workload:
    name: str
    session_events: int
    warmup_events: int
    #: Events between mid-stream reads (0: read only at the end).
    report_every: int = 0
    queries_per_read: int = 0
    #: Queries after the final report of each session.
    end_queries: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Parser load values over 2^64: ~60% of each window survives
        # combining, so the online counted kernel dominates the workers.
        Workload(
            "value-ingest",
            session_events=1 << 23,
            warmup_events=1 << 21,
            end_queries=128,
        ),
        # Parser values with a report and 10 queries every 128k events:
        # sync, fold and hot-range walks dominate.
        Workload(
            "value-reports",
            session_events=1 << 20,
            warmup_events=1 << 18,
            report_every=1 << 17,
            queries_per_read=10,
            end_queries=64,
        ),
        # Seven SPEC-like value streams, 50k events per session: fork,
        # warm-up, shm arenas, bootstrap and reaping dominate.
        Workload(
            "short-sessions",
            session_events=50_000,
            warmup_events=50_000,
            end_queries=24,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs and the exact-count oracle
# ----------------------------------------------------------------------


class Oracle:
    """Exact range counts over a stream replayed cyclically from ``base``.

    Reads land on multiples of ``block`` events (whole ``ingest()``
    calls), so per-block sorted copies answer prefix reads without
    sorting anything at read time.
    """

    def __init__(self, base: np.ndarray, block: int) -> None:
        self.length = len(base)
        self.sorted = np.sort(base)
        self.block = block
        self.blocks = (
            [np.sort(base[at:at + block]) for at in range(0, len(base), block)]
            if block and block < len(base)
            else []
        )

    @staticmethod
    def _count(sorted_values: np.ndarray, los: np.ndarray,
               his: np.ndarray) -> np.ndarray:
        return (
            np.searchsorted(sorted_values, his, side="right")
            - np.searchsorted(sorted_values, los, side="left")
        ).astype(np.int64)

    def counts(self, n: int, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        full, partial = divmod(n, self.length)
        total = full * self._count(self.sorted, los, his)
        if partial:
            if partial % self.block:
                raise ValueError(f"read at {n} events is off the block grid")
            for block in self.blocks[: partial // self.block]:
                total += self._count(block, los, his)
        return total


@dataclass
class Stream:
    name: str
    universe: int
    base: np.ndarray
    oracle: Oracle
    #: Seeded (lo, hi) query ranges around stream values.
    queries: List[Tuple[int, int]]
    #: More seeded ranges, checked on each session's final snapshot
    #: after close(), untimed: a maximum over many ranges repeats
    #: closely from seed to seed.
    probes: List[Tuple[int, int]]


def _query_plan(base: np.ndarray, universe: int, rng: np.random.Generator,
                count: int) -> List[Tuple[int, int]]:
    bits = universe.bit_length() - 1
    plan = []
    for _ in range(count):
        centre = int(base[rng.integers(len(base))])
        width = int(2 ** rng.uniform(2, bits * 0.6))
        lo = max(0, centre - width // 2)
        hi = min(universe - 1, lo + width)
        plan.append((lo, hi))
    return plan


def make_streams(workload: Workload, seed: int, scale: int) -> List[Stream]:
    from repro.workloads.spec import benchmark

    rng = np.random.default_rng(seed)
    if workload.name == "short-sessions":
        events = workload.session_events // scale
        specs = [
            benchmark(name).value_stream(events, seed=seed + index)
            for index, name in enumerate(SPEC_STREAMS)
        ]
        block = 0
    else:
        specs = [
            benchmark("parser").value_stream(BASE_EVENTS // scale, seed=seed)
        ]
        # Reads follow whole ingest() calls, or end a (warm-up) session.
        block = min(INGEST_EVENTS, workload.warmup_events // scale)
    queries = max(workload.end_queries, 1) + (
        workload.queries_per_read
        * (workload.session_events // scale // max(workload.report_every, 1))
    )
    probes = 1024 // len(specs)
    streams = []
    for spec_stream in specs:
        base = np.ascontiguousarray(spec_stream.values, dtype=np.uint64)
        streams.append(
            Stream(
                spec_stream.name,
                int(spec_stream.universe),
                base,
                Oracle(base, block),
                _query_plan(base, int(spec_stream.universe), rng, queries),
                _query_plan(base, int(spec_stream.universe), rng, probes),
            )
        )
    return streams


# ----------------------------------------------------------------------
# One session
# ----------------------------------------------------------------------


@dataclass
class Read:
    """One report's answers, checked against the oracle after the session."""

    events: int
    epsilon: float
    snapshot_events: int
    hot: List[Tuple[int, int, int]]
    queries: List[Tuple[int, int, int]]


@dataclass
class Session:
    events: int
    setup_s: float = 0.0
    stream_s: float = 0.0
    session_s: float = 0.0
    cpu_s: float = 0.0
    report_ms: List[float] = field(default_factory=list)
    query_us: List[float] = field(default_factory=list)
    nodes: int = 0
    private_mb: float = 0.0
    transport: str = ""
    #: Ran open() to close() without an exception; only completed
    #: sessions enter the metrics.
    completed: bool = False
    reads: List[Read] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    undercount_max: float = 0.0
    #: Sum of undercount / (epsilon * n) over ``checked`` ranges.
    undercount_sum: float = 0.0
    checked: int = 0
    #: perf_counter interval of the stream window (traced accounting).
    window: Tuple[float, float] = (0.0, 0.0)
    stalls: int = 0
    peak_bytes: int = 0
    splits: int = 0
    merge_batches: int = 0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _worker_private_mb() -> float:
    """Largest private resident memory of a shard worker, in MB.

    A forked worker's RSS also counts every page it shares with this
    process, the benchmark's own arrays included; its private pages
    are what the worker itself holds.
    """
    largest_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/smaps_rollup") as rollup:
                private_kb = sum(
                    int(line.split()[1]) for line in rollup
                    if line.startswith(("Private_Clean:", "Private_Dirty:"))
                )
        except OSError:
            continue
        largest_kb = max(largest_kb, private_kb)
    return largest_kb / 1024.0


def run_session(workload: Workload, stream: Stream, total: int,
                hot_ranges: Callable, tracer=None) -> Session:
    from repro import RapConfig
    from repro.runtime.profiler import Profiler

    session = Session(events=total)
    base = stream.base
    profiler = Profiler(
        RapConfig(stream.universe, epsilon=EPSILON, backend="columnar"),
        executor="process",
        shards=SHARDS,
        shard_epsilon=SHARD_EPSILON,
        batch_size=BATCH_SIZE,
    )
    query_at = 0
    final = None

    def read(events: int, queries: int) -> None:
        nonlocal query_at
        session.attempted += 1 + queries
        if tracer is not None:
            tracer.begin_request("report")
        start = time.perf_counter()
        snap = profiler.snapshot()
        hot = hot_ranges(snap, HOT_FRACTION)
        session.report_ms.append((time.perf_counter() - start) * 1e3)
        if tracer is not None:
            tracer.end_request()
        answers = []
        for lo, hi in stream.queries[query_at:query_at + queries]:
            start = time.perf_counter()
            estimate = profiler.query(lo, hi)
            session.query_us.append((time.perf_counter() - start) * 1e6)
            answers.append((lo, hi, estimate))
        query_at += queries
        session.reads.append(
            Read(
                events,
                snap.config.epsilon,
                snap.events,
                [(r.lo, r.hi, r.inclusive_weight) for r in hot],
                answers,
            )
        )

    # Collect the previous session's garbage now, so a collection it
    # left due does not land inside this session's timed calls.
    gc.collect()
    cpu0 = time.process_time() + _children_cpu()
    opened = time.perf_counter()
    try:
        profiler.open()
        session.setup_s = time.perf_counter() - opened
        session.transport = profiler.transport
        done = 0
        window_start = time.perf_counter()
        while done < total:
            at = done % len(base)
            step = min(INGEST_EVENTS, total - done, len(base) - at)
            session.attempted += 1
            profiler.ingest(base[at:at + step])
            done += step
            if (
                workload.report_every
                and done % workload.report_every == 0
                and done < total
            ):
                read(done, workload.queries_per_read)
        profiler.drain()
        window_end = time.perf_counter()
        session.window = (window_start, window_end)
        session.stream_s = window_end - window_start
        read(done, workload.end_queries)
        session.private_mb = _worker_private_mb()
        final = profiler.close()
        session.nodes = final.node_count
        metrics = profiler.metrics
        session.stalls = metrics.transport_stalls
        session.peak_bytes = max(s.ring_peak_bytes for s in metrics.shards)
        session.splits = sum(s.splits for s in metrics.shards)
        session.merge_batches = sum(s.merge_batches for s in metrics.shards)
        session.completed = True
    except Exception as error:  # counted as a failed op, run goes on
        session.failed += 1
        session.errors.append(f"{type(error).__name__}: {error}")
    finally:
        if not profiler.closed:
            try:
                profiler.close()
            except Exception as error:
                session.errors.append(f"close: {error}")
    session.session_s = time.perf_counter() - opened
    session.cpu_s = time.process_time() + _children_cpu() - cpu0
    if final is not None and tracer is None:
        session.attempted += len(stream.probes)
        session.reads.append(
            Read(total, final.config.epsilon, final.events, [], [
                (lo, hi, final.estimate(lo, hi)) for lo, hi in stream.probes
            ])
        )
    check_session(session, stream)
    return session


def check_session(session: Session, stream: Stream) -> None:
    """Oracle: exact n, no overcount, undercount at most epsilon * n."""
    for read in session.reads:
        bound = read.epsilon * read.events
        ranges = [(lo, hi) for lo, hi, _ in read.hot + read.queries]
        if not ranges:
            continue
        los = np.array([lo for lo, _ in ranges], dtype=np.uint64)
        his = np.array([hi for _, hi in ranges], dtype=np.uint64)
        exact = stream.oracle.counts(read.events, los, his)
        estimates = np.array(
            [est for _, _, est in read.hot + read.queries], dtype=np.int64
        )
        under = exact - estimates
        bad = (under < 0) | (under > bound)
        session.undercount_max = max(
            session.undercount_max, float(under.max()) / bound
        )
        session.undercount_sum += float(under.sum()) / bound
        session.checked += len(under)
        report_bad = read.snapshot_events != read.events or bool(
            bad[: len(read.hot)].any()
        )
        session.failed += int(report_bad) + int(bad[len(read.hot):].sum())
        if report_bad or bad.any():
            session.errors.append(
                f"oracle: read at {read.events} events: "
                f"{int(bad.sum())} ranges out of bounds, snapshot holds "
                f"{read.snapshot_events}"
            )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _quantile(values: List[float], q: int, of: int) -> float:
    """``statistics.quantiles(values, n=of)[q - 1]`` for q/of."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=of)[q - 1]


def _trimmed_mean(values: List[float]) -> float:
    """Mean of ``values`` without their fastest and slowest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut:len(ordered) - cut])


def run_sessions(workload: Workload, streams: List[Stream], seconds: float,
                 scale: int, tracer=None,
                 on_session: Optional[Callable[[Session], None]] = None
                 ) -> List[Session]:
    """Sessions back to back for ``seconds``, whole rounds of streams."""
    from repro.core.hot_ranges import find_hot_ranges

    hot_ranges = find_hot_ranges
    if tracer is not None:
        hot_ranges = tracer.wrap(
            "hot", find_hot_ranges, lambda a, k, r: (len(r), 0)
        )
    total = workload.session_events // scale
    sessions: List[Session] = []
    start = time.perf_counter()
    while True:
        stream = streams[len(sessions) % len(streams)]
        session = run_session(workload, stream, total, hot_ranges, tracer)
        sessions.append(session)
        if on_session is not None:
            on_session(session)
        if (
            time.perf_counter() - start >= seconds
            and len(sessions) >= 3
            and len(sessions) % len(streams) == 0
        ):
            return sessions


def warm_up(workload: Workload, streams: List[Stream], scale: int) -> None:
    """One discarded session: imports, allocator and code paths warm."""
    from repro.core.hot_ranges import find_hot_ranges

    run_session(workload, streams[0], workload.warmup_events // scale,
                find_hot_ranges)


def latencies(sessions: List[Session]) -> Dict[str, float]:
    """Report and query percentiles: reported, never gated.

    Between runs on a shared host these move by more than any bound a
    gate may hold (see STEADINESS.md), so they are printed with the
    metadata and their sample counts, for reading only.
    """
    done = [s for s in sessions if s.completed]
    if not done:
        return {}
    reports = [ms for s in done for ms in s.report_ms]
    queries = [us for s in done for us in s.query_us]
    return {
        "report_ms_p50": statistics.median(reports),
        "report_ms_p90": _quantile(reports, 9, 10),
        "query_us_p50": statistics.median(queries),
        "query_us_p99": _quantile(queries, 99, 100),
    }


def end_to_end(sessions: List[Session]) -> Dict[str, Dict[str, float]]:
    """Metrics over the completed sessions; none if no session completed.

    A failed session is counted by the caller (``failed``) and left out
    here: it may have stopped before its stream window was timed.
    """
    sessions = [s for s in sessions if s.completed]
    if not sessions:
        return {}
    reports = [ms for s in sessions for ms in s.report_ms]
    values = {
        "setup_s": (statistics.median([s.setup_s for s in sessions]), "s"),
        "stream_eps": (
            statistics.median([s.events / s.stream_s for s in sessions]), "ev/s"
        ),
        "cpu_ns_per_event": (
            statistics.median([s.cpu_s / s.events * 1e9 for s in sessions]), "ns/ev"
        ),
        # Not the median: on this host a fold runs at one of two
        # speeds, and with about 24 reports per value-ingest run the
        # median jumps between them; the trimmed mean moves smoothly
        # with the share of slow reports (see STEADINESS.md).
        "report_ms_trimmed_mean": (_trimmed_mean(reports), "ms"),
        "session_s": (statistics.median([s.session_s for s in sessions]), "s"),
        # Deterministic per input; the mean over whole rounds of
        # streams repeats exactly for one seed.
        "snapshot_nodes": (
            sum(s.nodes for s in sessions) / len(sessions), "nodes"
        ),
        "worker_private_mb": (
            statistics.median([s.private_mb for s in sessions]), "MB"
        ),
        # Mean over every checked range: the maximum is printed with
        # the metadata, since it moves too much from seed to seed.
        "undercount_mean_eps": (
            sum(s.undercount_sum for s in sessions)
            / sum(s.checked for s in sessions),
            "ratio",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def sample_counts(sessions: List[Session]) -> Dict[str, int]:
    return {
        "sessions": len(sessions),
        "reports": sum(len(s.report_ms) for s in sessions),
        "queries": sum(len(s.query_us) for s in sessions),
    }


