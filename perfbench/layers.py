"""The traced run: per-layer metrics from spans around public calls.

Half of the run's time goes to untraced sessions, half to traced ones
(the wrappers of ``tracer.py``); the
difference between the halves is the tracing overhead. Every per-layer
value is a mean per traced session, so deterministic counts repeat
exactly for one seed (sessions run in whole rounds of their streams).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from bench import Session, Stream, Workload, run_sessions
from tracer import Tracer, aggregate, read_worker_summaries

#: Per-layer metric -> unit, in the order they are printed.
UNITS: Dict[str, str] = {
    "partition.calls": "count",
    "partition.events": "count",
    "partition.self_s": "s",
    "chunk.self_s": "s",
    "ring.frames": "count",
    "ring.bytes": "B",
    "encode.self_s": "s",
    "ring.write_self_s": "s",
    "ring.stalls": "count",
    "ring.peak_bytes": "B",
    "decode.frames": "count",
    "decode.self_s": "s",
    "combine.events_in": "count",
    "combine.uniques_out": "count",
    "combine.keep_ratio": "ratio",
    "combine.self_s": "s",
    "kernel.update_calls": "count",
    "kernel.update_items": "count",
    "kernel.self_s": "s",
    "kernel.bootstrap_calls": "count",
    "kernel.bootstrap_s": "s",
    "kernel.splits": "count",
    "kernel.merge_batches": "count",
    "worker.busy_s": "s",
    "worker.idle_s": "s",
    "sync.calls": "count",
    "sync.wait_s": "s",
    "fold.calls": "count",
    "fold.self_s": "s",
    "fold.nodes_in": "count",
    "fold.nodes_out": "count",
    "attach.self_s": "s",
    "hot.calls": "count",
    "hot.self_s": "s",
    "hot.ranges": "count",
    "estimate.calls": "count",
    "estimate.self_s": "s",
    "open.self_s": "s",
    "close.self_s": "s",
    "shm.segments": "count",
    "shm.bytes": "B",
    "trace.overhead_stream_eps": "ratio",
    "trace.overhead_report_ms_p50": "ratio",
    "account.ingest_unattributed_share": "ratio",
    "account.report_unattributed_share": "ratio",
}

# Aggregate row layout from tracer.aggregate.
CALLS, DURATION, SELF, ITEMS, EVENTS = range(5)


class LayerTotals:
    """Sums over traced sessions; ``metrics`` divides by the session count."""

    def __init__(self) -> None:
        self.parent: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.worker: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.sums: Dict[str, float] = defaultdict(float)

    def add(self, session: Session, spans, workers, shm: Tuple[int, int]) -> None:
        for name, row in aggregate(spans).items():
            self._accumulate(self.parent[name], row)
        lo, hi = session.window
        top = [span for span in spans if span.parent is None]
        sums = self.sums
        sums["window_s"] += hi - lo
        sums["window_covered_s"] += sum(
            span.duration for span in top if lo <= span.start < hi
        )
        sums["report_s"] += sum(session.report_ms) / 1e3
        sums["report_covered_s"] += sum(
            span.duration for span in top
            if (span.request or "").startswith("report-")
        )
        sums["stalls"] += session.stalls
        sums["peak_bytes"] += session.peak_bytes
        sums["splits"] += session.splits
        sums["merge_batches"] += session.merge_batches
        sums["shm_segments"] += shm[0]
        sums["shm_bytes"] += shm[1]
        for summary in workers:
            for name, row in summary["layers"].items():
                self._accumulate(self.worker[name], row)
            sums["worker_cpu_s"] += summary["cpu_s"]
            sums["worker_spans_cpu_s"] += summary["spans_cpu_s"]
            sums["worker_wall_s"] += summary["wall_s"]
            sums["shm_segments"] += summary["shm_segments"]
            sums["shm_bytes"] += summary["shm_bytes"]

    @staticmethod
    def _accumulate(into: List[float], row: List[float]) -> None:
        for index, value in enumerate(row):
            into[index] += value

    def metrics(self, sessions: int) -> Dict[str, float]:
        p, w, s = self.parent, self.worker, self.sums
        update, boot = w["kernel.update"], w["kernel.bootstrap"]
        events_in = update[EVENTS] + boot[EVENTS]
        uniques_out = update[ITEMS] + boot[ITEMS]
        totals = {
            "partition.calls": p["partition"][CALLS],
            "partition.events": p["partition"][ITEMS],
            "partition.self_s": p["partition"][SELF],
            "chunk.self_s": p["chunk"][SELF],
            "ring.frames": p["encode"][CALLS],
            "ring.bytes": p["encode"][ITEMS],
            "encode.self_s": p["encode"][SELF],
            "ring.write_self_s": p["ring.write"][SELF],
            "ring.stalls": s["stalls"],
            "ring.peak_bytes": s["peak_bytes"],
            "decode.frames": w["decode"][ITEMS],
            "decode.self_s": w["decode"][SELF],
            "combine.events_in": events_in,
            "combine.uniques_out": uniques_out,
            # Worker CPU outside the CPU of the decode and kernel spans:
            # the combining buffer has no public entry point to wrap.
            "combine.self_s": s["worker_cpu_s"] - s["worker_spans_cpu_s"],
            "kernel.update_calls": update[CALLS],
            "kernel.update_items": update[ITEMS],
            "kernel.self_s": update[DURATION] + boot[DURATION],
            "kernel.bootstrap_calls": boot[CALLS],
            "kernel.bootstrap_s": boot[DURATION],
            "kernel.splits": s["splits"],
            "kernel.merge_batches": s["merge_batches"],
            "worker.busy_s": s["worker_cpu_s"],
            "worker.idle_s": s["worker_wall_s"] - s["worker_cpu_s"],
            "sync.calls": p["sync"][CALLS],
            "sync.wait_s": p["sync"][SELF] + p["query"][SELF],
            "fold.calls": p["fold"][CALLS],
            "fold.self_s": p["fold"][SELF],
            "fold.nodes_in": p["fold"][ITEMS],
            "fold.nodes_out": p["fold"][EVENTS],
            "attach.self_s": p["attach"][SELF],
            "hot.calls": p["hot"][CALLS],
            "hot.self_s": p["hot"][SELF],
            "hot.ranges": p["hot"][ITEMS],
            "estimate.calls": p["estimate"][CALLS],
            "estimate.self_s": p["estimate"][SELF],
            "open.self_s": p["open"][SELF],
            "close.self_s": p["close"][SELF],
            "shm.segments": s["shm_segments"],
            "shm.bytes": s["shm_bytes"],
        }
        values = {name: value / sessions for name, value in totals.items()}
        values["combine.keep_ratio"] = uniques_out / events_in if events_in else 0.0
        values["account.ingest_unattributed_share"] = (
            1 - s["window_covered_s"] / s["window_s"]
        )
        values["account.report_unattributed_share"] = (
            1 - s["report_covered_s"] / s["report_s"]
        )
        return values


def _stream_eps(sessions: List[Session]) -> float:
    return statistics.median(s.events / s.stream_s for s in sessions)


def _report_p50(sessions: List[Session]) -> float:
    return statistics.median(ms for s in sessions for ms in s.report_ms)


def traced_run(workload: Workload, streams: List[Stream], seconds: float,
               scale: int) -> Tuple[List[Session], Dict[str, Dict[str, float]]]:
    untraced = run_sessions(workload, streams, seconds / 2, scale)
    tracer = Tracer()
    totals = LayerTotals()
    read_fd = tracer.open_report_pipe()

    def collect(session: Session) -> None:
        workers = read_worker_summaries(read_fd)
        if session.completed:
            totals.add(session, tracer.spans, workers,
                       (tracer.shm_segments, tracer.shm_bytes))
        tracer.spans = []
        tracer.shm_segments = tracer.shm_bytes = 0

    tracer.install()
    try:
        traced = run_sessions(
            workload, streams, seconds / 2, scale,
            tracer=tracer, on_session=collect,
        )
    finally:
        tracer.uninstall()
        tracer.close_report_pipe(read_fd)
    # Metrics come from completed sessions only; the caller counts the
    # failed ones. With none completed in either half there are none.
    done_untraced = [s for s in untraced if s.completed]
    done_traced = [s for s in traced if s.completed]
    if not (done_untraced and done_traced):
        return untraced + traced, {}
    values = totals.metrics(len(done_traced))
    values["trace.overhead_stream_eps"] = (
        _stream_eps(done_untraced) / _stream_eps(done_traced) - 1
    )
    values["trace.overhead_report_ms_p50"] = (
        _report_p50(done_traced) / _report_p50(done_untraced) - 1
    )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in UNITS.items()
    }
    return untraced + traced, metrics
