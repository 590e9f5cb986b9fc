"""End-to-end benchmark of the process runtime, with a traced per-layer run.

One closed-loop caller (this process, no extra threads) drives
``Profiler(RapConfig(R, epsilon=0.01, backend="columnar"),
executor="process", shards=2, shard_epsilon=0.02, batch_size=16384)``
with streams from ``repro.workloads``, generated from ``--seed`` before
any timing. Every ``ingest()`` call carries 64k events.

Usage, from the repository root::

    python3 perfbench/run.py --workload value-ingest --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half traced (wrappers from ``tracer.py`` around
public calls) and prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's metadata. See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
from typing import Dict, List, Optional

import numpy as np

from bench import (
    BATCH_SIZE,
    EPSILON,
    ROOT,
    SHARD_EPSILON,
    SHARDS,
    WORKLOADS,
    Session,
    Workload,
    end_to_end,
    latencies,
    make_streams,
    run_sessions,
    sample_counts,
    warm_up,
)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(workload: Workload, seed: int, seconds: float, trace: int,
             scale: int, sessions: List[Session]) -> Dict[str, object]:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "executor": "process",
        "shards": SHARDS,
        "epsilon": EPSILON,
        "shard_epsilon": SHARD_EPSILON,
        "batch_size": BATCH_SIZE,
        "transport": sorted({s.transport for s in sessions}),
        "events_per_session": workload.session_events // scale,
        "samples": sample_counts(sessions),
        "latencies": latencies(sessions),
        "undercount_max_eps": max(s.undercount_max for s in sessions),
        "errors": [e for s in sessions for e in s.errors][:10],
    }


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker and wait for it to end.

    CPython starts the tracker as a separate process the first time
    shared memory is used and lets it exit on its own after this
    process is gone, so without this it outlives the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        stop_resource_tracker()


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=int, default=1,
        help="divide every event count by this power of two (tests only)",
    )
    args = parser.parse_args(argv)
    if args.scale < 1 or args.scale & (args.scale - 1):
        parser.error("--scale must be a power of two")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    streams = make_streams(workload, args.seed, args.scale)
    warm_up(workload, streams, args.scale)
    if args.trace:
        from layers import traced_run

        sessions, metrics = traced_run(
            workload, streams, args.seconds, args.scale
        )
    else:
        sessions = run_sessions(workload, streams, args.seconds, args.scale)
        metrics = end_to_end(sessions)
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    print(json.dumps({"meta": metadata(workload, args.seed, args.seconds,
                                       args.trace, args.scale, sessions)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
