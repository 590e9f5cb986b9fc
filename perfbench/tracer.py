"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the runtime from outside the
program: methods on classes and functions bound in module namespaces.
Each call becomes a span (name, start, end, parent, request id) kept in
memory; a span's self time is its duration minus the durations of its
child spans. Nothing here is active unless :meth:`Tracer.install` runs,
and :meth:`Tracer.uninstall` restores every patched attribute.

Shard workers are forked inside ``Profiler.open()``, so they inherit
the wrappers. The tracer also wraps ``repro.runtime.worker.worker_main``
(the profiler resolves it at spawn time): each worker restarts the
tracer with an empty span list, and on exit writes one JSON summary of
its spans, its CPU time and its wall time to a pipe the parent reads
after ``close()`` has joined the workers.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A worker summary must fit one atomic pipe write.
_PIPE_ATOMIC = 4096


class Span:
    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "parent",
                 "request", "child_s", "items", "events")

    def __init__(self, name: str, start: float, cpu_start: float,
                 parent: Optional["Span"], request: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = start
        #: Process CPU time (``time.process_time``) at start and end.
        self.cpu_start = cpu_start
        self.cpu_end = cpu_start
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.items = 0
        self.events = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def inside(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


Measure = Callable[[tuple, dict, Any], Tuple[int, int]]


class Tracer:
    """Records spans around patched callables (one process at a time)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._counter = 0
        self.report_fd: Optional[int] = None
        self.warm_cpu_end = 0.0
        self.shm_segments = 0
        self.shm_bytes = 0

    # -- recording ------------------------------------------------------

    def begin_request(self, kind: str) -> None:
        self._counter += 1
        self.request = f"{kind}-{self._counter}"

    def end_request(self) -> None:
        self.request = None

    def wrap(self, name: str, fn: Callable, measure: Optional[Measure] = None,
             request: Optional[str] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if request is not None:
                tracer.begin_request(request)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), time.process_time(),
                        parent, tracer.request)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
                if request is not None:
                    tracer.end_request()
            if measure is not None:
                span.items, span.events = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: object, attr: str, name: str,
              measure: Optional[Measure] = None,
              request: Optional[str] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, measure, request))
        else:
            wrapped = self.wrap(name, original, measure, request)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer boundary (see README.md for the map)."""
        import numpy as np

        from repro.core import columnar, tree
        from repro.runtime import partition, profiler, ring, shm, worker

        def sizes(args, kwargs, result):
            values = args[1] if len(args) > 1 else None
            return (0 if values is None else len(values)), 0

        def frame_bytes(args, kwargs, result):
            return len(args[0]), 0

        def decoded(args, kwargs, result):
            return (0 if result is None else 1), 0

        def kernel(args, kwargs, result):
            if result is False:  # bootstrap declined; the update follows
                return 0, 0
            return len(args[1]), int(np.sum(args[2]))

        def fold(args, kwargs, result):
            trees = args[0]
            return sum(t.node_count for t in trees), result.node_count

        def warm_end(args, kwargs, result):
            self.warm_cpu_end = time.process_time()
            return 0, 0

        self.patch(profiler.Profiler, "open", "open")
        self.patch(profiler.Profiler, "close", "close")
        self.patch(profiler.Profiler, "ingest", "chunk")
        self.patch(profiler.Profiler, "drain", "sync")
        self.patch(profiler.Profiler, "snapshot", "sync")
        self.patch(profiler.Profiler, "query", "query", request="query")
        self.patch(partition.HashPartitioner, "split", "partition", sizes)
        self.patch(ring.RingProducer, "write_frame", "ring.write")
        self.patch(ring, "encode_frame_into", "encode", frame_bytes)
        self.patch(ring.RingConsumer, "try_next", "decode", decoded)
        self.patch(profiler, "combine_many", "fold", fold)
        self.patch(columnar.ColumnarRapTree, "attach_columns", "attach")
        self.patch(shm.ShmAttachment, "__init__", "attach")
        self.patch(columnar.ColumnarRapTree, "add_counted_arrays",
                   "kernel.update", kernel, request="flush")
        self.patch(columnar.ColumnarRapTree, "bootstrap_counted_arrays",
                   "kernel.bootstrap", kernel, request="flush")
        self.patch(tree.RapTree, "estimate", "estimate")
        self.patch(worker, "_warm_ingest_path", "warmup", warm_end)
        self._patch_segments(shm)
        self._patch_worker_main(worker)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_segments(self, shm_module) -> None:
        # Count segments the arenas create (ring slabs in the parent,
        # column slabs in the workers); attaches are not creations.
        real = shm_module.shared_memory
        tracer = self

        class _Counting:
            @staticmethod
            def SharedMemory(name=None, create=False, size=0):
                segment = real.SharedMemory(name=name, create=create, size=size)
                if create:
                    tracer.shm_segments += 1
                    tracer.shm_bytes += segment.size
                return segment

        self._patches.append((shm_module, "shared_memory", real))
        shm_module.shared_memory = _Counting

    def _patch_worker_main(self, worker_module) -> None:
        original = worker_module.worker_main
        tracer = self

        def traced_worker_main(*args, **kwargs):
            tracer.restart()
            try:
                original(*args, **kwargs)
            finally:
                tracer.write_worker_summary()

        self._patches.append((worker_module, "worker_main", original))
        worker_module.worker_main = traced_worker_main

    # -- worker side ----------------------------------------------------

    def restart(self) -> None:
        """Forget spans inherited across fork; the worker starts clean."""
        self.spans = []
        self._stack = []
        self.request = None
        self.warm_cpu_end = time.process_time()
        self.shm_segments = 0
        self.shm_bytes = 0

    def write_worker_summary(self) -> None:
        # Busy and idle time start when the warm-up ends: the warm-up
        # belongs to open(), before the worker reports ready.
        now = time.perf_counter()
        warm_end = max(
            (s.end for s in self.spans if s.name == "warmup"), default=now
        )
        spans = [s for s in self.spans
                 if s.name != "warmup" and not s.inside("warmup")]
        summary = {
            "wall_s": now - warm_end,
            "cpu_s": time.process_time() - self.warm_cpu_end,
            # CPU, not wall time, inside the top-level spans (decode and
            # kernel): a descheduled worker's spans run on the wall clock.
            "spans_cpu_s": sum(s.cpu_s for s in spans if s.parent is None),
            "shm_segments": self.shm_segments,
            "shm_bytes": self.shm_bytes,
            "layers": aggregate(spans),
        }
        data = (json.dumps(summary, separators=(",", ":")) + "\n").encode()
        if self.report_fd is not None and len(data) <= _PIPE_ATOMIC:
            os.write(self.report_fd, data)

    # -- parent side ----------------------------------------------------

    def open_report_pipe(self) -> int:
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)
        self.report_fd = write_fd
        return read_fd

    def close_report_pipe(self, read_fd: int) -> None:
        if self.report_fd is not None:
            os.close(self.report_fd)
            self.report_fd = None
        os.close(read_fd)


def aggregate(spans: List[Span]) -> Dict[str, List[float]]:
    """Per span name: [calls, duration, self time, items, events]."""
    table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
    for span in spans:
        row = table[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += span.self_s
        row[3] += span.items
        row[4] += span.events
    return dict(table)


def read_worker_summaries(read_fd: int) -> List[Dict[str, Any]]:
    """Read every summary the (already joined) workers wrote."""
    chunks = []
    while True:
        try:
            chunk = os.read(read_fd, 65536)
        except BlockingIOError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    lines = b"".join(chunks).decode().splitlines()
    return [json.loads(line) for line in lines if line]
