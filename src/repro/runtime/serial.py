"""The serial executor: shard windows and trees in this process.

``SerialExecutor``, one of the two executors behind the
:class:`~repro.runtime.profiler.Profiler` front, flushes every shard's
:class:`~repro.runtime.window.CombiningWindow` inline on the calling
thread — no workers, deterministic, the oracle. It runs the same
window over the same frames at the same points as a process-executor
worker, so its shard trees are byte-identical to the workers'. The
sanitizer, when given, guards every shard tree with the front's ingest
lock: a mutation without it is a violation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import RapConfig
from ..core.tree import RapTree
from .window import CombiningWindow


class SerialExecutor:
    """Every shard's combining window and tree, on the calling thread."""

    name = "serial"
    #: In-process shards report no ingest failures: a failing flush
    #: raises straight out of the call that ran it.
    errors: Sequence[BaseException] = ()

    def __init__(
        self, config: RapConfig, shards: int, frame_events: int,
        sanitizer: object,
    ) -> None:
        self._trees: List[RapTree] = [
            RapTree.from_config(config) for _ in range(shards)
        ]
        self._windows = [CombiningWindow(frame_events) for _ in range(shards)]
        if sanitizer is not None:
            for index, tree in enumerate(self._trees):
                sanitizer.attach_tree(  # type: ignore[attr-defined]
                    tree, f"shard[{index}]", guard="Profiler._ingest_lock"
                )

    def open(self) -> None:
        """Nothing to start: the trees exist from construction."""

    def submit(
        self, shard: int, values: np.ndarray, counts: Optional[np.ndarray]
    ) -> None:
        """Push one frame into the shard's window, flushed when full."""
        window = self._windows[shard]
        if window.push(values, counts):
            window.flush(self._trees[shard])

    def sync(self, every: bool) -> Tuple[int, ...]:
        """Flush every window; the epoch key is the trees' generations."""
        for window, tree in zip(self._windows, self._trees):
            window.flush(tree)
        return tuple(tree.mutation_generation for tree in self._trees)

    def fold_inputs(self) -> Sequence[RapTree]:
        """The live shard trees; the fold reads them and keeps none."""
        return self._trees

    def shard_counters(self, shard: int) -> Dict[str, object]:
        """One shard's tree-side :class:`ShardMetrics` fields, read
        live; a serial shard has no transport, so those read zero."""
        tree = self._trees[shard]
        stats = tree.stats
        return {
            "splits": stats.splits,
            "merge_batches": stats.merge_batches,
            "node_count": tree.node_count,
        }

    def trees(self) -> Sequence[RapTree]:
        return self._trees

    def close(self) -> None:
        """Nothing to reap: the trees stay readable."""
