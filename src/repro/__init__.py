"""repro — Range Adaptive Profiling (RAP).

A from-scratch reproduction of *"Profiling over Adaptive Ranges"*
(Mysore, Agrawal, Sherwood, Shrivastava, Suri — CGO 2006): a streaming,
one-pass profiler that summarizes billions of events (PCs, load values,
memory addresses, ...) into a tree of adaptively refined ranges with a
user-chosen error bound and stream-length-independent memory.

Quick start (API v2)::

    from repro import Profiler, RapConfig, find_hot_ranges

    config = RapConfig(range_max=2**32, epsilon=0.01)
    with Profiler.from_config(config, shards=4) as profiler:
        profiler.ingest(event_values)          # any int iterable / ndarray
        snapshot = profiler.snapshot()         # consistent fold of shards
    for hot in find_hot_ranges(snapshot, hot_fraction=0.10):
        print(hot)

For a single in-process tree without the runtime,
``RapTree.from_config(config)`` is the direct construction path. The
v1 C-style calls (``rap_init`` / ``rap_add_points`` / ``rap_finalize``)
still work but emit ``DeprecationWarning`` — see the migration table in
``README.md``.

Sub-packages:

* :mod:`repro.core` — the RAP algorithm (trees, thresholds, merges,
  hot ranges, bounds, combination, multi-dim extension).
* :mod:`repro.runtime` — sharded concurrent ingestion service
  (:class:`Profiler`, partitioners, shared-memory rings, runtime
  metrics).
* :mod:`repro.hardware` — cycle-level model of the pipelined RAP engine
  (TCAM, arbiter, SRAM, event buffer) plus an area/energy/delay model.
* :mod:`repro.workloads` — synthetic SPEC-like benchmark programs that
  generate the paper's code/value/address event streams.
* :mod:`repro.simulator` — trace-driven CPU front end and two-level
  cache simulator (for miss-value and zero-load studies).
* :mod:`repro.baselines` — exact offline profiler, fixed-range profiler,
  Space-Saving, sampling, and a continuous-merge RAP variant.
* :mod:`repro.analysis` — error/memory/coverage metrics and hot-range
  tree rendering.
* :mod:`repro.experiments` — one module per paper figure/claim.
"""

from .core import (
    HotRange,
    MultiDimConfig,
    MultiDimRapTree,
    RapConfig,
    RapNode,
    RapProfile,
    RapSummary,
    RapTree,
    combine_many,
    combine_trees,
    dump_tree,
    find_hot_ranges,
    hot_tree,
    load_tree,
    rap_add_points,
    rap_finalize,
    rap_init,
)
from .runtime import Profiler, RuntimeMetrics, ShardMetrics

__version__ = "2.0.0"

__all__ = [
    "HotRange",
    "MultiDimConfig",
    "MultiDimRapTree",
    "Profiler",
    "RapConfig",
    "RapNode",
    "RapProfile",
    "RapSummary",
    "RapTree",
    "RuntimeMetrics",
    "ShardMetrics",
    "__version__",
    "combine_many",
    "combine_trees",
    "dump_tree",
    "find_hot_ranges",
    "hot_tree",
    "load_tree",
    "rap_add_points",
    "rap_finalize",
    "rap_init",
]
