"""Core Range Adaptive Profiling algorithm (the paper's contribution).

Public surface:

* :class:`RapConfig` / :class:`RapTree` — the adaptive profile tree with
  update, split and batched merge (Sections 2 and 3.1).
* :func:`find_hot_ranges` / :func:`hot_tree` — hot-range extraction
  (Section 4.1).
* :func:`rap_init` / :func:`rap_add_points` / :func:`rap_finalize` — the
  paper's C-style software API (Section 3.2).
* :mod:`repro.core.bounds` — worst-case memory formulas behind Figures 2
  and 3.
* :class:`MultiDimRapTree` — the multi-dimensional extension from the
  paper's conclusion.
* :class:`TreeBackend` / :class:`ColumnarRapTree` — the backend protocol
  and the struct-of-arrays tree selected by
  ``RapConfig(backend="columnar")``; construct through
  ``RapTree.from_config`` (RAP-LINT012 flags imports of the kernel's
  module internals outside :mod:`repro.core`). Its updates run in a C
  kernel compiled with the host's gcc; :class:`NativeKernelError` is
  raised when that kernel cannot be built or loaded.
"""

from .api import RapProfile, RapSummary, rap_add_points, rap_finalize, rap_init
from .backend import TreeBackend
from .columnar import ColumnarRapTree
from .combine import combine_many, combine_trees, split_stream_profile
from .config import MergeScheduler, RapConfig, bits_for_range, max_tree_height
from .hot_ranges import (
    DEFAULT_HOT_FRACTION,
    HotRange,
    coverage_of_hot_ranges,
    find_hot_ranges,
    hot_tree,
)
from .multidim import MultiDimConfig, MultiDimNode, MultiDimRapTree
from .native import NativeKernelError
from .node import RapNode, partition_range
from .quantiles import cdf_bounds, median_bounds, quantile, quantile_bounds
from .sampled import SampledRapTree
from .serialize import dump_to_file, dump_tree, load_from_file, load_tree
from .stats import TreeStats
from .tree import RapTree

__all__ = [
    "ColumnarRapTree",
    "DEFAULT_HOT_FRACTION",
    "HotRange",
    "MergeScheduler",
    "MultiDimConfig",
    "MultiDimNode",
    "MultiDimRapTree",
    "NativeKernelError",
    "RapConfig",
    "RapNode",
    "RapProfile",
    "RapSummary",
    "RapTree",
    "SampledRapTree",
    "TreeBackend",
    "TreeStats",
    "bits_for_range",
    "combine_many",
    "combine_trees",
    "coverage_of_hot_ranges",
    "dump_to_file",
    "dump_tree",
    "find_hot_ranges",
    "hot_tree",
    "load_from_file",
    "load_tree",
    "max_tree_height",
    "partition_range",
    "rap_add_points",
    "rap_finalize",
    "rap_init",
    "split_stream_profile",
    "cdf_bounds",
    "median_bounds",
    "quantile",
    "quantile_bounds",
]
