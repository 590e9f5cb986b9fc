"""Public-API snapshot: pins the blessed v2 surface.

A failing test here means the public contract moved. That can be
deliberate — update the pinned lists *and* the README migration table
together — but it must never happen by accident.
"""

from __future__ import annotations

import inspect
import multiprocessing

import pytest

import repro
import repro.runtime as runtime
from repro import Profiler, RapConfig, RapTree

from tests.core.test_columnar_kernel import shm_segments

TOP_LEVEL_V2 = [
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

RUNTIME_SURFACE = [
    "DEFAULT_RING_BYTES",
    "HashPartitioner",
    "MIN_RING_BYTES",
    "Partitioner",
    "Profiler",
    "RangePartitioner",
    "RingConsumer",
    "RingProducer",
    "RingStalled",
    "RuntimeMetrics",
    "ShardMetrics",
    "ShmArena",
    "ShmAttachment",
    "WorkerCrashed",
    "make_partitioner",
    "sweep_prefix",
]


class TestSurfaceSnapshot:
    def test_top_level_all_is_pinned(self):
        assert sorted(repro.__all__) == TOP_LEVEL_V2

    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_runtime_all_is_pinned(self):
        assert sorted(runtime.__all__) == RUNTIME_SURFACE

    def test_version_is_v2(self):
        assert repro.__version__ == "2.0.0"

    def test_runtime_profiler_is_the_top_level_profiler(self):
        assert repro.Profiler is runtime.Profiler


class TestKeywordOnlyContracts:
    def test_rap_config_tuning_knobs_are_keyword_only(self):
        with pytest.raises(TypeError):
            RapConfig(256, 0.05)  # epsilon must be named
        config = RapConfig(256, epsilon=0.05)
        assert config.range_max == 256 and config.epsilon == 0.05

    def test_rap_config_range_max_still_positional(self):
        assert RapConfig(1024).range_max == 1024

    def test_profiler_knobs_are_keyword_only(self):
        with pytest.raises(TypeError):
            Profiler(RapConfig(256), 4)  # shards must be named

    def test_combine_many_epsilon_flag_is_keyword_only(self):
        from repro.core.combine import combine_many

        parameter = inspect.signature(combine_many).parameters[
            "allow_mismatched_epsilon"
        ]
        assert parameter.kind is inspect.Parameter.KEYWORD_ONLY


class TestExecutorSelection:
    """The executor= surface: config-level defaults, overrides, shims."""

    def test_config_declares_executor_and_shards(self):
        config = RapConfig(256, executor="serial", shards=3)
        assert config.executor == "serial" and config.shards == 3

    def test_config_defaults_flow_into_profiler(self):
        config = RapConfig(256, executor="serial", shards=2)
        profiler = Profiler.from_config(config)
        assert profiler.executor == "serial" and profiler.shards == 2

    def test_constructor_keywords_override_config(self):
        config = RapConfig(
            256, backend="columnar", executor="serial", shards=2
        )
        profiler = Profiler(config, shards=4, executor="process")
        assert profiler.executor == "process" and profiler.shards == 4

    def test_serial_is_the_default_and_thread_is_retired(self):
        assert RapConfig(256).executor == "serial"
        assert Profiler(RapConfig(256)).executor == "serial"
        with pytest.raises(ValueError, match="'serial' or 'process'"):
            RapConfig(256, executor="thread")
        with pytest.raises(ValueError, match="'serial' or 'process'"):
            Profiler(RapConfig(256), executor="thread")

    def test_profiler_has_seven_keyword_options(self):
        parameters = inspect.signature(Profiler).parameters
        assert list(parameters)[1:] == [
            "shards",
            "executor",
            "partition",
            "shard_epsilon",
            "batch_size",
            "ring_bytes",
            "clock",
        ]

    def test_process_executor_is_blessed(self):
        config = RapConfig(
            256, backend="columnar", executor="process", shards=2
        )
        assert Profiler.from_config(config).executor == "process"

    @staticmethod
    def assert_rejects_object_backend(build):
        # The object tree stays a library backend, but a Profiler runs
        # columnar shard trees only: it refuses before any tree, ring or
        # worker exists, and never overrides the config.
        before = shm_segments()
        with pytest.raises(ValueError, match='backend="columnar"'):
            build()
        assert multiprocessing.active_children() == []
        assert shm_segments() == before

    def test_process_executor_rejects_object_backend_actionably(self):
        config = RapConfig(256, backend="object", executor="process", shards=2)
        self.assert_rejects_object_backend(lambda: Profiler.from_config(config))

    def test_profiler_rejects_object_backend_for_process_executor(self):
        # Same single validation path when the knob arrives as an
        # override rather than a config field.
        self.assert_rejects_object_backend(
            lambda: Profiler(
                RapConfig(256, backend="object"), executor="process", shards=2
            )
        )

    def test_serial_executor_rejects_object_backend_actionably(self):
        self.assert_rejects_object_backend(
            lambda: Profiler(
                RapConfig(256, backend="object"), executor="serial", shards=2
            )
        )

    def test_unknown_executor_rejected_everywhere(self):
        with pytest.raises(ValueError, match="executor"):
            RapConfig(256, executor="fork")
        with pytest.raises(ValueError, match="executor"):
            Profiler(RapConfig(256), executor="fork")


class TestBlessedConstructors:
    def test_tree_from_config(self):
        config = RapConfig(256, epsilon=0.05)
        tree = RapTree.from_config(config)
        assert tree.config is config

    def test_profiler_from_config(self):
        config = RapConfig(256, epsilon=0.05)
        profiler = Profiler.from_config(config, shards=2, executor="serial")
        assert profiler.shards == 2 and not profiler.closed

    def test_deprecated_v1_trio_is_still_exported(self):
        assert callable(repro.rap_init)
        assert callable(repro.rap_add_points)
        assert callable(repro.rap_finalize)
