"""The compiled columnar kernel against the object backend, and its build.

Differential: a ``ColumnarRapTree`` and a ``RapTree`` take the same
operations — ``add``, ``extend``, ``add_counted`` with unsorted pairs,
``add_batch``, ``add_counted_arrays`` (``add_counted`` of the zipped
columns on the object side) and runs of back-to-back ``merge_now``
calls (a second merge with no update between finds the object tree's
root clean) — over universes up to 2**64, counts up to 2**40, merges
that fire mid-run and column arrays that grow mid-ingest. The two must
serialize identically and keep the same ``TreeStats``, field for field,
including the float ``node_seconds``. One case drives counters and
thresholds across 2**53, where a float64 comparison of the counter would
round.

Build: the kernel is compiled with the host's gcc and there is no
Python fallback, so a missing compiler must fail columnar construction
and ``Profiler.open()`` with a typed error (and leave no worker or
shared-memory segment behind), while the object backend keeps working.
The source must also compile cleanly under ``-Wall -Wextra -Werror``.
"""

from __future__ import annotations

import multiprocessing
import os
import stat
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ColumnarRapTree, RapConfig, RapTree, dump_tree
from repro.core import native
from repro.core.combine import combine_by_descent, combine_many
from repro.runtime import Profiler

STATS_FIELDS = (
    "events",
    "updates",
    "splits",
    "merge_batches",
    "merge_scan_visits",
    "max_nodes",
    "node_seconds",
    "merge_points",
    "timeline",
)


def assert_same(obj: RapTree, col: ColumnarRapTree) -> None:
    assert dump_tree(obj) == dump_tree(col)
    for field in STATS_FIELDS:
        assert getattr(obj.stats, field) == getattr(col.stats, field), field
    col.check_invariants()


def apply(tree, op) -> None:
    kind, payload = op
    if kind == "add":
        tree.add(*payload)
    elif kind == "extend":
        tree.extend(payload)
    elif kind == "add_counted":
        tree.add_counted(payload)
    elif kind == "add_batch":
        tree.add_batch(payload)
    elif kind == "merge_now":
        for _ in range(payload):
            tree.merge_now()
    elif isinstance(tree, ColumnarRapTree):
        values, counts = payload
        tree.add_counted_arrays(
            np.asarray(values, dtype=np.uint64),
            np.asarray(counts, dtype=np.int64),
        )
    else:
        tree.add_counted(list(zip(*payload)))


@st.composite
def sessions(draw, max_count: int = 2**40):
    universe = draw(st.sampled_from([2**8, 2**16, 2**32, 2**64]))
    config = RapConfig(
        universe,
        epsilon=draw(st.sampled_from([0.5, 0.1, 0.02])),
        branching=draw(st.integers(2, 8)),
        merge_initial_interval=draw(st.sampled_from([8, 64, 1024])),
        min_split_threshold=draw(st.sampled_from([0.0, 1.0, 7.5])),
        timeline_sample_every=draw(st.sampled_from([0, 0, 0, 97])),
    )
    # A few hot values keep splits cascading; the rest spread out.
    hot = draw(st.lists(st.integers(0, universe - 1), min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(hot), st.integers(0, universe - 1))
    count = st.one_of(st.integers(1, 20), st.integers(1, max_count))
    pair = st.tuples(value, count)
    op = st.one_of(
        st.tuples(st.just("add"), pair),
        st.tuples(st.just("extend"), st.lists(value, max_size=400)),
        st.tuples(st.just("add_counted"), st.lists(pair, max_size=200)),
        st.tuples(st.just("add_batch"), st.lists(pair, max_size=200)),
        st.tuples(st.just("merge_now"), st.integers(1, 3)),
        st.tuples(
            st.just("add_counted_arrays"),
            st.lists(pair, max_size=200).map(
                lambda pairs: ([v for v, _ in pairs], [c for _, c in pairs])
            ),
        ),
    )
    return config, draw(st.lists(op, min_size=1, max_size=8))


class TestDifferential:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sessions())
    def test_same_tree_and_stats(self, session):
        config, ops = session
        obj = RapTree.from_config(config.with_updates(backend="object"))
        col = RapTree.from_config(config.with_updates(backend="columnar"))
        for op in ops:
            apply(obj, op)
            apply(col, op)
        assert_same(obj, col)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counters_and_thresholds_across_2_pow_53(self, data):
        # eps / H = 1/2: the split threshold is n / 2, so as n passes
        # 2**54 thresholds pass 2**53, with counters on both sides of
        # them, where float64 spacing is 2 and more.
        config = RapConfig(
            2**8, epsilon=1.0, branching=16, merge_initial_interval=2**40
        )
        near = st.integers(2**53 - 64, 2**53 + 64)
        start = data.draw(st.integers(2**54 - 2**10, 2**54 - 1))
        ops = [("add", (data.draw(st.integers(0, 255)), start))] + [
            (
                data.draw(st.sampled_from(["add", "add_counted"])),
                (data.draw(st.integers(0, 255)), data.draw(near)),
            )
            for _ in range(data.draw(st.integers(1, 24)))
        ]
        obj = RapTree.from_config(config.with_updates(backend="object"))
        col = RapTree.from_config(config.with_updates(backend="columnar"))
        for kind, (value, count) in ops:
            for tree in (obj, col):
                if kind == "add":
                    tree.add(value, count)
                else:
                    tree.add_counted([(value, count), (255 - value, 3)])
        assert col.events > 2**54
        assert_same(obj, col)

    def test_columns_grow_mid_ingest(self):
        grows = []

        def allocator(name, dtype, capacity):
            grows.append(capacity)
            return np.zeros(capacity, dtype=dtype)

        config = RapConfig(2**64, epsilon=0.01, merge_initial_interval=64)
        col = ColumnarRapTree(config, allocator=allocator)
        obj = RapTree.from_config(config.with_updates(backend="object"))
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        counts = rng.integers(1, 2**20, size=3000, dtype=np.int64)
        col.add_counted_arrays(values, counts)
        obj.add_counted(list(zip(values.tolist(), counts.tolist())))
        assert max(grows) > 64 and col.stats.merge_batches > 3
        assert_same(obj, col)

    @pytest.mark.parametrize("bad", [(5, 0), (-1, 1), (2**16, 1)])
    def test_a_bad_item_raises_after_the_items_before_it(self, bad):
        config = RapConfig(2**16, epsilon=0.05, merge_initial_interval=16)
        pairs = [(v * 37 % 2**16, 1 + v % 5) for v in range(300)]
        pairs[150] = bad
        obj = RapTree.from_config(config.with_updates(backend="object"))
        col = RapTree.from_config(config.with_updates(backend="columnar"))
        messages = []
        for tree in (obj, col):
            with pytest.raises(ValueError) as raised:
                tree.add_counted(pairs)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert_same(obj, col)

    def test_attached_columns_refuse_updates(self):
        config = RapConfig(2**16, backend="columnar")
        live = RapTree.from_config(config)
        live.extend(range(0, 2**16, 7))
        columns = {
            name: getattr(live, name) for name in ColumnarRapTree.COLUMN_DTYPES
        }
        attached = ColumnarRapTree.attach_columns(
            config, columns, live.column_state()
        )
        before = dump_tree(live)
        with pytest.raises(ValueError, match="read-only"):
            attached.add(5)
        with pytest.raises(ValueError, match="read-only"):
            attached.merge_now()
        assert dump_tree(live) == before
        assert attached.stats.merge_batches == 0
        assert attached.merge_scheduler.batches_fired == (
            live.merge_scheduler.batches_fired
        )
        copy = attached.clone()
        copy.add(5)
        assert copy.events == live.events + 1

    def test_merge_frees_slots_in_ascending_order(self):
        config = RapConfig(2**64, epsilon=0.02, merge_initial_interval=2**40)
        col = RapTree.from_config(config.with_updates(backend="columnar"))
        rng = np.random.default_rng(5)
        col.add_counted_arrays(
            rng.integers(0, 2**64, size=4000, dtype=np.uint64),
            rng.integers(1, 50, size=4000, dtype=np.int64),
        )
        # Two heavy items raise the merge threshold past the weight of
        # most subtrees the early splits grew.
        col.add_counted_arrays(
            np.array([3, 2**63], dtype=np.uint64),
            np.array([10**6, 10**6], dtype=np.int64),
        )
        size = col._size  # noqa: SLF001
        was_live = col._live[:size].copy()  # noqa: SLF001
        top = col._free_top  # noqa: SLF001
        removed = col.merge_now()
        freed = col._free_slots[top : col._free_top]  # noqa: SLF001
        assert removed == freed.size > 100
        assert np.all(np.diff(freed) > 0)
        gone = was_live & ~col._live[:size]  # noqa: SLF001
        assert np.array_equal(freed, np.flatnonzero(gone))
        col.check_invariants()

    def test_event_total_past_int64_raises(self):
        col = RapTree.from_config(RapConfig(2**16, backend="columnar"))
        col.add(7, 2**62)
        with pytest.raises(OverflowError):
            col.add_counted([(8, 2**62), (9, 1)])
        assert col.events == 2**62
        col.check_invariants()


@pytest.fixture
def no_compiler(monkeypatch):
    """A process that has not loaded the kernel, on a host without gcc."""
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "_find_compiler", lambda: None)


def shm_segments() -> list:
    try:
        return sorted(e for e in os.listdir("/dev/shm") if e.startswith("rap-"))
    except OSError:
        return []


class TestBuild:
    def test_tree_construction_fails_typed(self, no_compiler):
        with pytest.raises(native.NativeKernelError, match="no C compiler"):
            RapTree.from_config(RapConfig(2**16, backend="columnar"))

    def test_process_open_fails_before_any_worker(self, no_compiler):
        before = shm_segments()
        profiler = Profiler(
            RapConfig(2**16, backend="columnar"), executor="process", shards=2
        )
        with pytest.raises(native.NativeKernelError, match="gcc"):
            profiler.open()
        assert multiprocessing.active_children() == []
        assert shm_segments() == before

    def test_object_backend_needs_no_compiler(self, no_compiler):
        tree = RapTree.from_config(RapConfig(2**16, backend="object"))
        tree.extend(range(1000))
        assert tree.events == 1000

    def test_object_fold_needs_no_compiler(self, no_compiler):
        config = RapConfig(2**64, epsilon=0.05, backend="object")
        shards = []
        for seed in (1, 2, 3):
            tree = RapTree.from_config(config)
            rng = np.random.default_rng(seed)
            tree.extend(rng.integers(0, 2**64, 800, dtype=np.uint64).tolist())
            tree.extend([seed] * 300)
            shards.append(tree)
        folded = combine_many(shards)
        assert type(folded) is RapTree
        folded.check_invariants()
        assert dump_tree(folded) == dump_tree(combine_by_descent(shards))
        assert native._loaded is None

    def test_default_profiler_fails_typed_without_compiler(self, no_compiler):
        before = shm_segments()
        with pytest.raises(native.NativeKernelError, match="no C compiler"):
            Profiler(RapConfig(2**16))
        assert multiprocessing.active_children() == []
        assert shm_segments() == before

    def test_compiler_errors_are_reported(self, monkeypatch, tmp_path):
        compiler = tmp_path / "gcc"
        compiler.write_text("#!/bin/sh\necho 'cc1: out of cheese' >&2\nexit 3\n")
        compiler.chmod(compiler.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "_find_compiler", lambda: str(compiler))
        with pytest.raises(native.NativeKernelError, match="out of cheese"):
            RapTree.from_config(RapConfig(2**16, backend="columnar"))
        assert not [
            entry
            for entry in os.listdir(native._CACHE_DIR)
            if entry.endswith(".tmp")
        ]

    def test_kernel_source_compiles_without_warnings(self):
        compiler = native._find_compiler()
        if compiler is None:
            pytest.skip("gcc is not on PATH")
        result = subprocess.run(
            [
                compiler, "-std=gnu11", "-Wall", "-Wextra", "-Werror",
                "-fsyntax-only", str(native._SOURCE),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_library_is_cached_by_source_hash(self):
        library = native.load_kernel()
        assert native.load_kernel() is library
        path = native._library_path(
            native._find_compiler(), native._SOURCE.read_bytes()
        )
        assert path.exists() and path.parent == native._CACHE_DIR
