"""Tests for the runtime race sanitizer (RapSanitizer).

Clean sanitized runs must report zero violations and perturb nothing;
deliberately-broken runs — a shard tree mutated from a thread that
does not hold its guard lock, a lock released by a non-holder, a fold
outside the ingest lock — must each produce a recorded violation with
the happens-before log attached.
The ``rap sanitize`` CLI is exercised both clean and with
``--inject-race``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.checks.sanitizer import RapSanitizer, RapSanitizerError
from repro.cli import main as cli_main
from repro.core import RapConfig, RapTree
from repro.runtime import Profiler

UNIVERSE = 2**12


def sanitized_profiler(shards: int = 4, **options) -> Profiler:
    config = RapConfig(UNIVERSE, epsilon=0.1, debug_sanitize=True)
    return Profiler(config, shards=shards, **options)


class TestCleanRuns:
    def test_threaded_run_has_no_violations(self):
        values = [value % UNIVERSE for value in range(5000)]
        with sanitized_profiler() as profiler:
            profiler.ingest(np.asarray(values, dtype=np.uint64))
            snapshot = profiler.snapshot()
        assert snapshot.events == len(values)
        assert profiler.sanitizer.violations == ()
        report = profiler.sanitizer.report()
        assert report["locks_tracked"] == ["Profiler._ingest_lock"]
        assert report["events_logged"] > 0

    def test_sanitizer_absent_when_disabled(self):
        profiler = Profiler(RapConfig(UNIVERSE, epsilon=0.1), shards=2)
        assert profiler.sanitizer is None

    def test_events_carry_monotonic_logical_clock(self):
        with sanitized_profiler(shards=2) as profiler:
            profiler.ingest(np.arange(1000, dtype=np.uint64) % UNIVERSE)
            profiler.drain()
        events = profiler.sanitizer.events
        assert events, "a drained run must have logged activity"
        sequences = [event.seq for event in events]
        assert sequences == sorted(sequences)


class TestConfinementViolations:
    def test_cross_thread_mutation_is_caught_and_recorded(self):
        with sanitized_profiler() as profiler:
            profiler.ingest(np.arange(2000, dtype=np.uint64) % UNIVERSE)
            profiler.drain()
            caught = []

            def intrude() -> None:
                try:
                    profiler.shard_trees()[0].add(1)  # fault injection
                except RapSanitizerError as error:
                    caught.append(error)

            intruder = threading.Thread(target=intrude)
            intruder.start()
            intruder.join()
        assert len(caught) == 1
        assert "confined tree shard[0]" in str(caught[0])
        assert caught[0].events, "error must carry the happens-before log"
        assert len(profiler.sanitizer.violations) == 1

    def test_violation_does_not_corrupt_the_tree(self):
        values = np.arange(3000, dtype=np.uint64) % UNIVERSE
        with sanitized_profiler() as profiler:
            profiler.ingest(values)
            profiler.drain()

            def intrude() -> None:
                with pytest.raises(RapSanitizerError):
                    profiler.shard_trees()[0].add(1)  # fault injection

            intruder = threading.Thread(target=intrude)
            intruder.start()
            intruder.join()
            snapshot = profiler.close()
        # The blocked mutation never reached the tree.
        assert snapshot.events == len(values)


class TestLockAndQueueDiscipline:
    def test_release_by_non_holder_is_flagged(self):
        sanitizer = RapSanitizer()
        lock = sanitizer.track_lock(threading.Lock(), "demo.lock")
        lock.acquire()
        failures = []

        def rogue_release() -> None:
            try:
                lock.release()
            except RapSanitizerError as error:
                failures.append(error)

        rogue = threading.Thread(target=rogue_release)
        rogue.start()
        rogue.join()
        assert len(failures) == 1
        assert "does not hold it" in str(failures[0])

    def test_fold_outside_ingest_lock_is_flagged(self):
        sanitizer = RapSanitizer()
        sanitizer.track_lock(threading.Lock(), "Profiler._ingest_lock")
        with pytest.raises(RapSanitizerError):
            sanitizer.begin_fold("Profiler._ingest_lock")

    def test_confinement_tracking_follows_the_protocol(self):
        sanitizer = RapSanitizer()
        tree = RapTree.from_config(RapConfig(UNIVERSE, epsilon=0.1))
        sanitizer.attach_tree(tree, "solo")
        tree.add(1)  # unconfined: any thread may mutate
        tree.confine_to_current_thread()
        tree.add(2)  # owner mutates freely
        tree.unconfine()
        tree.add(3)
        assert sanitizer.violations == ()
        assert tree.events == 3

    def test_guarded_tree_mutation_needs_the_guard_lock(self):
        sanitizer = RapSanitizer()
        lock = sanitizer.track_lock(threading.Lock(), "demo.lock")
        tree = RapTree.from_config(RapConfig(UNIVERSE, epsilon=0.1))
        sanitizer.attach_tree(tree, "guarded", guard="demo.lock")
        with lock:
            tree.add(1)  # the lock holder mutates freely
        # Same thread, lock released: still a violation, and the
        # mutation never reaches the tree.
        with pytest.raises(RapSanitizerError, match="without holding demo.lock"):
            tree.add(2)
        assert tree.events == 1
        assert len(sanitizer.violations) == 1


class TestSanitizeCli:
    def test_clean_run_exits_zero(self, capsys):
        assert cli_main(
            ["sanitize", "gcc", "value", "--events", "5000"]
        ) == 0
        out = capsys.readouterr().out
        assert "no confinement or lock-discipline violations" in out

    def test_injected_race_is_detected_and_reported(self, capsys):
        assert cli_main(
            ["sanitize", "gcc", "value", "--events", "5000", "--inject-race"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 violation(s)" in out
        assert "confined tree shard[0]" in out
