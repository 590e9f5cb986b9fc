"""Runtime race sanitizer: the dynamic counterpart of RAP-LINT013..017.

The static concurrency rules (:mod:`repro.checks.flow.concurrency`)
prove lock discipline and thread confinement over the code the analysis
can see; this module checks the same contracts on a *live* run. A
:class:`RapSanitizer` instruments a profiler's moving parts:

* shard trees get an assertion on every mutating call. A tree attached
  with a *guard* lock (the profiler's in-process shard trees, guarded
  by ``Profiler._ingest_lock``) may only be mutated by the thread
  holding that lock. Every tree is also checked against the
  ``confine_to_current_thread()`` / ``unconfine()`` protocol — a
  worker process's confined tree mutated from any other thread is a
  confinement violation, caught even on backends whose own
  ``_assert_owner`` checks are compiled out or bypassed;
* locks become tracked proxies that remember their holder, so a release
  from a non-holder (or a fold entered without the ingest lock) is
  flagged immediately;
* lock traffic, tree mutations and folds go into a bounded
  happens-before log with a logical sequence counter.

Violations raise :class:`RapSanitizerError` at the offending call, with
the tail of the happens-before log attached so the interleaving that
led there is visible. Enable via ``RapConfig(debug_sanitize=True)`` (the
:class:`~repro.runtime.profiler.Profiler` attaches a sanitizer to its
own trees and ingest lock) or replay a workload under instrumentation
with ``rap sanitize``.

Everything here uses a logical clock (a monotonically increasing
sequence number), never the wall clock: sanitized runs stay exactly as
deterministic as unsanitized ones (and RAP-LINT005 applies to this
package too).
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Mutating TreeBackend methods guarded by owner assertions.
TREE_MUTATORS: Tuple[str, ...] = (
    "add",
    "extend",
    "add_counted",
    "add_counted_arrays",
    "add_batch",
    "merge_now",
)

@dataclass(frozen=True)
class SanitizerEvent:
    """One entry in the happens-before log.

    ``seq`` is a process-wide logical timestamp: event A with a smaller
    ``seq`` than B was recorded before B (the log append is serialized
    under the sanitizer's own lock, so the order is total).
    """

    seq: int
    thread: str
    kind: str
    detail: str

    def render(self) -> str:
        return f"[{self.seq:06d}] {self.thread}: {self.kind} {self.detail}"


class RapSanitizerError(RuntimeError):
    """A confinement or lock-discipline contract was broken at runtime.

    Carries the tail of the happens-before log so the report shows the
    interleaving, not just the final bad call.
    """

    def __init__(self, message: str, events: Tuple[SanitizerEvent, ...]):
        self.violation = message
        self.events = events
        tail = "\n".join(f"  {event.render()}" for event in events[-12:])
        super().__init__(
            f"{message}\n"
            f"recent happens-before log (oldest first):\n{tail}"
            if events
            else message
        )


class _TrackedLock:
    """Proxy around a ``threading.Lock`` that remembers its holder."""

    def __init__(self, lock: Any, name: str, sanitizer: "RapSanitizer"):
        self._lock = lock
        self._name = name
        self._sanitizer = sanitizer
        self._holder: Optional[int] = None

    @property
    def name(self) -> str:
        return self._name

    def held_by_current_thread(self) -> bool:
        return self._holder == threading.get_ident()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._holder = threading.get_ident()
            self._sanitizer._record("lock.acquire", self._name)
        return acquired

    def release(self) -> None:
        if self._holder != threading.get_ident():
            self._sanitizer._violation(
                f"lock {self._name} released by thread "
                f"{threading.current_thread().name} which does not hold it"
            )
        self._holder = None
        self._sanitizer._record("lock.release", self._name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class RapSanitizer:
    """Dynamic checker for thread confinement and lock discipline.

    Instances are cheap and self-contained; attach one per profiler.
    All internal state is guarded by a private lock, so wrapped calls
    may race freely — the *log* stays consistent even when the code
    under test does not.
    """

    def __init__(self, log_capacity: int = 512) -> None:
        if log_capacity < 16:
            raise ValueError(
                f"log_capacity must be >= 16, got {log_capacity}"
            )
        self._seq = itertools.count()
        self._logged = 0
        self._state_lock = threading.Lock()
        self._events: Deque[SanitizerEvent] = deque(maxlen=log_capacity)
        self._violations: List[str] = []
        # id(tree) -> (label, owning (pid, thread ident) or None when
        # unconfined). The pid half makes a worker-confined tree reject
        # mutation from any other process too.
        self._tree_owner: Dict[
            int, Tuple[str, Optional[Tuple[int, int]]]
        ] = {}
        self._locks: List[_TrackedLock] = []
        # label -> latest report() dict received from a remote (worker
        # process) sanitizer; folded into this sanitizer's report.
        self._worker_reports: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def violations(self) -> Tuple[str, ...]:
        with self._state_lock:
            return tuple(self._violations)

    @property
    def events(self) -> Tuple[SanitizerEvent, ...]:
        with self._state_lock:
            return tuple(self._events)

    def report(self) -> Dict[str, object]:
        """Summary dict for CLI output and assertions in tests.

        Includes the latest summary merged from every worker-process
        sanitizer (see :meth:`merge_worker_report`); remote violations
        are folded into the top-level ``violations`` list, prefixed
        with the worker's label, so "no violations anywhere" stays a
        single assertion regardless of executor.
        """
        with self._state_lock:
            violations = list(self._violations)
            for label, summary in sorted(self._worker_reports.items()):
                for message in summary.get("violations", ()):
                    violations.append(f"[{label}] {message}")
            return {
                "events_logged": self._logged,
                "violations": violations,
                "trees_tracked": len(self._tree_owner),
                "locks_tracked": [lock.name for lock in self._locks],
                "workers": {
                    label: dict(summary)
                    for label, summary in sorted(
                        self._worker_reports.items()
                    )
                },
            }

    def merge_worker_report(
        self, label: str, summary: Dict[str, object]
    ) -> None:
        """Fold a worker-process sanitizer's ``report()`` into this one.

        The process executor runs one sanitizer inside each shard
        worker (the parent cannot wrap objects living in another
        address space); workers ship their summary dict back with
        every sync frame and the parent merges the latest one here,
        keyed by shard label.
        """
        with self._state_lock:
            self._worker_reports[label] = dict(summary)

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------

    def _record(self, kind: str, detail: str) -> None:
        event = SanitizerEvent(
            seq=next(self._seq),
            thread=threading.current_thread().name,
            kind=kind,
            detail=detail,
        )
        with self._state_lock:
            self._events.append(event)
            self._logged += 1

    def _violation(self, message: str) -> None:
        self._record("VIOLATION", message)
        with self._state_lock:
            self._violations.append(message)
            events = tuple(self._events)
        raise RapSanitizerError(message, events)

    # ------------------------------------------------------------------
    # Lock tracking
    # ------------------------------------------------------------------

    def track_lock(self, lock: Any, name: str) -> _TrackedLock:
        """Wrap ``lock`` in a holder-remembering proxy."""
        tracked = _TrackedLock(lock, name, self)
        with self._state_lock:
            self._locks.append(tracked)
        return tracked

    def assert_lock_held(self, name: str, what: str) -> None:
        """Flag ``what`` if the named tracked lock is not held here."""
        with self._state_lock:
            locks = list(self._locks)
        for tracked in locks:
            if tracked.name == name:
                if not tracked.held_by_current_thread():
                    self._violation(
                        f"{what} entered without holding {name}"
                    )
                return
        # An untracked lock is a wiring bug, not a race; fail loudly.
        raise ValueError(f"no tracked lock named {name!r}")

    # ------------------------------------------------------------------
    # Tree confinement
    # ------------------------------------------------------------------

    def attach_tree(
        self, tree: Any, label: str, guard: Optional[str] = None
    ) -> None:
        """Instrument a tree backend's mutating and confinement methods.

        ``guard`` names a tracked lock (see :meth:`track_lock`) that
        owns the tree: every mutation must then hold it, checked with
        :meth:`assert_lock_held`. Without a guard only the confinement
        protocol is checked. Wrapping is by instance-attribute
        shadowing, so only this one object is affected — the class and
        every other instance keep their unwrapped methods.
        """
        with self._state_lock:
            self._tree_owner[id(tree)] = (label, None)

        def wrap_confine(inner: Callable[[], None]) -> Callable[[], None]:
            def confine() -> None:
                owner = (os.getpid(), threading.get_ident())
                with self._state_lock:
                    self._tree_owner[id(tree)] = (label, owner)
                self._record("tree.confine", label)
                inner()

            return confine

        def wrap_unconfine(inner: Callable[[], None]) -> Callable[[], None]:
            def unconfine() -> None:
                with self._state_lock:
                    self._tree_owner[id(tree)] = (label, None)
                self._record("tree.unconfine", label)
                inner()

            return unconfine

        def wrap_mutator(
            method_name: str, inner: Callable[..., Any]
        ) -> Callable[..., Any]:
            def mutate(*args: Any, **kwargs: Any) -> Any:
                here = (os.getpid(), threading.get_ident())
                with self._state_lock:
                    _, owner = self._tree_owner[id(tree)]
                if owner is not None and owner != here:
                    where = (
                        "process" if owner[0] != here[0] else "thread"
                    )
                    self._violation(
                        f"confined tree {label} mutated via "
                        f".{method_name}() from the wrong {where} "
                        f"(thread {threading.current_thread().name}, "
                        f"pid {here[0]}); it is owned by (pid, thread) "
                        f"{owner}"
                    )
                if guard is not None:
                    self.assert_lock_held(
                        guard, f"confined tree {label}: .{method_name}()"
                    )
                self._record("tree.mutate", f"{label}.{method_name}()")
                return inner(*args, **kwargs)

            return mutate

        tree.confine_to_current_thread = wrap_confine(
            tree.confine_to_current_thread
        )
        tree.unconfine = wrap_unconfine(tree.unconfine)
        for method_name in TREE_MUTATORS:
            inner = getattr(tree, method_name, None)
            if inner is None:
                continue
            tree.__dict__[method_name] = wrap_mutator(method_name, inner)

    # ------------------------------------------------------------------
    # Fold protocol
    # ------------------------------------------------------------------

    def begin_fold(self, lock_name: str) -> None:
        """Assert the fold runs under the ingest lock; log the epoch."""
        self.assert_lock_held(lock_name, "snapshot fold")
        self._record("fold.begin", lock_name)

    def end_fold(self) -> None:
        self._record("fold.end", "")
