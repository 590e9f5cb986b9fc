"""Concurrency rules RAP-LINT013..017: confinement, locks, shared state.

These rules combine the intraprocedural dataflow engine (CFG + taint
lattice, :mod:`repro.checks.flow`) with the per-module interprocedural
call graph (:mod:`repro.checks.callgraph`). They statically enforce the
invariants the sharded runtime relies on — the same invariants
:class:`repro.checks.sanitizer.RapSanitizer` asserts dynamically:

* **RAP-LINT013 confined-tree-escape** — a value pinned by
  ``confine_to_current_thread()`` (taint kind ``confined``) is published
  across a thread boundary — passed to ``threading.Thread``/
  ``.submit()``, ``.put()`` onto a queue, stored into a shared
  attribute/container — without going through the snapshot/fold
  protocol (``clone()``/``combine_many`` launder the kind).
* **RAP-LINT014 lock-without-release** — a raw ``.acquire()`` with some
  CFG path to the function exit that never releases (forward dataflow,
  same engine as RAP-LINT010's open-handle tracking).
* **RAP-LINT015 lock-order-inversion** — two locks acquired in both
  orders across the module, through lexical nesting or resolvable call
  chains (deadlock precondition; witness shows both chains).
* **RAP-LINT016 blocking-under-lock** — a blocking call (``.wait()``,
  ``.join()``, queue ``put``/``get``, sleeps, IO) while holding a lock.
  Waiting on a ``threading.Condition`` constructed *from* the held lock
  is the documented protocol (the wait releases it) and is exempt.
* **RAP-LINT017 unlocked-shared-buffer** — a ``self.<attr>`` numpy
  buffer touched from both a thread-entry method (resolved through the
  call graph) and coordinator methods, mutated in place with no lock
  held.

Every violation carries a ``flow_trace`` witness rendered by
``rap lint --explain`` — the confine site and alias chain for 013, both
acquisition chains for 015, the allocation/spawn/mutation triple for
017.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..callgraph import (
    BlockingSite,
    CallGraph,
    FunctionSummary,
    build_callgraph,
    canonical_name,
    is_lock_name,
)
from ..lint.rules import (
    LintContext,
    Rule,
    Violation,
    _dotted,
    _resolved_call_name,
)
from .cfg import CFGNode
from .rules import (
    FlowRule,
    UnitAnalysis,
    _executed_exprs,
    _source_line,
    _steps,
    _unit_analyses,
)
from .solver import DataflowProblem, solve
from .taint import CONFINE_METHOD, KIND_CONFINED

#: Functions that *implement* a lock abstraction delegate acquire and
#: release across method boundaries by design; RAP-LINT014 skips them.
_LOCK_PROTOCOL_METHODS = frozenset(
    {"acquire", "release", "locked", "__enter__", "__exit__"}
)

Steps = List[Tuple[int, int, str]]


def _callgraph(context: LintContext) -> CallGraph:
    """Per-file call graph, cached on the context across rules."""
    cached = getattr(context, "_callgraph", None)
    if cached is not None:
        return cached
    graph = build_callgraph(context.tree)
    context._callgraph = graph  # type: ignore[attr-defined]
    return graph


def _names_in_args(call: ast.Call) -> Iterator[ast.Name]:
    """Every plain-name load appearing in a call's arguments."""
    roots: List[ast.AST] = list(call.args)
    roots.extend(keyword.value for keyword in call.keywords)
    for root in roots:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub


class ConfinedEscapeRule(FlowRule):
    code = "RAP-LINT013"
    name = "confined-tree-escape"
    kind = "concurrency"
    catches = (
        "a thread-confined tree published across a thread boundary"
    )
    rationale = (
        "a shard tree pinned by confine_to_current_thread() is owned by "
        "exactly one worker; handing the live object to another thread "
        "(Thread args, executor submit, queue put, shared attribute) "
        "races its mutations against the owner and voids the "
        "conservation proof — only snapshot/fold copies may cross"
    )
    example = (
        "tree.confine_to_current_thread()\n"
        "worker = threading.Thread(target=run, args=(tree,))"
    )
    fix = (
        "publish a copy instead: tree.clone() or the snapshot/fold "
        "protocol (combine_many folds per-thread trees on an epoch "
        "boundary); or unconfine() first if ownership really transfers"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for analysis in _unit_analyses(context):
            confine_sites = self._confine_sites(analysis)
            if not confine_sites:
                continue
            taint = analysis.taint
            for node in analysis.cfg.code_nodes():
                seen: Set[Tuple[str, str]] = set()
                for name_node, how in self._publications(
                    node, analysis.aliases
                ):
                    name = name_node.id
                    if (name, how) in seen:
                        continue
                    if KIND_CONFINED not in taint.kinds_before(
                        node.id, name
                    ):
                        continue
                    seen.add((name, how))
                    yield self._escape(
                        context, analysis, node, name_node, name, how,
                        confine_sites,
                    )

    def _escape(
        self,
        context: LintContext,
        analysis: UnitAnalysis,
        node: CFGNode,
        name_node: ast.Name,
        name: str,
        how: str,
        confine_sites: Dict[str, Tuple[int, int]],
    ) -> Violation:
        trace: Steps = []
        site = confine_sites.get(name) or next(iter(confine_sites.values()))
        trace.append(
            (
                site[0],
                site[1],
                f"pinned to its worker thread: "
                f"{_source_line(context, site[0])}",
            )
        )
        trace.extend(analysis.taint.trace(node.id, name, KIND_CONFINED))
        line = getattr(name_node, "lineno", node.line)
        trace.append(
            (
                line,
                getattr(name_node, "col_offset", node.col),
                f"escape: {_source_line(context, line)}",
            )
        )
        return self.flow_violation(
            context,
            name_node,
            f"confined tree {name!r} {how} without going through the "
            f"snapshot/fold protocol; publish a clone() or snapshot "
            f"instead",
            trace,
        )

    @staticmethod
    def _confine_sites(
        analysis: UnitAnalysis,
    ) -> Dict[str, Tuple[int, int]]:
        sites: Dict[str, Tuple[int, int]] = {}
        for node in analysis.cfg.code_nodes():
            for expr in _executed_exprs(node):
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == CONFINE_METHOD
                    and isinstance(expr.func.value, ast.Name)
                ):
                    sites.setdefault(
                        expr.func.value.id,
                        (expr.lineno, expr.col_offset),
                    )
        return sites

    def _publications(
        self, node: CFGNode, aliases: Dict[str, str]
    ) -> Iterator[Tuple[ast.Name, str]]:
        for expr in _executed_exprs(node):
            if isinstance(expr, ast.Call):
                yield from self._call_publications(expr, aliases)
        stmt = node.stmt
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                shared = self._shared_store_target(target)
                if shared is None:
                    continue
                for sub in ast.walk(stmt.value):
                    if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load
                    ):
                        yield sub, f"stored into shared location {shared}"

    @staticmethod
    def _shared_store_target(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Attribute):
            return _dotted(target) or "<attribute>"
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            base = _dotted(target.value) or "<attribute>"
            return f"{base}[...]"
        return None

    @staticmethod
    def _call_publications(
        call: ast.Call, aliases: Dict[str, str]
    ) -> Iterator[Tuple[ast.Name, str]]:
        resolved = _resolved_call_name(call, aliases)
        if resolved == "threading.Thread":
            for name in _names_in_args(call):
                yield name, "passed into threading.Thread(...)"
            return
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "submit":
            for name in _names_in_args(call):
                yield name, "submitted to an executor"
        elif func.attr in ("put", "put_nowait"):
            for name in _names_in_args(call):
                yield name, f"published via .{func.attr}() onto a queue"
        elif func.attr == "append" and isinstance(
            func.value, ast.Attribute
        ):
            container = _dotted(func.value) or "<attribute>"
            for name in _names_in_args(call):
                yield name, f"appended to shared container {container}"


class LockBalanceRule(FlowRule):
    code = "RAP-LINT014"
    name = "lock-without-release"
    kind = "concurrency"
    catches = "a raw .acquire() some CFG path never releases"
    rationale = (
        "a lock acquired with .acquire() and not released on every "
        "path to the exit (early return, exception hop, missed branch) "
        "deadlocks the next acquirer; `with lock:` makes the balance "
        "structural, raw acquire leaves it to path coverage"
    )
    example = (
        "lock.acquire()\n"
        "if not ready:\n"
        "    return None               # exits still holding the lock\n"
        "lock.release()"
    )
    fix = (
        "prefer `with lock:`; if the hold region genuinely spans "
        "scopes, release in a try/finally so every path (including "
        "exceptions) releases"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        bindings = _callgraph(context).bindings
        for analysis in _unit_analyses(context):
            leaf = analysis.unit.name.rsplit(".", 1)[-1]
            if leaf in _LOCK_PROTOCOL_METHODS:
                continue  # lock wrappers delegate acquire/release by design
            yield from self._check_unit(context, analysis, bindings)

    def _check_unit(
        self, context: LintContext, analysis: UnitAnalysis, bindings
    ) -> Iterator[Violation]:
        cfg = analysis.cfg
        class_name = (
            analysis.unit.classes[-1] if analysis.unit.classes else None
        )

        def lock_call(node: CFGNode, method: str) -> Optional[str]:
            for expr in _executed_exprs(node):
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == method
                ):
                    canon = canonical_name(
                        _dotted(expr.func.value), class_name
                    )
                    if is_lock_name(canon, bindings):
                        return canon
            return None

        acquire_sites: Dict[int, str] = {}
        for node in cfg.code_nodes():
            name = lock_call(node, "acquire")
            if name is not None:
                acquire_sites[node.id] = name
        if not acquire_sites:
            return

        Env = Tuple[Tuple[str, frozenset], ...]

        def transfer(node: CFGNode, env: Env) -> Env:
            if node.stmt is None:
                return env
            state = {name: sites for name, sites in env}
            released = lock_call(node, "release")
            if released is not None:
                state.pop(released, None)
            acquired = acquire_sites.get(node.id)
            if acquired is not None:
                state[acquired] = (
                    state.get(acquired, frozenset()) | {node.id}
                )
            return tuple(sorted(state.items()))

        def join(values) -> Env:
            merged: Dict[str, frozenset] = {}
            for env in values:
                for name, sites in env:
                    merged[name] = merged.get(name, frozenset()) | sites
            return tuple(sorted(merged.items()))

        problem: DataflowProblem = DataflowProblem(
            direction="forward",
            boundary=(),
            bottom=(),
            transfer=transfer,
            join=join,
        )
        solution = solve(cfg, problem)
        for name, sites in sorted(dict(solution.inputs[cfg.exit]).items()):
            for site_id in sorted(sites):
                site = cfg.nodes[site_id]
                trace = [
                    (
                        site.line,
                        site.col,
                        f"acquired: {_source_line(context, site.line)}",
                    ),
                    (
                        site.line,
                        site.col,
                        f"a path reaches the exit of "
                        f"{analysis.unit.name!r} still holding {name}",
                    ),
                ]
                yield self.flow_violation(
                    context,
                    site.stmt if site.stmt is not None else ast.Pass(),
                    f"lock {name} is acquired here but not released on "
                    f"every path to the exit; use `with` or release in "
                    f"a finally",
                    trace,
                )


class LockOrderRule(Rule):
    code = "RAP-LINT015"
    name = "lock-order-inversion"
    kind = "concurrency"
    catches = "two locks acquired in both orders across the module"
    rationale = (
        "two threads taking the same pair of locks in opposite orders "
        "is the classic deadlock precondition; the inversion usually "
        "hides across function boundaries, so the check follows "
        "resolvable call chains, not just lexical nesting"
    )
    example = (
        "def fold():                       # A then B\n"
        "    with state_lock:\n"
        "        with merge_lock: ...\n"
        "def audit():                      # B then A — inversion\n"
        "    with merge_lock:\n"
        "        with state_lock: ..."
    )
    fix = (
        "pick one global acquisition order (document it where the "
        "locks are created) and restructure the latecomer; or collapse "
        "the pair into one lock if they always guard the same state"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        graph = _callgraph(context)
        for conflict in graph.lock_order_conflicts():
            steps: Steps = list(conflict.forward)
            steps.append(
                (
                    conflict.reverse[0][0],
                    conflict.reverse[0][1],
                    "but elsewhere, in the opposite order:",
                )
            )
            steps.extend(conflict.reverse)
            yield Violation(
                rule=self.code,
                path=context.path,
                line=conflict.line,
                column=conflict.col,
                message=(
                    f"locks {conflict.first} and {conflict.second} are "
                    f"acquired in both orders in this module; a "
                    f"consistent global order is required to rule out "
                    f"deadlock"
                ),
                flow_trace=_steps(steps),
            )


class BlockingUnderLockRule(Rule):
    code = "RAP-LINT016"
    name = "blocking-under-lock"
    kind = "concurrency"
    catches = "a blocking call while holding a lock"
    rationale = (
        "a thread that blocks (.join(), queue put/get, sleeps, IO, "
        "waiting on an unrelated condition) while holding the "
        "ingest lock stalls every producer behind that "
        "lock, and deadlocks outright if the thing waited on needs the "
        "same lock; Condition.wait on the lock's own condition is the "
        "sanctioned exception because the wait releases it"
    )
    example = (
        "with self._ingest_lock:\n"
        "    self._flush_thread.join()  # blocks all producers"
    )
    fix = (
        "move the blocking call outside the lock region (copy what it "
        "needs under the lock, wait after releasing); if holding the "
        "lock is the point — e.g. a quiesce barrier — justify with a "
        "per-code noqa explaining why it cannot deadlock"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        graph = _callgraph(context)
        reported: Set[Tuple[int, int]] = set()
        for qualname in sorted(graph.functions):
            summary = graph.functions[qualname]
            for site in summary.blocking:
                held = {lock.lock for lock in site.held}
                if not held or self._exempt(graph, site, held):
                    continue
                if (site.line, site.col) in reported:
                    continue
                reported.add((site.line, site.col))
                yield self._violation(
                    context, summary, site, site.held, chain=()
                )
            for call in summary.calls:
                if not call.held:
                    continue
                for callee in graph.resolve(summary, call):
                    for site, chain in graph.transitive_blocking(callee):
                        held = {lock.lock for lock in call.held}
                        held |= {lock.lock for lock in site.held}
                        if self._exempt(graph, site, held):
                            continue
                        if (site.line, site.col) in reported:
                            continue
                        reported.add((site.line, site.col))
                        yield self._violation(
                            context,
                            summary,
                            site,
                            call.held,
                            chain=(call,) + chain,
                        )

    @staticmethod
    def _exempt(
        graph: CallGraph, site: BlockingSite, held: Set[str]
    ) -> bool:
        if not site.what.endswith((".wait()", ".wait_for()")):
            return False
        receiver = site.receiver
        if receiver is None:
            return False
        tie = graph.bindings.condition_ties.get(receiver)
        return receiver in held or (tie is not None and tie in held)

    def _violation(
        self,
        context: LintContext,
        summary: FunctionSummary,
        site: BlockingSite,
        held,
        chain,
    ) -> Violation:
        locks = ", ".join(sorted({lock.lock for lock in held}))
        steps: Steps = [
            (
                lock.line,
                lock.col,
                f"{summary.qualname}: acquires {lock.lock}",
            )
            for lock in held
        ]
        steps.extend(
            (hop.line, hop.col, f"calls {hop.text} while holding {locks}")
            for hop in chain
        )
        steps.append(
            (
                site.line,
                site.col,
                f"blocks: {_source_line(context, site.line)}",
            )
        )
        return Violation(
            rule=self.code,
            path=context.path,
            line=site.line,
            column=site.col,
            message=(
                f"blocking call {site.what} while holding {locks}; "
                f"move the wait outside the lock region or justify "
                f"with a per-code noqa"
            ),
            flow_trace=_steps(steps),
        )


class SharedBufferRule(Rule):
    code = "RAP-LINT017"
    name = "unlocked-shared-buffer"
    kind = "concurrency"
    catches = "cross-thread numpy buffer mutation outside any lock"
    rationale = (
        "a self.<attr> numpy buffer touched by both worker threads "
        "(methods reachable from a Thread/submit target) and the "
        "coordinator, and mutated in place with no lock held, is a "
        "data race: element writes are not atomic and torn counts "
        "break the exact-counter invariants"
    )
    example = (
        "self._counts = np.zeros(n)        # shared buffer\n"
        "threading.Thread(target=self._loop).start()\n"
        "...\n"
        "self._counts[shard] += 1          # unlocked, both threads"
    )
    fix = (
        "guard every in-place mutation with the owning lock (`with "
        "self._lock:`), give each thread its own buffer and fold on an "
        "epoch boundary (the shard-tree pattern), or use a queue"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        graph = _callgraph(context)
        spawned = graph.spawned_classes()
        for class_name in sorted(graph.bindings.buffers):
            spawn = spawned.get(class_name)
            if spawn is None:
                continue
            yield from self._check_class(context, graph, class_name, spawn)

    def _check_class(
        self, context: LintContext, graph: CallGraph, class_name, spawn
    ) -> Iterator[Violation]:
        worker = graph.worker_methods(class_name)
        members = [
            summary
            for summary in graph.functions.values()
            if summary.class_name == class_name
            and summary.leaf_name != "__init__"
        ]
        touched: Dict[str, Set[str]] = {}
        for summary in members:
            side = "worker" if summary.qualname in worker else "main"
            for attr in summary.buffer_touches:
                touched.setdefault(attr, set()).add(side)
        shared = {
            attr for attr, sides in touched.items() if len(sides) == 2
        }
        if not shared:
            return
        allocations = graph.bindings.buffers[class_name]
        for summary in sorted(members, key=lambda s: s.line):
            side = "worker" if summary.qualname in worker else "coordinator"
            for mutation in summary.buffer_mutations:
                if mutation.attr not in shared or mutation.held:
                    continue
                alloc_line = allocations.get(mutation.attr, summary.line)
                steps = [
                    (
                        alloc_line,
                        0,
                        f"self.{mutation.attr} allocated as a numpy "
                        f"buffer shared across {class_name}'s threads",
                    ),
                    (
                        spawn.line,
                        spawn.col,
                        f"{class_name} crosses a thread boundary here "
                        f"({spawn.kind})",
                    ),
                    (
                        mutation.line,
                        mutation.col,
                        f"unlocked {mutation.how} on the {side} side: "
                        f"{_source_line(context, mutation.line)}",
                    ),
                ]
                yield Violation(
                    rule=self.code,
                    path=context.path,
                    line=mutation.line,
                    column=mutation.col,
                    message=(
                        f"in-place {mutation.how} to shared numpy "
                        f"buffer self.{mutation.attr} with no lock "
                        f"held; both the worker and coordinator sides "
                        f"touch this buffer"
                    ),
                    flow_trace=_steps(steps),
                )


CONCURRENCY_RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        ConfinedEscapeRule(),
        LockBalanceRule(),
        LockOrderRule(),
        BlockingUnderLockRule(),
        SharedBufferRule(),
    )
}
