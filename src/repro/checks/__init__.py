"""Correctness tooling for the RAP reproduction (``rapcheck``).

RAP's guarantees are structural: every event is conserved in exactly one
range, every estimate is a lower bound within ``epsilon * n`` of the
truth, and the tree never outgrows ``O(log(R) / epsilon)`` counters
(Sections 2 and 4.3 of the paper). Nothing about a subtly broken split
or merge shows up as a crash — it shows up as a quietly wrong figure.
This package makes the invariants mechanical:

* :mod:`repro.checks.invariants` / :mod:`repro.checks.audit` — a
  :class:`TreeAuditor` that walks a live :class:`~repro.core.RapTree`
  or :class:`~repro.core.MultiDimRapTree` and verifies partition
  geometry, counter conservation, split-threshold discipline, the merge
  schedule, the theoretical node budget, and (against an exact oracle)
  the lower-bound estimate guarantee. Opt in per tree with
  ``RapConfig(audit_every=N)`` or per trace with ``rap audit``.
* :mod:`repro.checks.lint` — a repo-specific AST lint pass (the
  syntactic rules) guarding determinism, exact integer counters, node
  encapsulation, annotation coverage and wall-clock hygiene. Run it
  with ``rap lint`` or ``python -m repro.checks``; the full catalog is
  in :mod:`repro.checks.lint.registry`.
* :mod:`repro.checks.flow` — a flow-sensitive dataflow engine
  (per-function CFGs, a worklist fixed-point solver, reaching
  definitions/liveness, a value-kind taint lattice) powering the flow
  rules, which catch the same violations laundered through aliases and
  emit ``flow_trace`` witness paths.
* :mod:`repro.checks.callgraph` / :mod:`repro.checks.flow.concurrency`
  — an interprocedural call graph with per-function lock/thread
  summaries and the concurrency rules built on it: confinement escape,
  lock balance, lock-order inversion, blocking-under-lock, and shared
  numpy buffer discipline.
* :mod:`repro.checks.sanitizer` — the dynamic counterpart: a
  :class:`RapSanitizer` that instruments live shard trees and locks
  with lock-held and owner-thread assertions and a happens-before log.
  Enable with ``RapConfig(debug_sanitize=True)`` or replay a workload
  under instrumentation with ``rap sanitize``.
"""

from .audit import (
    AuditError,
    AuditReport,
    TraceAuditReport,
    TreeAuditor,
    audit_stream,
    self_audit,
)
from .invariants import AuditFinding
from .sanitizer import RapSanitizer, RapSanitizerError
from .lint import (
    FlowStep,
    LintReport,
    Violation,
    all_rule_codes,
    explain_rule,
    lint_paths,
)

__all__ = [
    "AuditError",
    "AuditFinding",
    "AuditReport",
    "FlowStep",
    "LintReport",
    "RapSanitizer",
    "RapSanitizerError",
    "TraceAuditReport",
    "TreeAuditor",
    "Violation",
    "all_rule_codes",
    "audit_stream",
    "explain_rule",
    "lint_paths",
    "self_audit",
]
