"""The declared hot-path set (``repro.checks.hotspec``).

The numeric lint rules need to know which functions are *hot* — code
on the per-event or per-batch critical path, where an ``np.zeros`` in a
loop or a Python-scalar sweep over an array is a measured regression,
not a style nit. Benchmarks already know (``BENCH_core_throughput.json``
lineages), but benchmarks only see functions after they slow down; this
module writes the set down *before*, so RAP-LINT022 (hot-loop
allocation) and the hotspec-aware parts of RAP-LINT023 gate changes to
exactly the code ROADMAP Open item 1 is rewriting.

The contract (also documented in ``docs/performance.md``):

* ``HOT_FUNCTIONS`` maps a module path relative to the ``repro``
  package to the set of qualified function names (``Class.method`` or
  bare function name, matching :func:`repro.checks.flow.cfg.iter_units`
  naming) that are on the hot path there.
* A function can also opt in from the source itself with a marker
  comment on its ``def`` line (or the line directly above it):
  ``# rap: hot``. Fixtures and new modules use this; the canonical
  production set stays here.
* Entries are *positions*, not promises: a function listed here must
  have a benchmark lineage covering it, and removing an entry needs the
  same justification as deleting a bench gate.

The production hot set mirrors the per-backend benchmark rows:

* the columnar batch entry points that drive the compiled update
  kernel (``add_counted_arrays`` is the process workers' frame path),
* the object backend's descent-cache fast paths (``_locate`` plus the
  inline ``add_counted`` loop and ``add_batch`` over it),
* the TCAM batch match (``search_batch``) the hardware pipeline leans
  on,
* the hash partitioner's ``split``, which every event of a multi-shard
  profiler passes through on the dispatching thread (perfbench's
  ``partition.self_s`` layer),
* the snapshot fold: ``combine.py``'s array fold ``_fold_columns`` and
  the columnar ``check_invariants`` it runs on every fold (perfbench's
  ``fold.self_s`` layer).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

#: Marker comment that declares a function hot from its own source.
HOT_MARKER = "rap: hot"

#: relpath (inside the repro package) -> hot qualified function names.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "core/columnar.py": frozenset(
        {
            "ColumnarRapTree.extend",
            "ColumnarRapTree.add_counted",
            "ColumnarRapTree.add_counted_arrays",
            "ColumnarRapTree.add_batch",
            "ColumnarRapTree.check_invariants",
        }
    ),
    "core/combine.py": frozenset({"_fold_columns"}),
    "core/tree.py": frozenset(
        {
            "RapTree._locate",
            "RapTree.add_counted",
            "RapTree.add_batch",
        }
    ),
    "hardware/tcam.py": frozenset({"TernaryCam.search_batch"}),
    "runtime/partition.py": frozenset({"HashPartitioner.split"}),
}


def hot_functions_for(relpath: str) -> FrozenSet[str]:
    """The declared hot qualnames for one module (empty set if none)."""
    return HOT_FUNCTIONS.get(relpath, frozenset())


def _line_has_marker(line: str) -> bool:
    comment = line.partition("#")[2]
    return HOT_MARKER in comment


def has_hot_marker(
    source_lines: Sequence[str], def_lineno: int
) -> bool:
    """True when the ``def`` line (or the line above it) carries the
    ``# rap: hot`` marker comment."""
    for lineno in (def_lineno, def_lineno - 1):
        if 1 <= lineno <= len(source_lines) and _line_has_marker(
            source_lines[lineno - 1]
        ):
            return True
    return False


def is_hot(
    relpath: str,
    qualname: str,
    source_lines: Optional[Sequence[str]] = None,
    def_lineno: int = 0,
) -> bool:
    """Is ``qualname`` in ``relpath`` on the declared hot path?

    Either listed in :data:`HOT_FUNCTIONS`, or carrying the
    ``# rap: hot`` marker at its definition site.
    """
    if qualname in hot_functions_for(relpath):
        return True
    if source_lines is not None and def_lineno:
        return has_hot_marker(source_lines, def_lineno)
    return False


def catalog() -> Tuple[Tuple[str, str], ...]:
    """Every declared hot entry as sorted ``(relpath, qualname)`` pairs
    (what ``docs/performance.md`` documents and tests pin)."""
    return tuple(
        (relpath, qualname)
        for relpath in sorted(HOT_FUNCTIONS)
        for qualname in sorted(HOT_FUNCTIONS[relpath])
    )
