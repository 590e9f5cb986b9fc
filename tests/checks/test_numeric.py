"""Tests for the numeric abstract interpreter and RAP-LINT018..023.

Three layers, mirroring the concurrency-rule matrix:

* **domain unit tests** — the dtype promotion table is pinned against
  the *actual* ``np.result_type`` behaviour of the installed numpy (the
  lattice must model the library, not our memory of it), plus interval
  widening/termination and view/alias trait propagation checked through
  :class:`repro.checks.flow.numeric.NumericAnalysis` directly.
* **fixture matrix** — every rule's checked-in positive fixture fires
  with a non-empty ``flow_trace``, the clean fixture stays silent, and
  the suppressed fixture's reasoned noqa silences it. The same fixtures
  back ``python -m repro.checks --selfcheck`` in CI.
* **tooling** — ``--select``/``--ignore`` wildcard expansion, SARIF
  output shape, hotspec contract, and the registry selfcheck.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.checks.flow.cfg import build_cfg, iter_units
from repro.checks.flow.numeric import (
    DT_BOOL,
    DT_FLOAT64,
    DT_INT,
    DT_INT64,
    DT_UINT64,
    INT64_MAX,
    NumValue,
    NumericAnalysis,
    PROMOTION,
    promote,
)
from repro.checks.hotspec import (
    HOT_FUNCTIONS,
    catalog,
    has_hot_marker,
    is_hot,
)
from repro.checks.lint import explain_rule, lint_paths
from repro.checks.lint.runner import select_rules
from repro.checks.selfcheck import self_check

NEW_CODES = [
    "RAP-LINT018",
    "RAP-LINT019",
    "RAP-LINT020",
    "RAP-LINT021",
    "RAP-LINT022",
    "RAP-LINT023",
]

FIXTURES = Path(__file__).parent / "fixtures" / "numeric"


def codes(report):
    return [violation.rule for violation in report.violations]


def analyse(source: str, unit_name: str = "f") -> NumericAnalysis:
    tree = ast.parse(source)
    for unit in iter_units(tree):
        if unit.name == unit_name:
            cfg = build_cfg(unit.node, name=unit.name)
            return NumericAnalysis(cfg, {"np": "numpy"})
    raise AssertionError(f"no unit named {unit_name!r}")


def value_at_return(analysis: NumericAnalysis, name: str) -> NumValue:
    for node in analysis.cfg.code_nodes():
        if isinstance(node.stmt, ast.Return):
            return analysis.value_before(node.id, name)
    raise AssertionError("no return statement in unit")


NUMPY_DTYPES = {
    DT_BOOL: np.bool_,
    DT_INT64: np.int64,
    DT_UINT64: np.uint64,
    DT_FLOAT64: np.float64,
}


class TestPromotionTable:
    """The lattice's promotion rules must match installed numpy."""

    @pytest.mark.parametrize(
        "pair", sorted(PROMOTION, key=sorted), ids=lambda p: "*".join(sorted(p))
    )
    def test_pinned_against_result_type(self, pair):
        members = sorted(pair)
        left, right = (members * 2)[:2]
        ours = promote(left, right)
        if DT_INT in (left, right):
            # Python ints follow numpy's weak-scalar promotion: the
            # array dtype wins unless the pair is scalar-only.
            other = right if left == DT_INT else left
            if other == DT_INT:
                return
            theirs = np.result_type(NUMPY_DTYPES[other], 1)
            if ours == DT_INT:
                # Our lattice keeps the pair as an exact Python int;
                # numpy materializes an exact integer dtype. Both sides
                # agree on the property the rules care about: exactness.
                assert theirs.kind in "iu"
                return
        else:
            theirs = np.result_type(NUMPY_DTYPES[left], NUMPY_DTYPES[right])
        assert ours == theirs.name

    def test_uint64_int64_is_the_float64_trap(self):
        # The whole point of RAP-LINT018, pinned explicitly.
        assert np.result_type(np.uint64, np.int64) == np.float64
        assert promote(DT_UINT64, DT_INT64) == DT_FLOAT64

    def test_weighted_bincount_returns_float64(self):
        # The whole point of RAP-LINT020's bincount branch.
        out = np.bincount(
            np.array([0, 1]), weights=np.array([1, 2], dtype=np.int64)
        )
        assert out.dtype == np.float64

    def test_float64_loses_exactness_past_2_53(self):
        # The hazard all three precision rules guard: the value the
        # columnar regression test drives through the real kernel.
        assert int(np.float64(2**53 + 1)) != 2**53 + 1


class TestIntervalDomain:
    def test_constant_assignment_bounds(self):
        analysis = analyse(
            "def f():\n    n = 5\n    return n\n"
        )
        value = value_at_return(analysis, "n")
        assert (value.lo, value.hi) == (5, 5)

    def test_loop_widening_terminates_on_buckets(self):
        analysis = analyse(
            "def f(items):\n"
            "    n = 0\n"
            "    for item in items:\n"
            "        n = n + 1\n"
            "    return n\n"
        )
        value = value_at_return(analysis, "n")
        assert value.lo == 0
        # Widened to a bucket, not unbounded iteration of the solver.
        assert value.hi is None or value.hi >= 1

    def test_mask_and_shift_bound_counter_columns(self):
        analysis = analyse(
            "import numpy as np\n"
            "def f(self, size):\n"
            "    deposits = self._counts[:size]\n"
            "    low = deposits & 0xFFFFFFFF\n"
            "    high = deposits >> 32\n"
            "    return low\n"
        )
        low = value_at_return(analysis, "low")
        high = value_at_return(analysis, "high")
        assert low.hi == 0xFFFFFFFF
        assert high.hi == INT64_MAX >> 32
        assert not low.may_exceed(2**32 - 1)
        assert not high.may_exceed(2**32 - 1)

    def test_counter_columns_carry_int64_bound_and_origin(self):
        analysis = analyse(
            "def f(self, size):\n"
            "    counts = self._counts[:size]\n"
            "    return counts\n"
        )
        counts = value_at_return(analysis, "counts")
        assert counts.is_counter
        assert counts.dtypes == frozenset({DT_INT64})
        assert (counts.lo, counts.hi) == (0, INT64_MAX)


class TestTraitDomain:
    def test_slice_is_a_view_of_its_base(self):
        analysis = analyse(
            "import numpy as np\n"
            "def f(raw, lo, hi):\n"
            "    table = np.asarray(raw, dtype=np.int64)\n"
            "    window = table[lo:hi]\n"
            "    return window\n"
        )
        window = value_at_return(analysis, "window")
        assert window.is_array and window.is_view
        assert "table" in window.bases

    def test_copy_detaches_the_view(self):
        analysis = analyse(
            "import numpy as np\n"
            "def f(raw, lo, hi):\n"
            "    table = np.asarray(raw, dtype=np.int64)\n"
            "    scratch = table[lo:hi].copy()\n"
            "    return scratch\n"
        )
        scratch = value_at_return(analysis, "scratch")
        assert scratch.is_array and not scratch.is_view

    def test_fancy_indexing_copies(self):
        analysis = analyse(
            "import numpy as np\n"
            "def f(self, size, which):\n"
            "    counts = self._counts[:size]\n"
            "    picked = counts[which]\n"
            "    return picked\n"
        )
        analysis2 = analyse(
            "import numpy as np\n"
            "def f(self, size, which):\n"
            "    counts = self._counts[:size]\n"
            "    which = np.asarray(which, dtype=np.int64)\n"
            "    picked = counts[which]\n"
            "    return picked\n"
        )
        picked = value_at_return(analysis2, "picked")
        assert picked.is_array and not picked.is_view
        assert picked.is_counter  # dtype and origin survive the copy

    def test_dtype_flows_through_astype_and_allocators(self):
        analysis = analyse(
            "import numpy as np\n"
            "def f(n):\n"
            "    starts = np.zeros(n, dtype=np.uint64)\n"
            "    mirror = starts.astype(np.int64)\n"
            "    return mirror\n"
        )
        starts = value_at_return(analysis, "starts")
        mirror = value_at_return(analysis, "mirror")
        assert starts.dtypes == frozenset({DT_UINT64})
        assert mirror.dtypes == frozenset({DT_INT64})


def fixture_report(code: str, kind: str, **kwargs):
    path = FIXTURES / code / kind
    assert path.is_dir(), f"missing fixture dir {path}"
    return lint_paths([str(path)], select=[code], **kwargs)


class TestRuleFixtureMatrix:
    @pytest.mark.parametrize("code", NEW_CODES)
    def test_positive_fires_with_flow_trace(self, code):
        report = fixture_report(code, "positive")
        assert code in codes(report)
        for violation in report.violations:
            assert violation.flow_trace, (
                f"{code} violation at line {violation.line} has no witness"
            )

    @pytest.mark.parametrize("code", NEW_CODES)
    def test_clean_stays_silent(self, code):
        report = fixture_report(code, "clean")
        assert codes(report) == []

    @pytest.mark.parametrize("code", NEW_CODES)
    def test_suppressed_by_reasoned_noqa(self, code):
        report = fixture_report(code, "suppressed")
        assert codes(report) == []

    @pytest.mark.parametrize("code", NEW_CODES)
    def test_explain_has_rationale_example_fix(self, code):
        text = explain_rule(code)
        assert code in text
        assert "rationale:" in text
        assert "example violation:" in text
        assert "suggested fix:" in text

    def test_pinned_prefix_fit_mask_is_the_columnar_caveat(self):
        """The RAP-LINT019 positive fixture is the pre-fix columnar fit
        mask; the shipped kernel must stay clean under the same rule."""
        report = fixture_report("RAP-LINT019", "positive")
        assert any(
            "owner_ok" in step.event
            for violation in report.violations
            for step in violation.flow_trace
        )
        src = Path(__file__).parents[2] / "src" / "repro" / "core"
        live = lint_paths([str(src / "columnar.py")], select=["RAP-LINT019"])
        assert codes(live) == []


class TestHotspec:
    def test_catalog_covers_the_bench_hot_set(self):
        entries = dict(HOT_FUNCTIONS)
        columnar = entries["core/columnar.py"]
        assert "ColumnarRapTree.add_counted_arrays" in columnar
        assert "ColumnarRapTree.check_invariants" in columnar
        assert "_fold_columns" in entries["core/combine.py"]
        assert "TernaryCam.search_batch" in entries["hardware/tcam.py"]
        assert "HashPartitioner.split" in entries["runtime/partition.py"]
        assert "RapTree.add_batch" in entries["core/tree.py"]
        assert catalog() == tuple(
            (relpath, qualname)
            for relpath in sorted(HOT_FUNCTIONS)
            for qualname in sorted(HOT_FUNCTIONS[relpath])
        )

    def test_declared_entries_exist_in_source(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        for relpath, qualnames in HOT_FUNCTIONS.items():
            module = src / relpath
            assert module.is_file(), f"hotspec names missing module {relpath}"
            tree = ast.parse(module.read_text(encoding="utf-8"))
            found = {unit.name for unit in iter_units(tree)}
            for qualname in qualnames:
                assert qualname in found, (
                    f"hotspec entry {relpath}:{qualname} not in source"
                )

    def test_marker_opts_in(self):
        lines = ("class K:", "    # rap: hot", "    def f(self):", "pass")
        assert has_hot_marker(lines, 3)
        assert not has_hot_marker(lines, 1)
        assert is_hot("anywhere.py", "K.f", source_lines=lines, def_lineno=3)
        assert not is_hot("anywhere.py", "K.f")


class TestSelectIgnoreWildcards:
    def test_exact_select(self):
        chosen = select_rules(select=["RAP-LINT018"])
        assert sorted(chosen) == ["RAP-LINT018"]

    def test_wildcard_prefix_selects_the_family(self):
        chosen = select_rules(select=["RAP-LINT02*"])
        assert sorted(chosen) == [
            "RAP-LINT020",
            "RAP-LINT021",
            "RAP-LINT022",
            "RAP-LINT023",
            "RAP-LINT024",
            "RAP-LINT025",
        ]

    def test_wildcard_ignore(self):
        chosen = select_rules(ignore=["RAP-LINT0*"])
        assert chosen == {}

    def test_unknown_code_and_empty_wildcard_raise(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            select_rules(select=["RAP-LINT999"])
        with pytest.raises(ValueError, match="unknown rule code"):
            select_rules(select=["RAP-NOPE*"])

    def test_strict_composes_with_select(self, tmp_path):
        """--strict no longer discards --select: staged CI runs tighten
        noqa auditing while scoping to one rule family."""
        target = tmp_path / "core" / "demo.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\n\n\n"
            "def gaps(n):\n"
            "    starts = np.zeros(n, dtype=np.uint64)\n"
            "    counts = np.zeros(n, dtype=np.int64)\n"
            "    return starts - counts  # noqa: RAP-LINT018\n",
            encoding="utf-8",
        )
        relaxed = lint_paths([str(tmp_path)], select=["RAP-LINT018"])
        assert codes(relaxed) == []  # reasonless noqa still suppresses
        strict = lint_paths(
            [str(tmp_path)], select=["RAP-LINT018"], strict=True
        )
        assert "RAP-NOQA" in codes(strict)  # ...but strict audits it


class TestSarifOutput:
    def test_sarif_log_shape_and_code_flow(self):
        report = fixture_report("RAP-LINT019", "positive")
        log = json.loads(report.to_sarif())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "RAP-LINT019" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RAP-LINT019"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # SARIF is 1-based
        steps = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert steps, "flow_trace must survive into the SARIF code flow"
        assert all(
            step["location"]["message"]["text"] for step in steps
        )

    def test_clean_report_has_empty_results(self):
        report = fixture_report("RAP-LINT019", "clean")
        log = json.loads(report.to_sarif())
        assert log["runs"][0]["results"] == []


class TestSelfCheck:
    def test_selfcheck_passes_on_the_repo(self):
        assert self_check(FIXTURES) == []

    def test_selfcheck_reports_missing_fixtures(self, tmp_path):
        problems = self_check(tmp_path / "nowhere")
        assert any("fixture root missing" in p for p in problems)
