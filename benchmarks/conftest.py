"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (see the experiment index
in ``DESIGN.md``): it times the reproduction via pytest-benchmark and
writes the rendered rows/series — the same ones the paper's table or
figure reports — to ``benchmarks/_reports/<id>.txt``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re

import pytest

REPORT_DIR = pathlib.Path(__file__).parent / "_reports"
REPO_ROOT = pathlib.Path(__file__).parent.parent
CORE_THROUGHPUT_JSON = REPO_ROOT / "BENCH_core_throughput.json"
DEFAULT_EVENTS = 50_000


def machine_calibration() -> float:
    """Time a fixed pure-python workload on this interpreter/machine.

    Stored in the benchmark payload so ``check_regression.py`` can
    compare runs from different machines *relatively*: a runner that is
    2x slower on this loop is allowed to be ~2x slower on the
    benchmarks before anything counts as a regression.
    """
    import time

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(200_000):
            key = (i * 2654435761) % 4096
            table[key] = table.get(key, 0) + i
            total += key
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture
def save_report():
    """Persist an experiment's rendered report for inspection."""

    def _save(name: str, text: str) -> None:
        REPORT_DIR.mkdir(exist_ok=True)
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return _save


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The reproductions are deterministic and seconds-long, so one round
    is the honest measurement (re-running would only re-profile the same
    seeded stream).
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def pytest_sessionfinish(session, exitstatus):
    """Publish the core-throughput numbers as a repo-root JSON artifact.

    Only the micro-benchmarks from ``test_core_throughput.py`` and
    ``test_runtime_shards.py`` are machine-readable regression
    baselines; the experiment reproductions keep their human-readable
    ``_reports/*.txt`` instead.
    """
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is None:
        return
    results = []
    for bench in getattr(benchsession, "benchmarks", []):
        fullname = getattr(bench, "fullname", "")
        if not any(
            module in fullname
            for module in ("test_core_throughput", "test_runtime_shards")
        ):
            continue
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        # Backend-parametrized rows ("...[columnar]") are separate
        # regression lineages; un-parametrized benchmarks build object
        # trees directly (``RapTree(config)``, ``_BareTree``) or model
        # the hardware engine, so they stay on the "object" lineage.
        match = re.search(r"\[(object|columnar)\]", bench.name)
        results.append(
            {
                "name": bench.name,
                "backend": match.group(1) if match else "object",
                "mean_s": stats.mean,
                "min_s": stats.min,
                "max_s": stats.max,
                "stddev_s": stats.stddev,
                "rounds": stats.rounds,
                "ops_per_s": stats.ops,
            }
        )
    if not results:
        return
    events = int(os.environ.get("RAP_BENCH_EVENTS", str(DEFAULT_EVENTS)))
    out_path = os.environ.get("RAP_BENCH_OUT")
    if out_path:
        target = pathlib.Path(out_path)
    elif events == DEFAULT_EVENTS:
        target = CORE_THROUGHPUT_JSON
    else:
        # Scaled-down smoke runs (e.g. CI at 10k events) must not
        # clobber the checked-in full-scale baseline; they opt into an
        # explicit output path via RAP_BENCH_OUT instead.
        return
    payload = {
        "benchmark": "core_throughput",
        "source": "benchmarks/test_core_throughput.py",
        "events": events,
        "units": "seconds",
        "calibration_s": machine_calibration(),
        "results": sorted(results, key=lambda row: row["name"]),
    }
    target.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
