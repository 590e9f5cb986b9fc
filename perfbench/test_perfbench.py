"""Tests of the benchmark itself, at reduced size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each test drives ``run.py`` as the driver does, in a subprocess, with
``--scale 16`` (every event count divided by 16) and a short run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))


def _profiler_segments():
    try:
        return sorted(e for e in os.listdir("/dev/shm") if e.startswith("rap-"))
    except OSError:
        return []


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, attempt: int = 0):
    """One reduced run; returns (result, metadata) from the last two lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "16"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_present_with_unit(workload):
    result, meta = run(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert meta["transport"] == ["ring"]
    assert meta["nproc"] and meta["samples"]["sessions"] >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_present_with_unit(workload):
    result, _ = run(workload, 1, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Frames cross the ring intact, and combining never adds events.
    assert metrics["decode.frames"] == metrics["ring.frames"]
    assert metrics["combine.events_in"] >= metrics["combine.uniques_out"] > 0
    assert metrics["fold.calls"] >= 1 and metrics["kernel.bootstrap_calls"] >= 1
    # CPU minus the CPU of spans inside it: never negative.
    assert metrics["combine.self_s"] >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_for_one_seed(workload):
    first, first_meta = run(workload, 1, 0)
    second, second_meta = run(workload, 1, 0, attempt=1)
    for name in ("snapshot_nodes", "undercount_mean_eps"):
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_meta["undercount_max_eps"] == second_meta["undercount_max_eps"]
    traced_a, _ = run(workload, 1, 1)
    traced_b, _ = run(workload, 1, 1, attempt=1)
    for name in ("combine.uniques_out", "kernel.splits", "fold.nodes_out"):
        assert traced_a["metrics"][name] == traced_b["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_the_oracle(workload):
    result, meta = run(workload, 2, 0)
    assert result["correct"] and result["failed"] == 0, meta["errors"]
    assert 0 < meta["undercount_max_eps"] <= 1


def test_no_profiler_segments_left_in_dev_shm():
    before = _profiler_segments()
    run("short-sessions", 3, 0)
    run("short-sessions", 3, 1)
    assert _profiler_segments() == before


def _group_members(pgid: int):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp.
        if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
            members.append(int(entry))
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_run(trace):
    # The run's own process group: shard workers and the shared-memory
    # resource tracker are all in it, and none may survive the run,
    # not even as a zombie.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "short-sessions",
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "16"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert _group_members(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    # A directory holding only the benchmark: no result, non-zero exit.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_exception_counts_as_failed_op(monkeypatch, capsys):
    # A session whose drain() raises is one failed op; the run still
    # prints its result line, with metrics from the completed sessions.
    import run as cli

    sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime.profiler import Profiler

    real_drain = Profiler.drain
    drains = [0]

    def drain(self):
        drains[0] += 1
        if drains[0] == 2:  # the first timed session; 1 is the warm-up
            raise RuntimeError("injected")
        real_drain(self)

    monkeypatch.setattr(Profiler, "drain", drain)
    assert cli.main(["--workload", "short-sessions", "--seed", "1",
                     "--seconds", "0.5", "--trace", "0", "--scale", "16"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] >= 1 and not result["correct"]
    assert result["attempted"] > result["failed"]
    assert result["metrics"]["stream_eps"]["value"] > 0


def test_oracle_counts_match_brute_force():
    from bench import INGEST_EVENTS, Oracle

    rng = np.random.default_rng(5)
    base = rng.integers(0, 1000, size=4 * INGEST_EVENTS).astype(np.uint64)
    oracle = Oracle(base, INGEST_EVENTS)
    los = np.array([0, 10, 500, 999], dtype=np.uint64)
    his = np.array([999, 20, 700, 999], dtype=np.uint64)
    for n in (INGEST_EVENTS, 3 * INGEST_EVENTS, 4 * INGEST_EVENTS,
              9 * INGEST_EVENTS):
        stream = np.resize(base, n)
        brute = [int(((stream >= lo) & (stream <= hi)).sum())
                 for lo, hi in zip(los, his)]
        assert oracle.counts(n, los, his).tolist() == brute
