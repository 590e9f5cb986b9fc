"""Compare a benchmark run against a checked-in throughput baseline.

Usage::

    python benchmarks/check_regression.py CANDIDATE.json \
        [--baseline benchmarks/baselines/core_throughput_10k.json] \
        [--tolerance 0.30]

Both files are the JSON payload ``benchmarks/conftest.py`` emits.
Candidate and baseline must come from the same ``RAP_BENCH_EVENTS``
scale — per-event cost is *not* scale invariant (the early stream is
split-dense; amortization differs), so the repo keeps one baseline per
scale: the full 50k ``BENCH_core_throughput.json`` at the repo root and
the 10k smoke baseline under ``benchmarks/baselines/``.

Runs from different machines are made comparable through the payload's
``calibration_s`` — the time of a fixed pure-python loop on the machine
that produced the run. Candidate means are scaled by the calibration
ratio before comparison, so a uniformly slower CI runner does not read
as a regression while a genuinely slower tree still does. Exits
non-zero when any benchmark's scaled mean exceeds
``baseline * (1 + tolerance)``.

Benchmarks present on only one side are reported but never fail the
check, so adding or renaming a benchmark does not break CI before the
baseline is regenerated (see "Performance notes" in ``DESIGN.md``).

Backend-parametrized rows carry a ``backend`` field and are compared
strictly within their own lineage — ``...[object]`` against
``...[object]``, ``...[columnar]`` against ``...[columnar]`` — so an
object-backend regression cannot hide behind a columnar speedup. On
top of the baseline comparison, the candidate run must uphold the
columnar value proposition itself: its sustained-ingest columnar mean
must be at least ``SPEEDUP_FLOOR``x faster than its object mean, and
on the batch kernel (pre-combined sorted chunks, the layout's home
turf) columnar must be at least as fast as object even at smoke
scale. Both ratios are intra-run, so machine calibration cancels out
of them. So is the snapshot-fold gate: from the 10k smoke scale up,
the compiled fold (``combine_many``) must stay at least
``FOLD_SPEEDUP_FLOOR``x faster than the reference descent fold timed
on the same shards.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "core_throughput_10k.json"
)

#: The benchmark whose object-vs-columnar ratio is gated, and the
#: minimum speedup the columnar backend must sustain on it. Like the
#: runtime 2x multi-shard floor, the gate applies only at the full
#: scale — scaled-down smoke runs still *run* both backends, but their
#: warmed profile is too small for the vector rounds to amortize, so
#: the documented ratio holds at the scale the claim is made for.
SUSTAINED_INGEST = "test_sustained_ingest_throughput"
SPEEDUP_FLOOR = 3.0
SPEEDUP_GATE_MIN_EVENTS = 50_000

#: The contiguous kernel's own row: pre-combined sorted chunks through
#: ``add_batch``. Unlike the sustained gate this one holds from the 10k
#: smoke scale up — the fully contiguous layout wins cold ingest too,
#: so a smoke run where object beats columnar here means the batch
#: kernel regressed, whatever the absolute numbers are.
BATCH_KERNEL = "test_batch_kernel_throughput"
BATCH_KERNEL_FLOOR = 1.0
BATCH_KERNEL_MIN_EVENTS = 10_000

#: The process-executor value proposition (the ``executor="process"``
#: acceptance gate): sustained 4-shard ingest through worker processes
#: owning columnar trees must beat the serial executor's
#: 4 in-process shards on the same columnar backend. Intra-run min
#: ratio like the other two gates, applied only at the full scale — at
#: smoke scale the ratio drowns in process spawn and pipe handshakes.
PROCESS_INGEST = "test_runtime_process_shard_ingest[columnar]"
SERIAL_INGEST = "test_runtime_multi_shard_ingest[columnar]"
PROCESS_SPEEDUP_FLOOR = 1.5
PROCESS_GATE_MIN_EVENTS = 50_000

#: The compiled snapshot fold's value proposition: ``combine_many``
#: (gather and sort the shard counter rows, then ``rap_fold`` lays out
#: the already-pruned partition in C) must stay >= 10x faster than the
#: reference per-counter descent fold timed on the *same* columnar
#: shards in the same run — a live intra-run min ratio, so machine
#: calibration cancels out. The compiled fold has no per-level numpy
#: overhead left to amortize, so the gate holds from the 10k smoke
#: scale up (it read 41-84x at 10k and 50k on a 2-core host, where the
#: numpy fold it replaced read 8x).
FOLD_ROW = "test_runtime_snapshot_fold[columnar]"
FOLD_DESCENT_ROW = "test_runtime_snapshot_fold_descent[columnar]"
FOLD_SPEEDUP_FLOOR = 10.0
FOLD_GATE_MIN_EVENTS = 10_000


def load_payload(path: pathlib.Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "results" not in payload or "events" not in payload:
        raise SystemExit(f"{path}: not a core_throughput payload")
    return payload


def lineage_means(payload: dict) -> dict:
    """Map ``(backend, name) -> mean_s``.

    The backend is part of the comparison key, so a row can only ever
    be compared against the same benchmark on the same backend, even
    if a rename ever decouples the name suffix from the field.
    """
    return {
        (row.get("backend", "object"), row["name"]): row["mean_s"]
        for row in payload["results"]
    }


def backend_speedup(payload: dict, benchmark: str):
    """Object-vs-columnar ratio on ``benchmark``'s paired rows.

    Uses each row's ``min_s``: the minimum is the standard noise-robust
    statistic for intra-run ratios (scheduler/GC interference only ever
    adds time), where a mean ratio wobbles with whichever row caught
    more background noise.
    """
    mins = {
        row.get("backend", "object"): row["min_s"]
        for row in payload["results"]
        if row["name"].startswith(benchmark + "[")
    }
    if "object" in mins and "columnar" in mins and mins["columnar"]:
        return mins["object"] / mins["columnar"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark means regress past tolerance."
    )
    parser.add_argument(
        "candidate", type=pathlib.Path,
        help="JSON emitted by the benchmark run under test",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help=f"baseline JSON (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional regression of the mean (default 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = load_payload(args.baseline)
    candidate = load_payload(args.candidate)
    if baseline["events"] != candidate["events"]:
        raise SystemExit(
            f"scale mismatch: baseline ran {baseline['events']} events, "
            f"candidate {candidate['events']} — per-event cost is not "
            "scale invariant; regenerate a baseline at this scale"
        )

    speed = 1.0
    base_cal = baseline.get("calibration_s")
    cand_cal = candidate.get("calibration_s")
    if base_cal and cand_cal:
        speed = cand_cal / base_cal
        print(
            f"machine calibration: candidate {cand_cal * 1e3:.1f} ms vs "
            f"baseline {base_cal * 1e3:.1f} ms "
            f"(runner {speed:.2f}x the baseline machine)"
        )
    else:
        print("machine calibration missing on one side; comparing raw means")

    base_means = lineage_means(baseline)
    cand_means = lineage_means(candidate)

    failures = []
    for key in sorted(base_means):
        backend, name = key
        if key not in cand_means:
            print(f"SKIP {name} ({backend}): not in candidate run")
            continue
        base = base_means[key]
        scaled = cand_means[key] / speed
        ratio = scaled / base if base else float("inf")
        status = "OK"
        if ratio > 1.0 + args.tolerance:
            status = "FAIL"
            failures.append(name)
        print(
            f"{status:4s} {name}: {scaled * 1e3:,.2f} ms (scaled) vs "
            f"baseline {base * 1e3:,.2f} ms ({ratio:.2f}x)"
        )
    for backend, name in sorted(set(cand_means) - set(base_means)):
        print(f"NEW  {name} ({backend}): no baseline entry (not checked)")

    # The columnar backend must keep earning its keep: candidate's own
    # sustained-ingest object/columnar ratio (calibration-free).
    speedup = backend_speedup(candidate, SUSTAINED_INGEST)
    if speedup is None:
        print(
            f"SKIP columnar speedup gate: no paired {SUSTAINED_INGEST} "
            "rows in candidate"
        )
    elif candidate["events"] < SPEEDUP_GATE_MIN_EVENTS:
        print(
            f"SKIP columnar speedup gate: measured {speedup:.2f}x at "
            f"{candidate['events']} events; the {SPEEDUP_FLOOR:.1f}x "
            f"floor applies from {SPEEDUP_GATE_MIN_EVENTS} events up"
        )
    else:
        status = "OK" if speedup >= SPEEDUP_FLOOR else "FAIL"
        print(
            f"{status:4s} columnar sustained-ingest speedup: "
            f"{speedup:.2f}x object (floor {SPEEDUP_FLOOR:.1f}x)"
        )
        if status == "FAIL":
            failures.append("columnar-sustained-ingest-speedup")

    # And the batch kernel must never fall behind the object backend,
    # smoke scale included (intra-run min ratio, calibration-free).
    batch = backend_speedup(candidate, BATCH_KERNEL)
    if batch is None:
        print(
            f"SKIP columnar batch-kernel gate: no paired {BATCH_KERNEL} "
            "rows in candidate"
        )
    elif candidate["events"] < BATCH_KERNEL_MIN_EVENTS:
        print(
            f"SKIP columnar batch-kernel gate: measured {batch:.2f}x at "
            f"{candidate['events']} events; the gate applies from "
            f"{BATCH_KERNEL_MIN_EVENTS} events up"
        )
    else:
        status = "OK" if batch >= BATCH_KERNEL_FLOOR else "FAIL"
        print(
            f"{status:4s} columnar batch-kernel speedup: "
            f"{batch:.2f}x object (floor {BATCH_KERNEL_FLOOR:.1f}x)"
        )
        if status == "FAIL":
            failures.append("columnar-batch-kernel-speedup")

    # And the process executor must keep beating the serial 4-shard
    # row on the shared columnar lineage (intra-run min ratio, calibration-
    # free) — the documented reason executor="process" exists.
    mins = {
        row["name"]: row["min_s"]
        for row in candidate["results"]
        if row["name"] in (PROCESS_INGEST, SERIAL_INGEST)
    }
    if len(mins) < 2 or not mins.get(PROCESS_INGEST):
        print(
            "SKIP process-executor gate: missing "
            f"{PROCESS_INGEST} / {SERIAL_INGEST} rows in candidate"
        )
    elif candidate["events"] < PROCESS_GATE_MIN_EVENTS:
        ratio = mins[SERIAL_INGEST] / mins[PROCESS_INGEST]
        print(
            f"SKIP process-executor gate: measured {ratio:.2f}x at "
            f"{candidate['events']} events; the "
            f"{PROCESS_SPEEDUP_FLOOR:.1f}x floor applies from "
            f"{PROCESS_GATE_MIN_EVENTS} events up"
        )
    else:
        ratio = mins[SERIAL_INGEST] / mins[PROCESS_INGEST]
        status = "OK" if ratio >= PROCESS_SPEEDUP_FLOOR else "FAIL"
        print(
            f"{status:4s} process-executor ingest speedup: "
            f"{ratio:.2f}x serial 4-shard (floor "
            f"{PROCESS_SPEEDUP_FLOOR:.1f}x)"
        )
        if status == "FAIL":
            failures.append("process-executor-ingest-speedup")

    # And the compiled fold must keep beating the reference descent.
    mins = {row["name"]: row["min_s"] for row in candidate["results"]}
    fold = mins.get(FOLD_ROW)
    descent = mins.get(FOLD_DESCENT_ROW)
    if not fold or not descent:
        print(
            f"SKIP snapshot-fold gate: missing {FOLD_ROW} / "
            f"{FOLD_DESCENT_ROW} rows in candidate"
        )
    elif candidate["events"] < FOLD_GATE_MIN_EVENTS:
        print(
            f"SKIP snapshot-fold gate: measured {descent / fold:.2f}x at "
            f"{candidate['events']} events; the "
            f"{FOLD_SPEEDUP_FLOOR:.1f}x floor applies from "
            f"{FOLD_GATE_MIN_EVENTS} events up"
        )
    else:
        ratio = descent / fold
        status = "OK" if ratio >= FOLD_SPEEDUP_FLOOR else "FAIL"
        print(
            f"{status:4s} snapshot-fold speedup: {ratio:.2f}x the "
            f"descent fold (floor {FOLD_SPEEDUP_FLOOR:.1f}x)"
        )
        if status == "FAIL":
            failures.append("snapshot-fold-speedup")

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed more than "
            f"{args.tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    print("\nall benchmark means within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
