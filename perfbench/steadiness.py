"""Run the benchmark as two interleaved sets and report how steady it is.

For every workload, runs ``run.py`` once per seed in each of two sets,
A and B, alternating A and B seed by seed, so that a host whose speed
drifts during the record slows both sets alike. Set B's seeds follow
set A's (``--seeds 1-10`` gives A seeds 1-10 and B seeds 11-20). Per
end-to-end metric it prints each set's median, quartiles
(``statistics.quantiles`` with ``n=4``) and spread (quartile distance
over the median), set B's median against set A's, and the bound
declared in ``BENCHMARK.json``. A metric is ``ok`` when both spreads
(except ``setup_s``'s) and the distance between the two medians stay
within its bound. Before each run it times a fixed pure-Python loop,
the host-noise control, so a noisy host shows up in its own row.
Usage, from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds N]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def control_loop_s() -> float:
    """Wall time of a fixed CPU-bound loop (host-noise control)."""
    start = time.perf_counter()
    total = 0
    for index in range(3_000_000):
        total += index * index % 7
    return time.perf_counter() - start


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One untraced run: its metrics and its ungated figures, by name."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: FAILED {meta['errors']}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Reported but ungated figures, for the record.
    ungated = dict(meta["latencies"], undercount_max_eps=meta["undercount_max_eps"])
    values.update({f"({name})": value for name, value in ungated.items()})
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        sets: List[Dict[str, List[float]]] = [{}, {}]
        for seed in seeds:
            for index, values in enumerate(sets):
                run_seed = seed + index * len(seeds)
                values.setdefault("control_loop_s", []).append(control_loop_s())
                for name, value in run_once(workload, run_seed, args.seconds).items():
                    values.setdefault(name, []).append(value)
                print(f"{workload} seed {run_seed} done", file=sys.stderr)
        print(f"\n### {workload}\n")
        print("| metric | A median | A q1 – q3 | A spread | B median | "
              "B q1 – q3 | B spread | B vs A | bound | ok |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for name in sets[0]:
            a, b = summarize(sets[0][name]), summarize(sets[1][name])
            shift = b["median"] / a["median"] - 1
            bound = bounds.get(name)
            ok = ""
            if bound is not None:
                spreads = [] if name == "setup_s" else [a["spread"], b["spread"]]
                ok = "yes" if max(spreads + [abs(shift)]) <= bound else "NO"
            print(
                f"| {name} | {a['median']:.4g} | {a['q1']:.4g} – {a['q3']:.4g} | "
                f"{a['spread']:.3f} | {b['median']:.4g} | "
                f"{b['q1']:.4g} – {b['q3']:.4g} | {b['spread']:.3f} | "
                f"{shift:+.1%} | {'' if bound is None else bound} | {ok} |"
            )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
