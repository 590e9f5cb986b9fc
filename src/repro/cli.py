"""Command-line interface: ``rap <command>``.

Commands:

* ``rap list`` — list the available experiment reproductions.
* ``rap experiment <id> [--events N] [--seed S]`` — run one experiment
  and print the paper-shaped report.
* ``rap profile <benchmark> <kind> [--epsilon E] [--events N]`` — profile
  a synthetic benchmark stream and print its hot-range tree.
* ``rap benchmarks`` — list the synthetic SPEC-like benchmarks.
* ``rap record <benchmark> <kind> <path>`` — write a binary trace file.
* ``rap analyze <path> [--epsilon E]`` — post-process a trace file:
  hot ranges, quantile brackets, memory stats (Section 3.2's offline
  flow).
* ``rap diff <path_a> <path_b>`` — profile two trace files and diff
  them range by range.
* ``rap serve <benchmark> <kind> [--shards N]`` — drive a stream through
  the sharded ingestion runtime (:class:`repro.runtime.Profiler`) in
  batches and report per-shard runtime metrics plus the snapshot's
  hot-range tree.
* ``rap audit <path> [--epsilon E]`` — replay a trace under the
  structural invariant auditor (``repro.checks``) and verify the
  estimate guarantees against an exact oracle.
* ``rap lint [paths...]`` — run the repo-specific RAP-LINT rules (the
  syntactic AST rules, the flow-sensitive dataflow rules, and the
  interprocedural concurrency rules; the registry is the single source
  of truth for the list). ``--strict`` forces every registered rule on
  and tightens noqa handling (bare suppressions are flagged, per-code
  ones need a reason); ``--explain RAP-LINTNNN`` prints a rule's
  rationale, example violation, and suggested fix.
* ``rap sanitize <benchmark> <kind> [--shards N]`` — replay a workload
  through a sharded profiler under the runtime race sanitizer
  (``RapConfig(debug_sanitize=True)``): every shard-tree mutation
  must hold the ingest lock, lock-holder tracking, a happens-before
  log. ``--inject-race`` deliberately mutates a shard tree from a
  foreign thread without the lock to prove the instrumentation trips.

Operational errors — an unknown experiment id, an unreadable or corrupt
trace file — print a one-line diagnostic and exit with status 1 rather
than raising a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.compare import diff_profiles
from .analysis.hot_report import render_hot_tree
from .checks.audit import audit_stream
from .checks.lint import (
    all_rule_codes,
    explain_rule,
    lint_paths,
    rule_count,
)
from .core.quantiles import quantile_bounds
from .experiments import runner
from .experiments.common import DEFAULT_SEED, HOT_FRACTION, profile_stream
from .workloads.spec import BENCHMARKS, benchmark
from .workloads.tracefile import read_trace, trace_info, write_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rap",
        description=(
            "Range Adaptive Profiling (CGO 2006) — reproduction toolkit"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment reproductions")
    commands.add_parser("benchmarks", help="list synthetic benchmarks")

    experiment = commands.add_parser(
        "experiment", help="run one experiment reproduction"
    )
    # Validated in main() so an unknown id exits 1 with a clean message
    # instead of an argparse usage error.
    experiment.add_argument("name")
    experiment.add_argument("--events", type=int, default=None)
    experiment.add_argument("--seed", type=int, default=DEFAULT_SEED)

    profile = commands.add_parser(
        "profile", help="profile one benchmark stream with RAP"
    )
    profile.add_argument("benchmark", choices=sorted(BENCHMARKS))
    profile.add_argument(
        "kind", choices=["code", "value", "narrow"], help="event stream kind"
    )
    profile.add_argument("--epsilon", type=float, default=0.01)
    profile.add_argument("--events", type=int, default=200_000)
    profile.add_argument("--seed", type=int, default=DEFAULT_SEED)
    profile.add_argument("--hot", type=float, default=HOT_FRACTION)

    record = commands.add_parser(
        "record", help="record a benchmark stream to a binary trace file"
    )
    record.add_argument("benchmark", choices=sorted(BENCHMARKS))
    record.add_argument("kind", choices=["code", "value", "narrow"])
    record.add_argument("path")
    record.add_argument("--events", type=int, default=200_000)
    record.add_argument("--seed", type=int, default=DEFAULT_SEED)

    analyze = commands.add_parser(
        "analyze", help="post-process a recorded trace file with RAP"
    )
    analyze.add_argument("path")
    analyze.add_argument("--epsilon", type=float, default=0.01)
    analyze.add_argument("--hot", type=float, default=HOT_FRACTION)

    diff = commands.add_parser(
        "diff", help="diff the profiles of two trace files"
    )
    diff.add_argument("path_a")
    diff.add_argument("path_b")
    diff.add_argument("--epsilon", type=float, default=0.02)
    diff.add_argument("--hot", type=float, default=HOT_FRACTION)

    serve = commands.add_parser(
        "serve",
        help="drive a stream through the sharded ingestion runtime",
    )
    serve.add_argument("benchmark", choices=sorted(BENCHMARKS))
    serve.add_argument("kind", choices=["code", "value", "narrow"])
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--executor",
        choices=["serial", "process"],
        default="serial",
    )
    serve.add_argument(
        "--partition", choices=["hash", "range"], default="hash"
    )
    serve.add_argument("--epsilon", type=float, default=0.01)
    serve.add_argument(
        "--shard-epsilon",
        type=float,
        default=None,
        help=(
            "per-shard epsilon (default: inherit --epsilon; pass "
            "shards*epsilon for the equal-memory configuration)"
        ),
    )
    serve.add_argument("--batch-size", type=int, default=4096)
    serve.add_argument("--events", type=int, default=200_000)
    serve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    serve.add_argument("--hot", type=float, default=HOT_FRACTION)

    audit = commands.add_parser(
        "audit",
        help="replay a trace under the structural invariant auditor",
    )
    audit.add_argument("path")
    audit.add_argument("--epsilon", type=float, default=0.01)
    audit.add_argument("--branching", type=int, default=4)

    sanitize = commands.add_parser(
        "sanitize",
        help="replay a workload under the runtime race sanitizer",
    )
    sanitize.add_argument("benchmark", choices=sorted(BENCHMARKS))
    sanitize.add_argument("kind", choices=["code", "value", "narrow"])
    sanitize.add_argument("--shards", type=int, default=4)
    sanitize.add_argument("--epsilon", type=float, default=0.05)
    sanitize.add_argument("--events", type=int, default=50_000)
    sanitize.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sanitize.add_argument("--batch-size", type=int, default=4096)
    sanitize.add_argument(
        "--inject-race",
        action="store_true",
        help=(
            "deliberately mutate a shard tree from a foreign thread "
            "without the ingest lock; the run must then report at "
            "least one violation"
        ),
    )

    lint = commands.add_parser(
        "lint",
        help=f"run the {rule_count()} repo-specific RAP-LINT rules",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the repro package)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help=(
            "comma-separated rule codes to run; a trailing * matches by "
            "prefix (RAP-LINT02*), which is how CI stages new rules"
        ),
    )
    lint.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule codes to skip (wildcards ok)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help=(
            "tighten noqa handling: bare suppressions are flagged and "
            "per-code ones must carry a reason; composes with "
            "--select/--ignore"
        ),
    )
    lint.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print a rule's rationale, example, and fix, then exit",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text"
    )
    return parser


def _fail(message: str) -> int:
    print(f"rap: error: {message}", file=sys.stderr)
    return 1


def _read_trace_checked(path: str):
    """Read a trace, translating I/O and format problems into SystemExit-free
    diagnostics (the caller turns None into exit status 1)."""
    try:
        return read_trace(path)
    except OSError as error:
        print(f"rap: error: cannot read trace {path!r}: {error.strerror or error}",
              file=sys.stderr)
    except ValueError as error:
        print(f"rap: error: {path!r} is not a valid trace: {error}",
              file=sys.stderr)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name, (_, description) in runner.EXPERIMENTS.items():
            print(f"{name:16s} {description}")
        return 0

    if args.command == "benchmarks":
        for name, spec in BENCHMARKS.items():
            print(f"{name:8s} {spec.description}")
        return 0

    if args.command == "experiment":
        if args.name not in runner.EXPERIMENTS:
            return _fail(
                f"unknown experiment {args.name!r}; run `rap list` to "
                f"see the available ids"
            )
        kwargs = {"seed": args.seed}
        if args.events is not None:
            kwargs["events"] = args.events
        print(runner.render_experiment(args.name, **kwargs))
        return 0

    if args.command == "profile":
        spec = benchmark(args.benchmark)
        if args.kind == "code":
            stream = spec.code_stream(args.events, seed=args.seed)
        elif args.kind == "value":
            stream = spec.value_stream(args.events, seed=args.seed)
        else:
            stream = spec.narrow_operand_stream(args.events, seed=args.seed)
        tree = profile_stream(stream, epsilon=args.epsilon)
        print(
            render_hot_tree(
                tree,
                args.hot,
                title=(
                    f"{stream.name}: {tree.events:,} events, "
                    f"eps={args.epsilon:.0%}, {tree.node_count} nodes"
                ),
            )
        )
        return 0

    if args.command == "record":
        spec = benchmark(args.benchmark)
        if args.kind == "code":
            stream = spec.code_stream(args.events, seed=args.seed)
        elif args.kind == "value":
            stream = spec.value_stream(args.events, seed=args.seed)
        else:
            stream = spec.narrow_operand_stream(args.events, seed=args.seed)
        write_trace(stream, args.path)
        info = trace_info(args.path)
        print(
            f"recorded {info['events']:,} {info['kind']} events to "
            f"{args.path}"
        )
        return 0

    if args.command == "analyze":
        stream = _read_trace_checked(args.path)
        if stream is None:
            return 1
        tree = profile_stream(stream, epsilon=args.epsilon)
        print(
            render_hot_tree(
                tree,
                args.hot,
                title=(
                    f"{args.path}: {tree.events:,} {stream.kind} events, "
                    f"eps={args.epsilon:.0%}, {tree.node_count} nodes "
                    f"({tree.memory_bytes() / 1024:.1f} KB)"
                ),
            )
        )
        if tree.events:
            print("\nquantile brackets (guaranteed):")
            for q in (0.5, 0.9, 0.99):
                low, high = quantile_bounds(tree, q)
                print(f"  p{int(q * 100):<3d} in [{low:#x}, {high:#x}]")
        return 0

    if args.command == "diff":
        first = _read_trace_checked(args.path_a)
        second = _read_trace_checked(args.path_b)
        if first is None or second is None:
            return 1
        before = profile_stream(first, epsilon=args.epsilon)
        after = profile_stream(second, epsilon=args.epsilon)
        result = diff_profiles(before, after, args.hot)
        print(result.render())
        print(f"\ntotal weight shift: {100 * result.total_shift():.1f}%")
        return 0

    if args.command == "serve":
        import time

        from .core import RapConfig
        from .runtime import Profiler

        spec = benchmark(args.benchmark)
        if args.kind == "code":
            stream = spec.code_stream(args.events, seed=args.seed)
        elif args.kind == "value":
            stream = spec.value_stream(args.events, seed=args.seed)
        else:
            stream = spec.narrow_operand_stream(args.events, seed=args.seed)
        config = RapConfig(stream.universe, epsilon=args.epsilon)
        profiler = Profiler.from_config(
            config,
            shards=args.shards,
            executor=args.executor,
            partition=args.partition,
            shard_epsilon=args.shard_epsilon,
            batch_size=args.batch_size,
            clock=time.perf_counter,
        )
        with profiler:
            for batch in stream.batches(args.batch_size):
                profiler.ingest(batch)
            snapshot = profiler.close()
        metrics = profiler.metrics
        print(
            f"{stream.name}: {metrics.events:,} events through "
            f"{args.shards} shard(s) [{args.executor}/{args.partition}]"
        )
        if args.executor == "process" and metrics.transport_stalls:
            print(
                f"  transport: {metrics.transport_stalls} ring-space "
                f"stall(s), {metrics.transport_stall_s * 1e3:.1f} ms waiting"
            )
        for shard in metrics.shards:
            print(
                f"  shard {shard.shard}: {shard.events:,} events in "
                f"{shard.batches} batches, {shard.node_count} nodes, "
                f"{shard.splits} splits, {shard.merge_batches} merges"
            )
        if metrics.events_per_second:
            print(
                f"  throughput: {metrics.events_per_second:,.0f} events/s "
                f"(ingest {metrics.ingest_seconds * 1e3:.1f} ms, "
                f"snapshot {metrics.snapshot_seconds * 1e3:.1f} ms)"
            )
        print(
            render_hot_tree(
                snapshot,
                args.hot,
                title=(
                    f"snapshot: {snapshot.events:,} events, "
                    f"{snapshot.node_count} nodes "
                    f"(bound eps={snapshot.config.epsilon:.0%})"
                ),
            )
        )
        return 0

    if args.command == "sanitize":
        import threading

        from .checks.sanitizer import RapSanitizerError
        from .core import RapConfig
        from .runtime import Profiler

        spec = benchmark(args.benchmark)
        if args.kind == "code":
            stream = spec.code_stream(args.events, seed=args.seed)
        elif args.kind == "value":
            stream = spec.value_stream(args.events, seed=args.seed)
        else:
            stream = spec.narrow_operand_stream(args.events, seed=args.seed)
        config = RapConfig(
            stream.universe, epsilon=args.epsilon, debug_sanitize=True
        )
        profiler = Profiler.from_config(
            config, shards=args.shards, batch_size=args.batch_size
        )
        with profiler:
            for batch in stream.batches(args.batch_size):
                profiler.ingest(batch)
            profiler.drain()
            if args.inject_race:
                # Deliberate fault injection: mutate a shard tree from
                # a thread that does not hold the ingest lock guarding
                # it. The wrapped mutator must record the violation and
                # raise before the tree is touched, so the run stays
                # deterministic.
                def _race() -> None:
                    try:
                        profiler.shard_trees()[0].add(0)  # deliberate fault injection
                    except RapSanitizerError:
                        pass  # recorded by the sanitizer; reported below
                intruder = threading.Thread(
                    target=_race, name="rap-sanitize-intruder"
                )
                intruder.start()
                intruder.join()
            snapshot = profiler.close()
        sanitizer = profiler.sanitizer
        assert sanitizer is not None
        summary = sanitizer.report()
        print(
            f"{stream.name}: {snapshot.events:,} events through "
            f"{args.shards} shard(s) under the race sanitizer"
        )
        print(
            f"  happens-before log: {summary['events_logged']} events "
            f"({summary['trees_tracked']} trees, "
            f"{len(summary['locks_tracked'])} locks tracked)"
        )
        violations = sanitizer.violations
        if violations:
            print(f"  {len(violations)} violation(s):")
            for message in violations:
                print(f"    - {message}")
        else:
            print("  no confinement or lock-discipline violations")
        if args.inject_race:
            if not violations:
                return _fail("injected race was not detected")
            print("  (expected: --inject-race provoked the violation)")
            return 0
        return 1 if violations else 0

    if args.command == "audit":
        stream = _read_trace_checked(args.path)
        if stream is None:
            return 1
        report = audit_stream(
            stream, epsilon=args.epsilon, branching=args.branching
        )
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "lint":
        if args.explain is not None:
            try:
                print(explain_rule(args.explain))
            except ValueError as error:
                return _fail(str(error))
            return 0

        def parse_codes(raw: Optional[str]) -> Optional[List[str]]:
            if raw is None:
                return None
            return [c.strip().upper() for c in raw.split(",") if c.strip()]

        try:
            report = lint_paths(
                args.paths or [__file__.rsplit("/", 1)[0]],
                select=parse_codes(args.select),
                ignore=parse_codes(args.ignore),
                strict=args.strict,
            )
        except (ValueError, FileNotFoundError) as error:
            return _fail(
                f"{error} (known rules: {', '.join(all_rule_codes())})"
            )
        if args.format == "json":
            print(report.to_json())
        elif args.format == "sarif":
            print(report.to_sarif())
        else:
            print(report.render_text())
        return 0 if report.ok else 1

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
