"""Ablations of the paper's design choices (Section 3.1).

Three engineering decisions get isolated:

* **batched vs continuous merging** — the paper batches merges with
  exponentially growing intervals instead of merging continuously;
  continuous merging keeps the tree slightly smaller but pays orders of
  magnitude more scan work, while the profiles it produces are
  equivalent;
* **branching factor** — ``b = 4`` against the alternatives on a real
  stream (memory vs convergence; complements the Figure 2 bounds);
* **duplicate combining** — the software-side analogue of the stage-0
  buffer: identical results, far fewer tree operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.report import Table
from ..baselines.continuous import ContinuousMergeRap
from ..core.config import RapConfig
from ..core.hot_ranges import find_hot_ranges
from ..core.tree import RapTree
from ..workloads.spec import benchmark
from .common import DEFAULT_SEED, HOT_FRACTION

EPSILON = 0.05
BRANCHINGS = (2, 4, 8, 16)


@dataclass(frozen=True)
class MergePolicyRow:
    policy: str
    max_nodes: int
    average_nodes: float
    merge_batches: int
    scan_visits: int
    hot_ranges: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class BranchingAblationRow:
    branching: int
    max_nodes: int
    splits: int
    hot_count: int


@dataclass(frozen=True)
class CombiningRow:
    combine_chunk: int
    updates: int
    identical_profile: bool


@dataclass(frozen=True)
class AblationResult:
    events: int
    merge_rows: Tuple[MergePolicyRow, ...]
    branching_rows: Tuple[BranchingAblationRow, ...]
    combining_rows: Tuple[CombiningRow, ...]

    @property
    def same_hot_ranges(self) -> bool:
        """Do batched and continuous merging find the same hot ranges?"""
        reference = self.merge_rows[0].hot_ranges
        return all(row.hot_ranges == reference for row in self.merge_rows)

    @property
    def scan_ratio(self) -> float:
        """Continuous scan work over batched scan work."""
        batched = next(r for r in self.merge_rows if r.policy == "batched")
        continuous = next(
            r for r in self.merge_rows if r.policy == "continuous"
        )
        return continuous.scan_visits / max(1, batched.scan_visits)

    def render(self) -> str:
        merge_table = Table(
            ["policy", "max nodes", "avg nodes", "batches", "scan visits"],
            title=f"merge policy ablation ({self.events:,} events)",
        )
        for row in self.merge_rows:
            merge_table.add_row(
                [
                    row.policy,
                    row.max_nodes,
                    row.average_nodes,
                    row.merge_batches,
                    row.scan_visits,
                ]
            )
        branch_table = Table(
            ["b", "max nodes", "splits", "hot ranges"],
            title="branching factor ablation",
        )
        for row in self.branching_rows:
            branch_table.add_row(
                [row.branching, row.max_nodes, row.splits, row.hot_count]
            )
        combine_table = Table(
            ["combine chunk", "tree updates", "identical profile"],
            title="duplicate combining ablation",
        )
        for row in self.combining_rows:
            combine_table.add_row(
                [
                    row.combine_chunk,
                    row.updates,
                    "yes" if row.identical_profile else "NO",
                ]
            )
        summary = (
            f"continuous merging does {self.scan_ratio:,.0f}x the scan work "
            f"for the same hot ranges: {self.same_hot_ranges}"
        )
        return "\n\n".join(
            [
                merge_table.to_text(),
                branch_table.to_text(),
                combine_table.to_text(),
                summary,
            ]
        )


def run(
    events: int = 120_000,
    seed: int = DEFAULT_SEED,
    epsilon: float = EPSILON,
) -> AblationResult:
    """Run all three ablations on the gcc code stream."""
    stream = benchmark("gcc").code_stream(events, seed=seed)
    config = RapConfig(range_max=stream.universe, epsilon=epsilon)

    # --- merge policy ---------------------------------------------------
    merge_rows: List[MergePolicyRow] = []
    batched = RapTree.from_config(config)
    batched.extend(iter(stream))
    continuous = ContinuousMergeRap(config, merge_interval=256)
    continuous.extend(iter(stream))
    for policy, tree in (("batched", batched), ("continuous", continuous)):
        hot = tuple(
            (item.lo, item.hi) for item in find_hot_ranges(tree, HOT_FRACTION)
        )
        merge_rows.append(
            MergePolicyRow(
                policy=policy,
                max_nodes=tree.stats.max_nodes,
                average_nodes=tree.stats.average_nodes,
                merge_batches=tree.stats.merge_batches,
                scan_visits=tree.stats.merge_scan_visits,
                hot_ranges=hot,
            )
        )

    # --- branching factor -------------------------------------------------
    branching_rows: List[BranchingAblationRow] = []
    for b in BRANCHINGS:
        tree = RapTree.from_config(config.with_updates(branching=b))
        tree.extend(iter(stream))
        branching_rows.append(
            BranchingAblationRow(
                branching=b,
                max_nodes=tree.stats.max_nodes,
                splits=tree.stats.splits,
                hot_count=len(find_hot_ranges(tree, HOT_FRACTION)),
            )
        )

    # --- duplicate combining ----------------------------------------------
    combining_rows: List[CombiningRow] = [
        CombiningRow(
            combine_chunk=0,
            updates=batched.stats.updates,
            identical_profile=True,
        )
    ]
    reference_hot = {
        (item.lo, item.hi): item.fraction
        for item in find_hot_ranges(batched, HOT_FRACTION)
    }
    for chunk in (256, 4096):
        tree = RapTree.from_config(config)
        tree.add_stream(iter(stream), combine_chunk=chunk)
        # Combining defers split *timing* slightly, so "identical" means
        # the hot sets agree up to ranges sitting right at the cutoff
        # (a range at 10.0 +/- 1% can flip either way).
        hot = {
            (item.lo, item.hi): item.fraction
            for item in find_hot_ranges(tree, HOT_FRACTION)
        }
        disagreements = set(hot) ^ set(reference_hot)
        borderline = all(
            abs(
                hot.get(key, reference_hot.get(key, 0.0)) - HOT_FRACTION
            ) <= 0.01
            for key in disagreements
        )
        combining_rows.append(
            CombiningRow(
                combine_chunk=chunk,
                updates=tree.stats.updates,
                identical_profile=borderline,
            )
        )

    return AblationResult(
        events=events,
        merge_rows=tuple(merge_rows),
        branching_rows=tuple(branching_rows),
        combining_rows=tuple(combining_rows),
    )
