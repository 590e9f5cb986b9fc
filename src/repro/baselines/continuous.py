"""Continuous-merge RAP variant — the design the paper argues against.

Section 3.1: "Rather than detecting and handling merges at the soonest
possible time, we propose batching the merges together." The alternative
— merging continuously — keeps the tightest possible memory bound but
pays for it by "continuously search[ing] the tree for valid sets of
nodes to be merged" (Figure 3's left-hand label: "merges performed every
cycle").

``ContinuousMergeRap`` approximates the continuous design by running a
full merge pass at a short fixed interval instead of the exponentially
growing schedule. The ablation experiment compares both on node counts
(continuous is tighter), scan work (continuous does orders of magnitude
more), and profile quality (identical hot ranges — merging more often
buys nothing there).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import RapConfig
from ..core.tree import RapTree


@dataclass
class FixedIntervalScheduler:
    """Merge every ``interval`` events, forever (duck-types MergeScheduler)."""

    interval: int = 256
    next_at: float = field(init=False)
    batches_fired: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        self.next_at = float(self.interval)

    def due(self, events: int) -> bool:
        return events >= self.next_at

    def fired(self, events: int) -> None:
        self.batches_fired += 1
        while self.next_at <= events:
            self.next_at += self.interval


class ContinuousMergeRap(RapTree):
    """RAP with (near-)continuous merging for the batching ablation.

    A linked tree by inheritance, so its config names the object
    backend whatever ``config`` says: a fold of these trees follows
    the config, as for any other tree, and needs no compiler.
    """

    def __init__(self, config: RapConfig, merge_interval: int = 256) -> None:
        super().__init__(config.with_updates(backend="object"))
        self._scheduler = FixedIntervalScheduler(interval=merge_interval)

    @property
    def merge_interval(self) -> int:
        return self._scheduler.interval
