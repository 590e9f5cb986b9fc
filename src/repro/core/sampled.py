"""Sampling front end for RAP — the paper's proposed unification.

Section 6: "It may further be possible to unify our proposed techniques
with existing sampling based schemes to create a single general purpose
profiling system." This module implements that unification: a Bernoulli
sampler in front of a RAP tree. Only a ``rate`` fraction of events enter
the tree (cutting per-event work by ``1/rate``); estimates are scaled
back up by ``1/rate``.

The trade-off is exactly the one the paper's footnote draws ("counters
are never decremented which is why this is not a sampling scheme"):
scaled estimates are no longer one-sided lower bounds — sampling noise
is symmetric — and rare ranges can be missed entirely. The guarantees
become probabilistic: for a range with true count ``c``, the scaled
estimate concentrates within ``O(sqrt(c / rate))`` of ``c`` (binomial
deviation) plus the usual ``epsilon * n`` structural undercount.
The ablation experiment quantifies both effects.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .config import RapConfig
from .hot_ranges import DEFAULT_HOT_FRACTION, HotRange, find_hot_ranges
from .tree import RapTree


class SampledRapTree:
    """A RAP tree fed by a seeded Bernoulli sampler.

    The public surface mirrors :class:`RapTree` where meaningful;
    estimates and hot-range weights are rescaled to the full stream.
    """

    def __init__(self, config: RapConfig, rate: float, seed: int = 0) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self._tree = RapTree.from_config(config)
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._events_seen = 0

    @property
    def tree(self) -> RapTree:
        """The underlying (sample-space) RAP tree."""
        return self._tree

    @property
    def config(self) -> RapConfig:
        return self._tree.config

    @property
    def events_seen(self) -> int:
        """Raw events offered to the sampler (the stream's ``n``)."""
        return self._events_seen

    @property
    def events_sampled(self) -> int:
        """Events that actually entered the tree."""
        return self._tree.events

    @property
    def node_count(self) -> int:
        return self._tree.node_count

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def add(self, value: int) -> None:
        self._events_seen += 1
        if self._rng.random() < self.rate:
            self._tree.add(value)

    def extend(self, values: Iterable[int]) -> None:
        for value in values:
            self.add(value)

    def feed_array(self, values: np.ndarray) -> None:
        """Bulk path: one vectorized coin flip pass, then tree updates."""
        count = int(values.shape[0])
        if count == 0:
            return
        self._events_seen += count
        mask = self._rng.random(count) < self.rate
        picked = values[mask]
        # Preserve arrival order; combining is the tree's own business.
        for value in picked:
            self._tree.add(int(value))

    # ------------------------------------------------------------------
    # Scaled queries
    # ------------------------------------------------------------------

    def estimate(self, lo: int, hi: int) -> float:
        """Scaled estimate of true events in ``[lo, hi]``."""
        return self._tree.estimate(lo, hi) / self.rate

    def estimate_stddev(self, lo: int, hi: int) -> float:
        """One-sigma sampling noise of :meth:`estimate`.

        Binomial deviation of the scaled estimate:
        ``sqrt(c_hat * (1 - rate)) / rate`` with ``c_hat`` the sampled
        count — the structural (epsilon) undercount comes on top.
        """
        sampled = self._tree.estimate(lo, hi)
        return math.sqrt(max(0.0, sampled * (1.0 - self.rate))) / self.rate

    def hot_ranges(
        self, hot_fraction: float = DEFAULT_HOT_FRACTION
    ) -> List[HotRange]:
        """Hot ranges of the sample, weights rescaled to the full stream.

        Hot fractions are scale-free (both weight and ``n`` scale by the
        sampling rate), so the hot *set* is computed directly on the
        sample; only absolute weights need rescaling.
        """
        if self._events_seen == 0:
            return []
        scale = 1.0 / self.rate
        rescaled = []
        for item in find_hot_ranges(self._tree, hot_fraction):
            rescaled.append(
                HotRange(
                    lo=item.lo,
                    hi=item.hi,
                    weight=int(item.weight * scale),
                    fraction=item.weight / max(1, self._tree.events),
                    depth=item.depth,
                    inclusive_weight=int(item.inclusive_weight * scale),
                )
            )
        return rescaled

    def error_bound(self) -> float:
        """Structural undercount bound in full-stream units.

        ``epsilon`` applies to the *sampled* stream; scaled back up it is
        ``epsilon * n_sampled / rate ~= epsilon * n`` — sampling does not
        loosen the structural term, it adds the stochastic one.
        """
        return self.config.epsilon * self._tree.events / self.rate

    def memory_bytes(self, bits_per_node: int = 128) -> int:
        return self._tree.memory_bytes(bits_per_node)

    def modeled_memory_bytes(self, bits_per_node: int = 128) -> int:
        return self._tree.modeled_memory_bytes(bits_per_node)
