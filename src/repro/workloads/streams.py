"""Event streams — the interface between workloads and profilers.

An :class:`EventStream` is a named, typed, bounded-universe sequence of
integer events. RAP consumes streams one event at a time (it is a
one-pass algorithm); the exact baseline consumes them in bulk. Streams
carry their universe size so profilers can size their root range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

PC_UNIVERSE = 2**32
VALUE_UNIVERSE = 2**64
ADDRESS_UNIVERSE = 2**64


@dataclass
class EventStream:
    """A bounded stream of integer profile events.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"gcc.code"``.
    kind:
        One of ``"pc"``, ``"load_value"``, ``"address"`` — the event
        type being profiled (Section 1 lists these as RAP's targets).
    universe:
        Size ``R`` of the event universe; every value is in
        ``[0, universe)``.
    values:
        The events, as an unsigned numpy array.
    """

    name: str
    kind: str
    universe: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.universe < 2:
            raise ValueError(f"universe must be >= 2, got {self.universe}")
        if self.values.ndim != 1:
            raise ValueError("values must be a 1-D array")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[int]:
        """Iterate events as Python ints (what profilers consume)."""
        return (int(value) for value in self.values)

    def counted(self, chunk: int = 4096) -> Iterator[Tuple[int, int]]:
        """Yield ``(value, count)`` pairs, combining duplicates per chunk.

        The software analogue of the hardware event buffer (Section 3.3,
        stage 0): duplicates inside a window are merged before reaching
        the profiler, which slashes per-event work on skewed streams.
        """
        total = len(self)
        for start in range(0, total, chunk):
            window = self.values[start : start + chunk]
            uniques, counts = np.unique(window, return_counts=True)
            for value, count in zip(uniques, counts):
                yield int(value), int(count)

    def batches(self, chunk: int = 4096) -> Iterator[np.ndarray]:
        """Yield raw value arrays of at most ``chunk`` events.

        The adapter between streams and :meth:`repro.runtime.Profiler.
        ingest`: each yielded array is one ingest call's worth of
        events, preserving stream order.
        """
        total = len(self)
        for start in range(0, total, chunk):
            yield self.values[start : start + chunk]

    def exact_counts(self) -> Dict[int, int]:
        """Ground-truth value counts (what a perfect profiler gathers)."""
        uniques, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(uniques, counts)}

    def distinct(self) -> int:
        """Number of distinct event values in the stream."""
        return int(np.unique(self.values).shape[0])

    def head(self, count: int) -> "EventStream":
        """A stream holding only the first ``count`` events."""
        return EventStream(
            name=self.name,
            kind=self.kind,
            universe=self.universe,
            values=self.values[:count],
        )

    def concat(self, other: "EventStream") -> "EventStream":
        """Concatenate two streams over the same universe."""
        if other.universe != self.universe or other.kind != self.kind:
            raise ValueError("can only concatenate streams of the same type")
        return EventStream(
            name=f"{self.name}+{other.name}",
            kind=self.kind,
            universe=self.universe,
            values=np.concatenate([self.values, other.values]),
        )

    def validate(self) -> None:
        """Raise if any event falls outside the declared universe."""
        if len(self) == 0:
            return
        top = int(self.values.max())
        if top >= self.universe:
            raise ValueError(
                f"stream {self.name!r} has event {top:#x} outside universe "
                f"{self.universe:#x}"
            )


def stream_from_values(
    name: str, kind: str, universe: int, values: List[int]
) -> EventStream:
    """Build a stream from a plain Python list (tests, small examples)."""
    return EventStream(
        name=name,
        kind=kind,
        universe=universe,
        values=np.asarray(values, dtype=np.uint64),
    )
