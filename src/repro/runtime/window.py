"""The combining window: one shard's stage-0 event buffer.

Every shard tree is fed through a :class:`CombiningWindow` — in the
shard's worker under the process executor, next to the tree under the
serial one. It buffers partitioned frames (raw values weigh 1 each,
``ingest_counted``'s sorted frames carry counts) and duplicate-combines
them in one ``np.unique`` pass per flush: the paper's event-combining
buffer (Section 3.3, stage 0) stretched across frames. Both executors
push the same frames and flush at the same points — a full window, and
every ``drain``/``snapshot``/``close`` — so they build byte-identical
trees, as long as no frame exceeds half its ring (the ring would split
it, and the worker checks the window after each half).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.tree import RapTree

# Flush threshold, in buffered events. Large enough that a typical
# drain-bounded burst coalesces into one tree pass, small enough to
# bound memory under sustained overload (2**17 uint64 values is
# 1 MiB). Flushes depend only on the frame sequence, never on timing,
# so the built tree stays a pure function of the stream.
_COMBINE_WINDOW = 1 << 17


def _combine_frames(
    raw: List[np.ndarray],
    counted: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Duplicate-combine buffered frames into one sorted counted frame.

    ``raw`` frames weight each occurrence 1; ``counted`` frames carry
    explicit counts. The result is exactly ``np.unique`` with counts
    over the concatenated expansion — ascending values, summed
    weights — without ever materializing the expansion. Dtypes pass
    through untouched: ``add_counted_arrays`` owns validation, so
    malformed values raise there exactly as they would have
    frame by frame.
    """
    if not counted:
        uniques, counts = np.unique(
            np.concatenate(raw), return_counts=True
        )
        return uniques, counts.astype(np.int64, copy=False)
    parts = list(raw) + [values for values, _ in counted]
    weights = [
        np.ones(len(values), dtype=np.int64) for values in raw
    ] + [counts for _, counts in counted]
    uniques, inverse = np.unique(
        np.concatenate(parts), return_inverse=True
    )
    combined = np.zeros(uniques.size, dtype=np.int64)
    np.add.at(combined, inverse, np.concatenate(weights))
    return uniques, combined


class CombiningWindow:
    """Buffered frames for one shard tree, combined once per flush."""

    __slots__ = ("_raw", "_counted", "events")

    def __init__(self) -> None:
        self._raw: List[np.ndarray] = []
        self._counted: List[Tuple[np.ndarray, np.ndarray]] = []
        #: Events buffered since the last flush (counted frames weigh
        #: their counts).
        self.events = 0

    def push(
        self, values: np.ndarray, counts: Optional[np.ndarray] = None
    ) -> bool:
        """Buffer one frame (held, not copied); ``True`` once full."""
        if counts is None:
            self._raw.append(values)
            self.events += len(values)
        else:
            self._counted.append((values, counts))
            self.events += int(np.sum(counts))
        return self.events >= _COMBINE_WINDOW

    def materialize(self) -> None:
        """Copy buffered arrays into window-owned memory (so a ring
        consumer can release the bytes under its views); invisible to
        the tree."""
        self._raw = [np.array(part) for part in self._raw]
        self._counted = [
            (np.array(values), np.array(counts))
            for values, counts in self._counted
        ]

    def clear(self) -> None:
        """Drop everything buffered, unprocessed."""
        self._raw = []
        self._counted = []
        self.events = 0

    def flush(self, tree: RapTree) -> None:
        """One combining pass over everything buffered, one tree ingest.

        A fresh columnar tree takes the cold-start bulk build when its
        preconditions hold, any other flush the online counted kernel;
        an object tree takes sorted pairs through ``add_counted``. The
        window is emptied first, so a flush that raises leaves nothing
        behind.
        """
        raw, counted = self._raw, self._counted
        self.clear()
        if not (raw or counted):
            return
        values, counts = _combine_frames(raw, counted)
        if tree.config.backend != "columnar":
            tree.add_counted(zip(values.tolist(), counts.tolist()))
        elif not (
            tree.events == 0
            and tree.bootstrap_counted_arrays(values, counts)  # type: ignore[attr-defined]
        ):
            tree.add_counted_arrays(values, counts)  # type: ignore[attr-defined]
