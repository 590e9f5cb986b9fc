"""The combining window: one shard's stage-0 event buffer.

Every shard tree is fed through a :class:`CombiningWindow` — in the
shard's worker under the process executor, next to the tree under the
serial one. It buffers partitioned frames (raw values weigh 1 each,
``ingest_counted``'s sorted frames carry counts) and duplicate-combines
them in one sorting pass per flush: the paper's event-combining
buffer (Section 3.3, stage 0) stretched across frames. Both executors
cut frames to the same length, push the same frames and flush at the
same points — a full window, and every ``drain``/``snapshot``/``close``
— so they build byte-identical trees.

The window owns what it buffers: :meth:`CombiningWindow.push` copies
each frame, so its caller may release or overwrite the frame at once
(the worker hands its ring bytes back to the producer right after the
push). Raw frames are copied into one ``uint64`` buffer sized for a
full window plus one frame, allocated at a window's first push and
dropped at its flush; counted frames are copied whole.
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
    raw: np.ndarray,
    counted: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Duplicate-combine buffered frames into one sorted counted frame.

    ``raw`` values weigh 1 per occurrence; ``counted`` frames carry
    explicit counts. The result is exactly ``np.unique`` with counts
    over the concatenated expansion — ascending values, summed
    weights — without ever materializing the expansion. Malformed
    values pass through: ``add_counted_arrays`` owns validation, so
    they raise there exactly as they would have frame by frame.

    Without counted frames ``raw`` is sorted in place and run-length
    encoded (the window hands over a buffer nothing else holds), which
    skips ``np.unique``'s copy of the input and its extra passes.
    """
    if not counted:
        raw.sort()
        edges = np.ones(raw.size + 1, dtype=np.bool_)
        np.not_equal(raw[1:], raw[:-1], out=edges[1:-1])
        runs = np.flatnonzero(edges)
        return raw[runs[:-1]], np.diff(runs)
    parts = [raw] + [values for values, _ in counted]
    weights = [np.ones(len(raw), dtype=np.int64)] + [
        counts for _, counts in counted
    ]
    uniques, inverse = np.unique(
        np.concatenate(parts), return_inverse=True
    )
    combined = np.zeros(uniques.size, dtype=np.int64)
    np.add.at(combined, inverse, np.concatenate(weights))
    return uniques, combined


class CombiningWindow:
    """Buffered frames for one shard tree, combined once per flush.

    ``frame_events`` is the longest frame the window will be pushed.
    A window is flushed as soon as :meth:`push` reports it full, so
    the raw buffer never holds more than ``_COMBINE_WINDOW - 1`` events
    plus one frame.
    """

    __slots__ = ("_frame_events", "_raw", "_held", "_counted", "events")

    def __init__(self, frame_events: int) -> None:
        self._frame_events = frame_events
        self._raw: Optional[np.ndarray] = None
        #: Raw values held at the front of ``_raw``.
        self._held = 0
        self._counted: List[Tuple[np.ndarray, np.ndarray]] = []
        #: Events buffered since the last flush (counted frames weigh
        #: their counts).
        self.events = 0

    def push(
        self, values: np.ndarray, counts: Optional[np.ndarray] = None
    ) -> bool:
        """Buffer a copy of one frame; ``True`` once the window is full."""
        if counts is None:
            if self._raw is None:
                self._raw = np.empty(
                    _COMBINE_WINDOW + self._frame_events, dtype=np.uint64
                )
            end = self._held + len(values)
            self._raw[self._held:end] = values
            self._held = end
            self.events += len(values)
        else:
            self._counted.append((np.array(values), np.array(counts)))
            self.events += int(np.sum(counts))
        return self.events >= _COMBINE_WINDOW

    def clear(self) -> None:
        """Drop everything buffered, unprocessed."""
        self._raw = None
        self._held = 0
        self._counted = []
        self.events = 0

    def flush(self, tree: RapTree) -> None:
        """One combining pass over everything buffered, one tree ingest.

        A fresh tree takes the cold-start bulk build when its
        preconditions hold, any other flush the online counted kernel.
        The window is emptied first, so a flush that raises leaves
        nothing behind.
        """
        raw = np.empty(0, dtype=np.uint64)
        if self._raw is not None:
            raw = self._raw[:self._held]
        counted = self._counted
        self.clear()
        if not (len(raw) or counted):
            return
        values, counts = _combine_frames(raw, counted)
        if not (
            tree.events == 0
            and tree.bootstrap_counted_arrays(values, counts)  # type: ignore[attr-defined]
        ):
            tree.add_counted_arrays(values, counts)  # type: ignore[attr-defined]
