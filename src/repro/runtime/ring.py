"""Shared-memory SPSC ring transport for the process executor.

One :class:`RingProducer`/:class:`RingConsumer` pair per shard worker
moves the partitioned event stream between the parent and its worker
process through a byte ring buffer living in one
:class:`~repro.runtime.shm.ShmArena` segment — zero pickle, zero
intermediate copies. The parent encodes binary counted frames
(:mod:`repro.core.serialize`) straight from the partitioner's output
arrays into the ring with two slice assignments; the worker decodes
them as *read-only ndarray views* over the same memory, copies each
into its combining window and releases it. The process executor's
duplex pipe carries only low-rate control (ready/synced/bye replies,
exit/wake) — the data path never pickles.

Memory layout (all offsets relative to the shared region)::

    0    head      u64 — bytes released by the consumer   (cache line 0)
    64   tail      u64 — bytes committed by the producer   (cache line 1)
    128  committed u64 — frames committed by the producer  (cache line 2)
    192  consumed  u64 — frames consumed by the consumer   (cache line 3)
    256  data[capacity]                                    (the ring)

``head`` and ``tail`` are *monotonic* byte counters (they never wrap;
positions are ``counter % capacity``), each written by exactly one
side and read by the other, on separate cache lines so the two sides
never false-share. Occupancy is ``tail - head``; the producer may
write while ``tail - head + record <= capacity``.

Records and the commit protocol. Each frame is length-prefixed::

    u64 length | frame bytes | pad to 8

The producer writes the frame bytes first, then the length word, and
publishes ``tail`` (and bumps ``committed``) strictly last — so a
consumer that trusts ``tail`` can never observe a torn frame, and the
length word doubles as a per-record commit marker for crash forensics:
after a SIGKILL, ``committed``/``consumed`` say exactly how many
frames each side got through (surfaced in ``WorkerCrashed``). A frame
never straddles the wrap point: when the tail-to-end gap is too small
the producer stamps a one-word ``PAD`` record (length
``0xFFFF_FFFF_FFFF_FFFF``) that tells the consumer to skip to the ring
start, keeping every frame contiguous so decoded views stay zero-copy.

Backpressure has one form: the producer *blocks* until the consumer
releases space, periodically invoking the ``liveness`` callback so a
dead consumer raises :class:`RingStalled` instead of hanging forever.
Every frame fits by construction: :meth:`RingProducer.write_frame`
refuses one larger than :meth:`RingProducer.max_frame_bytes` with
``ValueError``, and the profiler cuts its frames to
:func:`max_frame_events` so none ever is. The consumer copies each
frame out and releases it before taking the next, so a blocked
producer always waits on progress the consumer can make.

Determinism: the byte stream a consumer sees is a pure function of the
producer's frame sequence (ring order = write order), so the worker's
combining-buffer flush points — and therefore the shard tree — are a
pure function of the ingested stream: repeat runs build bit-identical
trees.

Timing discipline: this module never reads the wall clock. Stall
*counts* are always recorded; stall *seconds* only accumulate when the
profiler injected a ``clock=`` callable (the RAP-LINT005 pattern), so
metric dumps stay byte-for-byte reproducible without one.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from ..core.serialize import (
    FRAME_CBATCH,
    FRAME_HEADER_BYTES,
    FRAME_SYNC,
    BinaryFrame,
    FrameError,
    decode_frame,
    encode_frame_into,
    frame_nbytes,
)

__all__ = [
    "DEFAULT_RING_BYTES",
    "MIN_RING_BYTES",
    "RING_HEADER_BYTES",
    "RingConsumer",
    "RingProducer",
    "RingStalled",
    "max_frame_events",
]

#: Counter block at the start of the shared region: four u64s, one per
#: cache line (see module docstring).
RING_HEADER_BYTES = 256

#: Default shared region size per shard (header + data). 4 MiB of data
#: holds several combining windows' worth of frames (2**17 uint64
#: events is 1 MiB), so the producer runs that far ahead of a worker
#: busy in a flush before it has to wait.
DEFAULT_RING_BYTES = 1 << 22

#: Smallest usable region: header plus enough data for a sync frame,
#: a pad record and a minimal batch on both sides of a wrap.
MIN_RING_BYTES = RING_HEADER_BYTES + 1024

#: Length-word sentinel: "no frame here — skip to the ring start".
_PAD_WORD = 0xFFFF_FFFF_FFFF_FFFF

_LENGTH_BYTES = 8
_RECORD_ALIGN = 8

#: Blocked-side wait tuning: spin a little (the common stall is the
#: consumer mid-flush, microseconds away), then sleep in short slices,
#: checking liveness every few slices so a SIGKILLed peer surfaces in
#: well under a second without a wall-clock read anywhere.
_SPIN_ROUNDS = 128
_SLEEP_S = 0.0005
_LIVENESS_EVERY = 32


class RingStalled(RuntimeError):
    """The peer stopped making progress while we were blocked on it.

    Raised from a blocking ring operation when the ``liveness`` callback
    reports the other side dead. Carries the ring's frame counters so
    the caller (the profiler) can say exactly how far each side got —
    ``committed`` frames published by the producer, ``consumed`` frames
    the consumer had taken when it died.
    """

    def __init__(self, committed: int, consumed: int) -> None:
        self.committed = committed
        self.consumed = consumed
        super().__init__(
            f"ring peer died: {committed} frames committed, "
            f"{consumed} consumed"
        )


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _RECORD_ALIGN) * _RECORD_ALIGN


def _capacity(region_bytes: int) -> int:
    """Data bytes of a ring region: a multiple of the record alignment,
    so a record never ends at a misaligned position."""
    return (region_bytes - RING_HEADER_BYTES) & ~(_RECORD_ALIGN - 1)


def _max_frame_bytes(capacity: int) -> int:
    # Worst case a frame needs a pad to the wrap point plus its own
    # record; half the ring less two length words leaves room for both
    # whatever the tail position, so a blocked producer always fits
    # once the consumer has released everything.
    return capacity // 2 - 2 * _LENGTH_BYTES


def max_frame_events(region_bytes: int) -> int:
    """Longest counted frame a ring region of ``region_bytes`` always
    holds. A raw frame of that length is smaller, so it fits too."""
    per_event = frame_nbytes(FRAME_CBATCH, 1) - FRAME_HEADER_BYTES
    limit = _max_frame_bytes(_capacity(region_bytes))
    return (limit - FRAME_HEADER_BYTES) // per_event


class _RingEnd:
    """State shared by both ends: counter views plus the data window."""

    def __init__(self, region: np.ndarray) -> None:
        if region.dtype != np.uint8 or region.ndim != 1:
            raise ValueError("ring region must be a 1-D uint8 array")
        if len(region) < MIN_RING_BYTES:
            raise ValueError(
                f"ring region of {len(region)} bytes is below the "
                f"{MIN_RING_BYTES}-byte minimum"
            )
        self._counters = region[:RING_HEADER_BYTES].view(np.uint64)
        self.capacity = _capacity(len(region))
        self._data = region[RING_HEADER_BYTES:][:self.capacity]

    # Counter accessors: each u64 sits alone on its cache line; a read
    # or write is one aligned 8-byte access.
    @property
    def head(self) -> int:
        return int(self._counters[0])

    @property
    def tail(self) -> int:
        return int(self._counters[8])

    @property
    def committed_frames(self) -> int:
        """Frames published by the producer (the commit sequence)."""
        return int(self._counters[16])

    @property
    def consumed_frames(self) -> int:
        """Frames the consumer has taken out of the ring."""
        return int(self._counters[24])

    @property
    def occupancy(self) -> int:
        """Bytes currently committed and not yet released."""
        return self.tail - self.head


class RingProducer(_RingEnd):
    """The single writer of an SPSC ring (the profiler's dispatch side).

    Not thread-safe by design — the profiler's ingest lock already
    serializes producers, and the SPSC protocol is what keeps the ring
    coherent against the consumer without any lock at all.
    """

    def __init__(
        self,
        region: np.ndarray,
        *,
        liveness: Optional[Callable[[], bool]] = None,
        on_wake: Optional[Callable[[], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(region)
        self._liveness = liveness
        self._on_wake = on_wake
        self._clock = clock
        self._tail = self.tail  # local mirror; the counter is ours
        self.sequence = self.committed_frames
        # True when the consumer caught up (and may have parked) but a
        # frame was written without a nudge; the next wake-worthy event
        # must nudge even if the consumer no longer *looks* caught up.
        self._wake_owed = False
        self.stalls = 0
        self.stall_seconds = 0.0
        self.peak_bytes = 0

    # -- space management ----------------------------------------------

    def _record_bytes(self, frame_bytes: int) -> int:
        return _LENGTH_BYTES + _aligned(frame_bytes)

    def _need_for(self, frame_bytes: int) -> int:
        """Worst-case bytes to place one frame, pad record included."""
        record = self._record_bytes(frame_bytes)
        at = self._tail % self.capacity
        if self.capacity - at < record:
            return (self.capacity - at) + record
        return record

    def _free(self) -> int:
        return self.capacity - (self._tail - self.head)

    def max_frame_bytes(self) -> int:
        """Largest single frame this ring can ever hold."""
        return _max_frame_bytes(self.capacity)

    def _wait_for(self, needed: int) -> None:
        """Block until ``needed`` bytes are free; liveness-checked."""
        if self._free() >= needed:
            return
        # Never block against a consumer that may still be parked on an
        # owed wake-up — space can only come from its progress.
        if self._wake_owed and self._on_wake is not None:
            self._on_wake()
            self._wake_owed = False
        for _ in range(_SPIN_ROUNDS):
            if self._free() >= needed:
                return
        self.stalls += 1
        clock = self._clock
        start = clock() if clock is not None else 0.0
        slept = 0
        try:
            while self._free() < needed:
                time.sleep(_SLEEP_S)
                slept += 1
                if slept % _LIVENESS_EVERY == 0 and (
                    self._liveness is not None and not self._liveness()
                ):
                    raise RingStalled(
                        self.committed_frames, self.consumed_frames
                    )
        finally:
            if clock is not None:
                self.stall_seconds += clock() - start

    # -- the write path ------------------------------------------------

    def _place(
        self,
        kind: int,
        values: Optional[np.ndarray],
        counts: Optional[np.ndarray],
    ) -> None:
        """Block until the frame fits, then write it at the tail."""
        count = 0 if values is None else len(values)
        frame_bytes = frame_nbytes(kind, count)
        self._wait_for(self._need_for(frame_bytes))
        record = self._record_bytes(frame_bytes)
        data = self._data
        at = self._tail % self.capacity
        advance = record
        if self.capacity - at < record:
            # Stamp a pad record: length word only, "skip to start".
            data[at:at + _LENGTH_BYTES].view(np.uint64)[0] = _PAD_WORD
            advance += self.capacity - at
            at = 0
        # The consumer may be parked on its control pipe whenever it
        # has caught up — consumed every frame committed before this
        # one — and has not been nudged since (``_wake_owed`` carries
        # the caught-up-but-unnudged state across frames we chose not
        # to wake for). The shared *head* is no park signal: it trails
        # the consumer's private cursor while a frame is copied out.
        # Checked before the commit below so the caught-up state is
        # the one the consumer parked from.
        possibly_parked = (
            self.consumed_frames >= self.sequence or self._wake_owed
        )
        self.sequence += 1
        encode_frame_into(
            data[at + _LENGTH_BYTES:at + record],
            kind,
            values,
            counts,
            sequence=self.sequence,
        )
        # Publication order matters: payload, then the length word (the
        # per-record commit marker), then the shared counters — tail
        # strictly last, so the consumer can never see a torn frame.
        data[at:at + _LENGTH_BYTES].view(np.uint64)[0] = frame_bytes
        self._counters[16] = self.sequence
        self._tail += advance
        self._counters[8] = self._tail
        occupancy = self._tail - self.head
        if occupancy > self.peak_bytes:
            self.peak_bytes = occupancy
        # Nudge a possibly-parked consumer only when its progress is
        # *needed*: at a sync frame (someone is waiting on the reply)
        # or once the ring is half full (space will be needed soon).
        # Ordinary data frames in a roomy ring just accumulate — with
        # the wake *owed*, not sent — and the consumer drains them all
        # in one wake-up at the next sync instead of paying a
        # context-switch round trip per frame, which matters exactly
        # when producer and consumer share scarce cores.
        if possibly_parked:
            if self._on_wake is not None and (
                kind == FRAME_SYNC or self._free() < self.capacity // 2
            ):
                self._on_wake()
                self._wake_owed = False
            else:
                self._wake_owed = True

    def write_frame(
        self,
        kind: int,
        values: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
    ) -> None:
        """Commit one data frame, waiting for ring space if need be.

        Raises :class:`RingStalled` if the consumer dies meanwhile, and
        ``ValueError`` for a frame over :meth:`max_frame_bytes`, which
        no amount of waiting could place.
        """
        count = 0 if values is None else len(values)
        frame_bytes = frame_nbytes(kind, count)
        if frame_bytes > self.max_frame_bytes():
            raise ValueError(
                f"frame of {count} events is {frame_bytes} bytes; this "
                f"ring holds at most {self.max_frame_bytes()}"
            )
        self._place(kind, values, counts)

    def write_sync(self) -> int:
        """Commit a sync frame (blocking); return its sequence number.

        The worker echoes it in its ``synced`` reply, proving the
        quiesce point it acknowledged trails every frame written before
        this call.
        """
        self._place(FRAME_SYNC, None, None)
        return self.sequence


class RingConsumer(_RingEnd):
    """The single reader of an SPSC ring (the shard worker's side).

    :meth:`try_next` parses the next committed frame into zero-copy
    views and advances a *private* cursor; the shared ``head`` — the
    producer's free-space horizon — only moves on :meth:`release`,
    which the worker calls as soon as its combining window has copied
    the frame out.
    """

    def __init__(self, region: np.ndarray) -> None:
        super().__init__(region)
        self._cursor = self.head

    def try_next(self) -> Optional[BinaryFrame]:
        """Decode the next committed frame, or ``None`` if none is.

        Raises :class:`~repro.core.serialize.FrameError` if the
        committed bytes do not parse — a corrupted transport is a
        protocol failure, never silent mis-ingestion.
        """
        while True:
            tail = self.tail
            available = tail - self._cursor
            if available == 0:
                return None
            at = self._cursor % self.capacity
            if available < _LENGTH_BYTES:
                raise FrameError(
                    f"ring corrupt: {available} committed bytes cannot "
                    "hold a length word"
                )
            length = int(self._data[at:at + _LENGTH_BYTES].view(np.uint64)[0])
            if length == _PAD_WORD:
                skip = self.capacity - at
                if available < skip:
                    raise FrameError(
                        "ring corrupt: pad record extends past the "
                        "committed tail"
                    )
                self._cursor += skip
                continue
            record = _LENGTH_BYTES + _aligned(length)
            if length == 0 or record > available or record > self.capacity - at:
                raise FrameError(
                    f"ring corrupt: record of {length} bytes at offset "
                    f"{at} does not fit the committed region"
                )
            frame = decode_frame(self._data[at + _LENGTH_BYTES:at + record])
            self._cursor += record
            self._counters[24] = self.consumed_frames + 1
            return frame

    def release(self) -> None:
        """Publish the cursor as the new head, freeing consumed bytes.

        Only call once every view handed out by :meth:`try_next` since
        the previous release has been copied out or dropped — the
        producer will overwrite the freed bytes.
        """
        self._counters[0] = self._cursor
