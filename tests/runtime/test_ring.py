"""SPSC ring transport: stress, blocking, wrap, crash forensics.

The ring is the process executor's data plane, so its tests are
property-style rather than example-style: hundreds of random-sized
frames, up to the largest the ring holds, pushed through a
deliberately tiny ring by a producer that blocks whenever it is full
must come out the other side byte-exact, in order, across many wrap
boundaries, with syncs interleaved at arbitrary points — and a
malformed byte stream must always surface as a clean
:class:`FrameError`, never a mis-parse or a crash.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time

import numpy as np
import pytest

from repro.core.serialize import (
    FRAME_BATCH,
    FRAME_CBATCH,
    FRAME_HEADER_BYTES,
    FRAME_MAGIC,
    FRAME_SYNC,
    FrameError,
    decode_frame,
    encode_frame,
    frame_nbytes,
)
from repro.runtime import (
    MIN_RING_BYTES,
    RingConsumer,
    RingProducer,
    ShmArena,
    ShmAttachment,
    sweep_prefix,
)
from repro.runtime.ring import RING_HEADER_BYTES, max_frame_events


def make_ring(data_bytes: int = 4096) -> np.ndarray:
    """A private (non-shared) ring region: SPSC logic is memory-layout
    only, so plain process-local memory exercises it identically."""
    return np.zeros(RING_HEADER_BYTES + data_bytes, dtype=np.uint8)


def drain(consumer: RingConsumer) -> list:
    frames = []
    while True:
        frame = consumer.try_next()
        if frame is None:
            return frames
        frames.append(frame)


def max_count(producer: RingProducer, kind: int) -> int:
    """Most events a frame of ``kind`` may carry on this ring."""
    per_event = frame_nbytes(kind, 1) - FRAME_HEADER_BYTES
    return (producer.max_frame_bytes() - FRAME_HEADER_BYTES) // per_event


class TestRegionValidation:
    def test_undersized_region_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            RingProducer(np.zeros(MIN_RING_BYTES - 1, dtype=np.uint8))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError, match="uint8"):
            RingProducer(np.zeros(MIN_RING_BYTES, dtype=np.uint64))

    def test_frame_over_the_ring_limit_rejected(self):
        region = make_ring(1024)
        producer = RingProducer(region)
        largest = max_count(producer, FRAME_CBATCH)
        assert largest == max_frame_events(len(region))
        with pytest.raises(ValueError, match="holds at most"):
            producer.write_frame(
                FRAME_CBATCH,
                np.arange(largest + 1, dtype=np.uint64),
                np.ones(largest + 1, dtype=np.int64),
            )
        assert producer.sequence == 0  # nothing was committed
        producer.write_frame(
            FRAME_CBATCH,
            np.arange(largest, dtype=np.uint64),
            np.ones(largest, dtype=np.int64),
        )
        (frame,) = drain(RingConsumer(region))
        assert len(frame.values) == largest


class TestSpscStress:
    """The core property: random frames in, identical bytes out."""

    def test_random_frames_across_wraps_are_byte_exact(self):
        rng = random.Random(2006)
        region = make_ring(16384)
        consumer = RingConsumer(region)

        sent_batch, sent_cbatch_v, sent_cbatch_c, sent_syncs = [], [], [], []
        got_batch, got_cbatch_v, got_cbatch_c, got_syncs = [], [], [], []
        produced = threading.Event()
        failures = []

        def consume():
            # Releases at a random cadence (and whenever the ring runs
            # dry), so occupancy sweeps the whole range, the producer
            # blocks on a full ring, and the tail wraps many times.
            local = random.Random(7)
            try:
                while True:
                    finished = produced.is_set()
                    frame = consumer.try_next()
                    if frame is None:
                        consumer.release()
                        if finished:
                            return
                        time.sleep(0.0001)
                        continue
                    if frame.kind == FRAME_BATCH:
                        # Zero-copy, read-only views over the ring itself.
                        assert not frame.values.flags.writeable
                        got_batch.append(np.asarray(frame.values).copy())
                    elif frame.kind == FRAME_CBATCH:
                        got_cbatch_v.append(np.asarray(frame.values).copy())
                        got_cbatch_c.append(np.asarray(frame.counts).copy())
                    else:
                        got_syncs.append(frame.sequence)
                    if local.random() < 0.3:
                        consumer.release()
            except Exception as error:  # pragma: no cover
                failures.append(error)

        thread = threading.Thread(target=consume, daemon=True)
        producer = RingProducer(region, liveness=thread.is_alive)
        thread.start()
        for round_no in range(120):
            batch = rng.random() < 0.5
            kind = FRAME_BATCH if batch else FRAME_CBATCH
            # Every tenth frame is the largest the ring holds.
            largest = max_count(producer, kind)
            count = largest if round_no % 10 == 9 else rng.randrange(largest)
            values = (
                np.arange(count, dtype=np.uint64) * 2654435761
                + round_no
            ) % (1 << 48)
            if batch:
                sent_batch.append(values)
                producer.write_frame(FRAME_BATCH, values)
            else:
                counts = np.full(count, 1 + round_no % 3, dtype=np.int64)
                sent_cbatch_v.append(values)
                sent_cbatch_c.append(counts)
                producer.write_frame(FRAME_CBATCH, values, counts)
            if round_no % 17 == 16:
                sent_syncs.append(producer.write_sync())
        produced.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive() and not failures

        assert producer.tail > 4 * producer.capacity, "stream barely wrapped"
        assert got_syncs == sent_syncs and len(sent_syncs) == 120 // 17
        for sent, got in (
            (sent_batch, got_batch),
            (sent_cbatch_v, got_cbatch_v),
            (sent_cbatch_c, got_cbatch_c),
        ):
            assert len(sent) == len(got)
            np.testing.assert_array_equal(
                np.concatenate(sent) if sent else np.empty(0),
                np.concatenate(got) if got else np.empty(0),
            )

    def test_blocked_producer_waits_for_release_then_completes(self):
        """Full-ring backpressure under ``block``: a slow consumer
        must throttle, never lose, never deadlock."""
        region = make_ring(2048)
        producer = RingProducer(region, liveness=lambda: True)
        consumer = RingConsumer(region)
        total_frames = 60
        per_frame = 96  # 60 * (32 + 768) >> 2 KiB: guaranteed stalls
        failures = []

        def produce():
            try:
                for i in range(total_frames):
                    values = np.full(per_frame, i, dtype=np.uint64)
                    producer.write_frame(FRAME_BATCH, values)
            except Exception as error:  # pragma: no cover
                failures.append(error)

        thread = threading.Thread(target=produce)
        thread.start()
        seen = []
        deadline = time.monotonic() + 30.0
        while len(seen) < total_frames:
            assert time.monotonic() < deadline, "consumer starved"
            frame = consumer.try_next()
            if frame is None:
                time.sleep(0.001)
                continue
            seen.append(int(np.asarray(frame.values)[0]))
            consumer.release()
        thread.join(timeout=10.0)
        assert not thread.is_alive() and not failures
        assert seen == list(range(total_frames))
        assert producer.stalls > 0
        # No injected clock: stall seconds must stay untouched (the
        # RAP-LINT005 discipline — no wall-clock reads by default).
        assert producer.stall_seconds == 0.0


def _hammer_child(table, conn, rounds):  # pragma: no cover - subprocess
    attachment = ShmAttachment(table)
    consumer = RingConsumer(attachment.arrays["ring"])
    checksum = 0
    syncs = 0
    try:
        while syncs < rounds:
            frame = consumer.try_next()
            if frame is None:
                time.sleep(0.0002)
                continue
            # Checksums are folded at once, so each frame is released
            # as soon as it is read, exactly like the real worker's
            # window copy: a producer waiting on space always proceeds.
            if frame.kind == FRAME_SYNC:
                syncs += 1
                consumer.release()
                conn.send(checksum)
            else:
                checksum += int(np.asarray(frame.values).sum())
                if frame.counts is not None:
                    checksum += int(np.asarray(frame.counts).sum())
                consumer.release()
    finally:
        conn.close()
        attachment.close()


class TestTwoProcessHammer:
    """A real producer process and consumer process must never
    deadlock, whatever the interleaving — and the checksums must
    agree at every sync epoch."""

    def test_cross_process_stream_is_exact_and_live(self):
        rng = random.Random(7)
        rounds = 8
        sweep_prefix("rap-testring-")  # reclaim any prior crashed run
        arena = ShmArena("rap-testring-")
        region = arena.allocate("ring", np.uint8, RING_HEADER_BYTES + 8192)
        parent_conn, child_conn = multiprocessing.Pipe()
        child = multiprocessing.Process(
            target=_hammer_child,
            args=(arena.segment_table(), child_conn, rounds),
            daemon=True,
        )
        child.start()
        child_conn.close()
        producer = RingProducer(region, liveness=child.is_alive)
        try:
            expected = 0
            for epoch in range(rounds):
                for _ in range(25):
                    batch = rng.random() < 0.5
                    largest = max_count(
                        producer, FRAME_BATCH if batch else FRAME_CBATCH
                    )
                    count = rng.randrange(0, largest + 1)
                    values = np.arange(count, dtype=np.uint64) + epoch
                    if batch:
                        producer.write_frame(FRAME_BATCH, values)
                        expected += int(values.sum())
                    else:
                        counts = np.full(count, 2, dtype=np.int64)
                        producer.write_frame(FRAME_CBATCH, values, counts)
                        expected += int(values.sum()) + int(counts.sum())
                producer.write_sync()
                assert parent_conn.poll(30.0), "worker went silent"
                assert parent_conn.recv() == expected
            child.join(timeout=30.0)
            assert not child.is_alive()
            assert child.exitcode == 0
        finally:
            if child.is_alive():  # pragma: no cover - failure path
                child.terminate()
                child.join()
            parent_conn.close()
            arena.close()


class TestFrameFuzz:
    """Malformed transport bytes must die loudly and typed."""

    def test_truncated_header_raises(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"RAPF")

    def test_bad_magic_raises(self):
        good = bytearray(
            encode_frame(FRAME_BATCH, np.arange(4, dtype=np.uint64))
        )
        good[:4] = b"JUNK"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(good))

    def test_unsupported_version_raises(self):
        good = bytearray(encode_frame(FRAME_SYNC))
        good[4] = 250
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(good))

    def test_unknown_kind_raises(self):
        good = bytearray(encode_frame(FRAME_SYNC))
        good[6] = 99
        with pytest.raises(FrameError, match="kind"):
            decode_frame(bytes(good))

    def test_sync_with_payload_raises(self):
        good = bytearray(encode_frame(FRAME_SYNC))
        good[8] = 4  # count != 0
        with pytest.raises(FrameError, match="sync"):
            decode_frame(bytes(good))

    def test_truncated_payload_raises(self):
        full = encode_frame(FRAME_CBATCH, np.arange(16, dtype=np.uint64),
                            np.ones(16, dtype=np.int64))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(full[: FRAME_HEADER_BYTES + 8])

    def test_random_garbage_never_escapes_frame_error(self):
        rng = random.Random(41)
        for _ in range(300):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 128))
            )
            try:
                decode_frame(blob)
            except FrameError:
                continue
            except Exception as error:  # pragma: no cover
                pytest.fail(f"non-FrameError escape: {error!r}")

    def test_magic_prefixed_garbage_never_escapes_frame_error(self):
        rng = random.Random(43)
        for _ in range(300):
            blob = FRAME_MAGIC + bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 128))
            )
            try:
                decode_frame(blob)
            except FrameError:
                continue
            except Exception as error:  # pragma: no cover
                pytest.fail(f"non-FrameError escape: {error!r}")

    def test_only_uint64_values_are_framed(self):
        for dtype in (np.int64, np.float64):
            with pytest.raises(FrameError, match="uint64"):
                encode_frame(FRAME_BATCH, np.arange(4, dtype=dtype))
        # The retired int64/float64 tags no longer decode either.
        good = bytearray(
            encode_frame(FRAME_BATCH, np.arange(4, dtype=np.uint64))
        )
        for tag in (2, 3):
            good[7] = tag
            with pytest.raises(FrameError, match="dtype tag"):
                decode_frame(bytes(good))

    def test_corrupt_length_word_raises_in_consumer(self):
        region = make_ring(1024)
        producer = RingProducer(region)
        consumer = RingConsumer(region)
        producer.write_frame(FRAME_BATCH, np.arange(8, dtype=np.uint64))
        # Smash the committed record's length word to an impossible
        # value: the consumer must refuse, not walk off the ring.
        region[RING_HEADER_BYTES:RING_HEADER_BYTES + 8].view(
            np.uint64
        )[0] = 1 << 40
        with pytest.raises(FrameError, match="corrupt"):
            consumer.try_next()

    def test_zero_length_record_raises_in_consumer(self):
        region = make_ring(1024)
        producer = RingProducer(region)
        consumer = RingConsumer(region)
        producer.write_frame(FRAME_BATCH, np.arange(8, dtype=np.uint64))
        region[RING_HEADER_BYTES:RING_HEADER_BYTES + 8].view(
            np.uint64
        )[0] = 0
        with pytest.raises(FrameError, match="corrupt"):
            consumer.try_next()
