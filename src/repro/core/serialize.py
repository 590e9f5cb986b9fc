"""ASCII serialization of RAP trees (Section 3.2).

``rap_finalize`` "dumps the resulting RAP tree in ascii format for
further processing". The format here is line oriented and versioned:

.. code-block:: text

    RAPTREE 2
    config range_max=256 epsilon=0.01 branching=4 ...
    events 5
    scheduler next_at=1024.0 batches_fired=0
    node 0 0 255 2
    node 1 0 63 3
    ...

``node <depth> <lo> <hi> <count>`` lines appear in pre-order, so the
parent of each node is the most recent shallower node — enough to rebuild
the exact tree without pointers. Round-tripping is exact and is covered
by property tests.

Deployment knobs are deliberately *not* serialized: ``backend``,
``executor``, ``shards`` and ``debug_sanitize`` describe how a tree is
hosted, not what it summarizes. A dump taken from a process-executor
shard loads as a plain object-backend tree on the default serial
executor; the receiving side re-chooses its own runtime.

Version 2 added the ``scheduler`` line and the ``timeline_sample_every``/
``audit_every`` config fields. Version 1 dumps carried neither, which
made a reloaded tree think its *first* merge batch was still ahead — a
tree restored with millions of events would fire the whole geometric
backlog of merges on its first ``add()``. The version-1 reader kept here
reconstructs the schedule by fast-forwarding it over every trigger point
the dumped stream must already have passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .config import RapConfig
from .node import RapNode
from .tree import RapTree

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def dump_tree(tree: RapTree) -> str:
    """Serialize ``tree`` to the versioned ASCII format."""
    config = tree.config
    scheduler = tree.merge_scheduler
    lines: List[str] = [
        f"RAPTREE {_FORMAT_VERSION}",
        (
            "config"
            f" range_max={config.range_max}"
            f" epsilon={config.epsilon!r}"
            f" branching={config.branching}"
            f" merge_initial_interval={config.merge_initial_interval}"
            f" merge_growth={config.merge_growth!r}"
            f" min_split_threshold={config.min_split_threshold!r}"
            f" timeline_sample_every={config.timeline_sample_every}"
            f" audit_every={config.audit_every}"
        ),
        f"events {tree.events}",
        (
            "scheduler"
            f" next_at={scheduler.next_at!r}"
            f" batches_fired={scheduler.batches_fired}"
        ),
    ]
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(f"node {depth} {node.lo} {node.hi} {node.count}")
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    lines.append("")
    return "\n".join(lines)


def _parse_fields(line: str, kind: str) -> Dict[str, str]:
    parts = line.split()
    if not parts or parts[0] != kind:
        raise ValueError(f"expected {kind!r} line in dump, got: {line!r}")
    fields = {}
    for token in parts[1:]:
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def load_tree(text: str) -> RapTree:
    """Rebuild a :class:`RapTree` from :func:`dump_tree` output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("RAPTREE"):
        raise ValueError("not a RAP tree dump (missing RAPTREE header)")
    version = int(lines[0].split()[1])
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported dump version {version}")
    header_lines = 3 if version == 1 else 4
    if len(lines) < header_lines + 1:
        raise ValueError("truncated RAP tree dump")

    config_fields = _parse_fields(lines[1], "config")
    config = RapConfig(
        range_max=int(config_fields["range_max"]),
        epsilon=float(config_fields["epsilon"]),
        branching=int(config_fields["branching"]),
        merge_initial_interval=int(config_fields["merge_initial_interval"]),
        merge_growth=float(config_fields["merge_growth"]),
        min_split_threshold=float(config_fields["min_split_threshold"]),
        # Version 1 predates these fields; they default to off.
        timeline_sample_every=int(
            config_fields.get("timeline_sample_every", "0")
        ),
        audit_every=int(config_fields.get("audit_every", "0")),
        backend="object",
    )
    events = int(lines[2].split()[1])

    scheduler_next_at: Optional[float] = None
    scheduler_batches = 0
    if version >= 2:
        scheduler_fields = _parse_fields(lines[3], "scheduler")
        scheduler_next_at = float(scheduler_fields["next_at"])
        scheduler_batches = int(scheduler_fields["batches_fired"])

    tree = RapTree(config)
    path: List[RapNode] = []
    node_count = 0
    for line in lines[header_lines:]:
        parts = line.split()
        if parts[0] != "node":
            raise ValueError(f"unexpected line in dump: {line!r}")
        depth, lo, hi, count = (int(part) for part in parts[1:])
        if depth == 0:
            root = tree.root
            if (lo, hi) != (root.lo, root.hi):
                raise ValueError(
                    f"root range [{lo}, {hi}] does not match universe "
                    f"[{root.lo}, {root.hi}]"
                )
            # Rebuilding a dumped tree: the root predates load_tree, so
            # its counter is restored here rather than through add().
            root.count = count  # noqa: RAP-LINT003 - deserializer restores counters
            path = [root]
        else:
            if depth > len(path):
                raise ValueError(f"node at depth {depth} has no parent: {line!r}")
            parent = path[depth - 1]
            child = RapNode(lo, hi, count=count)
            parent.attach_child(child)
            del path[depth:]
            path.append(child)
        node_count += 1

    # Restore internal accounting that add() would normally maintain.
    tree._events = events  # noqa: SLF001 - deliberate rebuild of internals
    tree._node_count = node_count  # noqa: SLF001 - deliberate rebuild of internals
    scheduler = tree.merge_scheduler
    if scheduler_next_at is not None:
        scheduler.next_at = scheduler_next_at
        scheduler.batches_fired = scheduler_batches
    else:
        # Version-1 dumps carry no schedule: reconstruct it by advancing
        # over every geometric trigger the dumped stream already passed,
        # so the first post-load add() does not fire the whole backlog
        # of merges at once.
        while scheduler.next_at <= events:
            scheduler.next_at *= scheduler.growth
            scheduler.batches_fired += 1
    if tree.total_weight() != events:
        raise ValueError(
            f"dump inconsistent: tree weight {tree.total_weight()} != "
            f"declared events {events}"
        )
    return tree


def dump_to_file(tree: RapTree, path: str) -> None:
    """Write :func:`dump_tree` output to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_tree(tree))


def load_from_file(path: str) -> RapTree:
    """Read a tree previously written by :func:`dump_to_file`."""
    with open(path, "r", encoding="ascii") as fh:
        return load_tree(fh.read())


# ----------------------------------------------------------------------
# Binary counted-frame format (shard transport / network framing)
# ----------------------------------------------------------------------
#
# The ASCII format above ships whole trees; this section frames the
# *stream* — the partitioned batch/counted-batch/sync frames the process
# executor moves between producer and shard workers, and the unit the
# planned network ingest tier will put on the wire. The layout is a
# fixed little-endian header followed by the payload arrays verbatim,
# so an encoder can write a frame into any writable byte region
# (a shared-memory ring slot, a socket buffer) with two slice
# assignments and a decoder can hand back *views*, never copies:
#
# .. code-block:: text
#
#     offset  size  field
#          0     4  magic  b"RAPF"
#          4     2  format version (currently 1)
#          6     1  kind: 1=batch  2=cbatch  3=sync
#          7     1  value dtype tag: 0=none 1=<u8
#          8     8  count — number of payload values
#         16     8  sequence — producer frame counter (diagnostics,
#                   sync acknowledgement)
#         24     8  reserved (zero)
#         32     …  values[count]  (<u8)
#          +     …  counts[count]  (<i8, cbatch frames only)
#
# Every field and payload element is 8 bytes or a divisor of its
# offset, so a frame placed at an 8-byte-aligned address has every
# array it contains aligned too. ``sync`` frames are header-only
# (count 0, tag 0): they exist to order a quiesce point *behind* the
# data frames that precede it in the same byte stream.

FRAME_MAGIC = b"RAPF"
FRAME_VERSION = 1
FRAME_HEADER_BYTES = 32

FRAME_BATCH = 1
FRAME_CBATCH = 2
FRAME_SYNC = 3

_FRAME_KINDS = (FRAME_BATCH, FRAME_CBATCH, FRAME_SYNC)

_FRAME_HEADER_DTYPE = np.dtype(
    [
        ("magic", "<u4"),
        ("version", "<u2"),
        ("kind", "u1"),
        ("vtag", "u1"),
        ("count", "<u8"),
        ("sequence", "<u8"),
        ("reserved", "<u8"),
    ]
)
assert _FRAME_HEADER_DTYPE.itemsize == FRAME_HEADER_BYTES

_FRAME_MAGIC_U32 = int(np.frombuffer(FRAME_MAGIC, dtype="<u4")[0])

#: Frame values are ``uint64``, the one dtype the profiler builds its
#: frames in (raw and counted alike), so a window holding both never
#: combines them through a float. Tag 1 names it; encoding any other
#: dtype, or decoding any other tag, raises :class:`FrameError`.
_TAG_NONE = 0
_TAG_VALUES = 1
_VALUES_DTYPE = np.dtype("<u8")
_COUNTS_DTYPE = np.dtype("<i8")

FrameBuffer = Union[np.ndarray, bytes, bytearray, memoryview]


class FrameError(ValueError):
    """A binary frame failed validation (bad header, truncated payload).

    Raised by :func:`decode_frame` for *any* malformed input — garbage
    magic, unsupported version, unknown kind, impossible count — so a
    corrupted transport surfaces as a clean Python exception, never a
    mis-parse silently feeding wrong events into a tree.
    """


@dataclass(frozen=True)
class BinaryFrame:
    """One decoded frame: header fields plus zero-copy payload views.

    ``values``/``counts`` are read-only ndarray views over the buffer
    the frame was decoded from — they stay valid exactly as long as
    that buffer does (a ring consumer must copy before releasing the
    region). ``nbytes`` is the total encoded size, i.e. how far the
    next frame starts.
    """

    kind: int
    sequence: int
    values: Optional[np.ndarray]
    counts: Optional[np.ndarray]
    nbytes: int


def frame_nbytes(kind: int, count: int) -> int:
    """Encoded size in bytes of a frame with ``count`` payload values."""
    if kind == FRAME_SYNC:
        return FRAME_HEADER_BYTES
    payload = count * 8
    if kind == FRAME_CBATCH:
        payload *= 2
    return FRAME_HEADER_BYTES + payload


def _payload_tag(values: np.ndarray) -> int:
    if values.dtype.newbyteorder("<") != _VALUES_DTYPE:
        raise FrameError(
            f"unsupported frame value dtype {values.dtype}; frames "
            "carry uint64 values"
        )
    return _TAG_VALUES


def encode_frame_into(
    target: np.ndarray,
    kind: int,
    values: Optional[np.ndarray] = None,
    counts: Optional[np.ndarray] = None,
    sequence: int = 0,
) -> int:
    """Write one frame at the start of ``target``; return its size.

    ``target`` is any writable contiguous ``uint8`` array at least
    :func:`frame_nbytes` long — typically a slice of a shared-memory
    ring. The payload arrays are copied in via dtype-punned slice
    assignment (one vectorized copy each, no intermediate ``bytes``).
    ``counts`` is required for ``FRAME_CBATCH``, forbidden otherwise;
    ``FRAME_SYNC`` takes no payload at all.
    """
    if kind not in _FRAME_KINDS:
        raise FrameError(f"unknown frame kind {kind!r}")
    if kind == FRAME_SYNC:
        count = 0
        tag = _TAG_NONE
    else:
        if values is None:
            raise FrameError(f"frame kind {kind} requires a values array")
        count = len(values)
        tag = _payload_tag(values)
    if (counts is not None) != (kind == FRAME_CBATCH):
        raise FrameError("counts are required for cbatch frames only")
    if counts is not None and len(counts) != count:
        raise FrameError(
            f"counts length {len(counts)} != values length {count}"
        )
    total = frame_nbytes(kind, count)
    if len(target) < total:
        raise FrameError(
            f"target holds {len(target)} bytes; frame needs {total}"
        )
    header = target[:FRAME_HEADER_BYTES].view(_FRAME_HEADER_DTYPE)
    header[0] = (
        _FRAME_MAGIC_U32, FRAME_VERSION, kind, tag, count, sequence, 0,
    )
    if count:
        at = FRAME_HEADER_BYTES
        span = count * 8
        target[at:at + span].view(_VALUES_DTYPE)[:] = values
        if counts is not None:
            at += span
            target[at:at + span].view(_COUNTS_DTYPE)[:] = counts
    return total


def encode_frame(
    kind: int,
    values: Optional[np.ndarray] = None,
    counts: Optional[np.ndarray] = None,
    sequence: int = 0,
) -> bytes:
    """Encode one frame into a fresh ``bytes`` (tests, socket senders)."""
    count = 0 if values is None else len(values)
    buffer = np.zeros(frame_nbytes(kind, count), dtype=np.uint8)
    used = encode_frame_into(buffer, kind, values, counts, sequence)
    return buffer[:used].tobytes()


def decode_frame(buffer: FrameBuffer) -> BinaryFrame:
    """Decode the frame at the start of ``buffer`` without copying.

    ``buffer`` may be longer than the frame (a ring region, a socket
    read): ``BinaryFrame.nbytes`` says where the next frame starts.
    The payload views are marked read-only — decoding never grants
    write access to transport memory. Raises :class:`FrameError` on
    any malformed input.
    """
    if isinstance(buffer, np.ndarray):
        data = buffer.reshape(-1).view(np.uint8)
    else:
        data = np.frombuffer(buffer, dtype=np.uint8)
    if len(data) < FRAME_HEADER_BYTES:
        raise FrameError(
            f"truncated frame: {len(data)} bytes < "
            f"{FRAME_HEADER_BYTES}-byte header"
        )
    header = data[:FRAME_HEADER_BYTES].view(_FRAME_HEADER_DTYPE)[0]
    if int(header["magic"]) != _FRAME_MAGIC_U32:
        raise FrameError(
            f"bad frame magic 0x{int(header['magic']):08x}; "
            f"expected {FRAME_MAGIC!r}"
        )
    if int(header["version"]) != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {int(header['version'])}; "
            f"this reader speaks version {FRAME_VERSION}"
        )
    kind = int(header["kind"])
    if kind not in _FRAME_KINDS:
        raise FrameError(f"unknown frame kind {kind}")
    tag = int(header["vtag"])
    count = int(header["count"])
    sequence = int(header["sequence"])
    if kind == FRAME_SYNC:
        if tag != _TAG_NONE or count != 0:
            raise FrameError(
                f"sync frame carries a payload (tag {tag}, count {count})"
            )
        return BinaryFrame(kind, sequence, None, None, FRAME_HEADER_BYTES)
    if tag != _TAG_VALUES:
        raise FrameError(f"unknown value dtype tag {tag}")
    total = frame_nbytes(kind, count)
    if len(data) < total:
        raise FrameError(
            f"truncated frame payload: header declares {total} bytes, "
            f"buffer holds {len(data)}"
        )
    at = FRAME_HEADER_BYTES
    span = count * 8
    values = data[at:at + span].view(_VALUES_DTYPE)
    values.flags.writeable = False
    counts = None
    if kind == FRAME_CBATCH:
        at += span
        counts = data[at:at + span].view(_COUNTS_DTYPE)
        counts.flags.writeable = False
    return BinaryFrame(kind, sequence, values, counts, total)


# ----------------------------------------------------------------------
# Sync blocks (shard worker → parent, after each ``synced`` reply)
# ----------------------------------------------------------------------
#
# At every sync a process-executor worker follows its ``synced`` payload
# with one raw block on its control pipe (``send_bytes``, never
# pickled), decoded here as views:
#
# * a shard of a multi-shard profile sends its nonzero counter rows,
#   one C-contiguous ``(4, n)`` little-endian ``uint64`` block whose
#   rows are ``lo``, ``hi``, ``count`` (int64 bits) and ``depth`` —
#   the whole input of the snapshot fold;
# * a lone shard sends its compact columns instead: slots
#   ``[0, size)`` of every tree column, back to back, widest dtype
#   first, so a block placed at an 8-byte-aligned address has every
#   column aligned too.
#
# An empty profile sends an empty block of either kind.

ROW_FIELDS = 4
_ROW_DTYPE = np.dtype("<u8")


class BlockBuffer:
    """Reusable ``uint64`` words a worker gathers its sync block into.

    Grows by doubling and never shrinks, so a worker allocates it a
    logarithmic number of times over its life, not once per sync.
    """

    def __init__(self) -> None:
        self._words = np.empty(0, dtype=_ROW_DTYPE)

    def words(self, count: int) -> np.ndarray:
        """The first ``count`` words, regrown when too short."""
        if self._words.size < count:
            self._words = np.empty(
                max(count, 2 * self._words.size), dtype=_ROW_DTYPE
            )
        return self._words[:count]

    def rows(self, count: int) -> np.ndarray:
        """A C-contiguous ``(4, count)`` counter-row block."""
        return self.words(ROW_FIELDS * count).reshape(ROW_FIELDS, count)


def decode_counter_rows(
    data: FrameBuffer,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, count, depth)`` views over a counter-row block.

    ``lo``/``hi`` are ``uint64``, ``count``/``depth`` ``int64``; all
    four are read-only when ``data`` is ``bytes``. Raises
    :class:`FrameError` when the block is not whole rows.
    """
    words = np.frombuffer(data, dtype=np.uint8)
    if words.size % (ROW_FIELDS * _ROW_DTYPE.itemsize):
        raise FrameError(
            f"counter-row block of {words.size} bytes is not whole "
            f"{ROW_FIELDS}-word rows"
        )
    block = words.view(_ROW_DTYPE).reshape(ROW_FIELDS, -1)
    return block[0], block[1], block[2].view("<i8"), block[3].view("<i8")


def _column_layout(
    dtypes: Mapping[str, np.dtype],
) -> List[Tuple[str, np.dtype]]:
    """Column order in a column block: widest dtype first (stable)."""
    return sorted(
        ((name, np.dtype(dtype)) for name, dtype in dtypes.items()),
        key=lambda item: -item[1].itemsize,
    )


def encode_columns(
    columns: Mapping[str, np.ndarray], buffer: BlockBuffer
) -> np.ndarray:
    """Pack equal-length columns into one ``uint8`` block over ``buffer``."""
    layout = _column_layout({name: c.dtype for name, c in columns.items()})
    nbytes = sum(columns[name].nbytes for name, _ in layout)
    block = buffer.words(-(-nbytes // 8)).view(np.uint8)[:nbytes]
    at = 0
    for name, dtype in layout:
        span = columns[name].nbytes
        block[at:at + span].view(dtype)[:] = columns[name]
        at += span
    return block


def decode_columns(
    data: FrameBuffer, dtypes: Mapping[str, np.dtype], size: int
) -> Dict[str, np.ndarray]:
    """Views of the ``size``-slot columns packed by :func:`encode_columns`."""
    raw = np.frombuffer(data, dtype=np.uint8)
    layout = _column_layout(dtypes)
    expected = size * sum(dtype.itemsize for _, dtype in layout)
    if raw.size != expected:
        raise FrameError(
            f"column block of {raw.size} bytes; {size} slots need "
            f"{expected}"
        )
    columns: Dict[str, np.ndarray] = {}
    at = 0
    for name, dtype in layout:
        span = size * dtype.itemsize
        columns[name] = raw[at:at + span].view(dtype)
        at += span
    return columns
