"""Build and load the columnar backend's compiled kernel (``_kernel.c``).

The kernel is compiled once with the host's ``gcc`` into a shared
library cached next to this module under ``_native_cache/``, named by a
hash of the source, the compiler flags and the compiler binary, so an
edited source or a different compiler builds afresh. A build writes a
temporary file and moves it into place with ``os.replace``, so
concurrent processes (parallel test runs, two checkouts sharing an
install) never load a half-written library. Each process loads the
library once; forked shard workers inherit the mapping.

There is no pure-Python fallback: if the kernel cannot be built or
loaded, :func:`load_kernel` raises :class:`NativeKernelError` naming
the reason (no compiler, the compiler's stderr, the loader's error),
and so does constructing a ``backend="columnar"`` tree.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Optional

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("_native_cache")
_FLAGS = (
    "-O2",
    "-shared",
    "-fPIC",
    "-std=gnu11",
    # Keep every double operation a separately rounded IEEE operation,
    # as CPython's float arithmetic is.
    "-ffp-contract=off",
    "-fno-fast-math",
)

_loaded: Optional[ctypes.CDLL] = None

# rap_ingest return codes (see _kernel.c).
K_DONE, K_MERGE, K_GROW, K_BAD, K_OVERFLOW, K_TIMELINE, K_UNCOVERED = range(7)
# rap_fold error returns.
F_OFF_PARTITION, F_BELOW_ITEM = -1, -2
# rap_check findings, in the order it checks them.
(
    C_OK, C_CAPACITY, C_NODE_COUNT, C_ROOT_DEAD, C_FREE_RANGE, C_FREE_DUP,
    C_FREE_LIVE, C_ACCOUNTING, C_FREE_DIRTY, C_NEGATIVE, C_WEIGHT, C_EMPTY,
    C_ROOT, C_PARENT, C_DEPTH, C_CHAIN, C_N_CHILDREN, C_OVERLAP,
    C_ROOT_CELL, C_CELL, C_NO_MEMORY,
) = range(21)
# ColumnarRapTree.check_invariants' AssertionError text for each finding;
# ``slot`` is the slot rap_check names (for C_NODE_COUNT, the live slot
# count).
CHECK_MESSAGES: Dict[int, str] = {
    C_CAPACITY: "size or free stack top past the column capacity",
    C_NODE_COUNT: "live column counts {slot} slots, node_count says "
    "{node_count}",
    C_ROOT_DEAD: "the root slot must be live",
    C_FREE_RANGE: "free stack holds a slot outside the allocated prefix",
    C_FREE_DUP: "free stack has duplicates",
    C_FREE_LIVE: "a free slot is still live",
    C_ACCOUNTING: "free stack and live column disagree on slot accounting",
    C_FREE_DIRTY: "a free slot was not reset to the allocation defaults",
    C_NEGATIVE: "negative counter at slot {slot}",
    C_WEIGHT: "tree weight {weight} != events {events}",
    C_EMPTY: "a live slot has an empty range",
    C_ROOT: "slot 0 is not the root of the universe",
    C_PARENT: "a live slot's parent pointer misses a live slot",
    C_DEPTH: "a child's depth disagrees with its parent's",
    C_CHAIN: "a sibling chain disagrees with the (parent, lo) order",
    C_N_CHILDREN: "an n_children count disagrees with its chain",
    C_OVERLAP: "children overlap/unsorted",
    C_ROOT_CELL: "child [{lo}, {hi}] is not a partition cell of the root",
    C_CELL: "child [{lo}, {hi}] is not a partition cell of its parent "
    "slot {parent}",
}

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class KernelState(ctypes.Structure):
    """The kernel's view of one tree: ``rap_tree`` in ``_kernel.c``.

    Column pointers, the tree's scalar state (the struct is where
    ``ColumnarRapTree`` keeps its slot accounting and event total), the
    ``TreeStats`` fields the update path writes, and the resume point.
    """

    _fields_ = [
        (name, _PTR)
        for name in (
            "counts", "los", "his", "parents", "first_child",
            "next_sibling", "n_children", "depth", "live", "free_slots",
        )
    ] + [
        (name, _I64)
        for name in (
            "capacity", "size", "free_top", "node_count", "events",
            "cached_slot",
        )
    ] + [
        ("root_hi", ctypes.c_uint64),
        ("branching", _I64),
        ("eps_h", ctypes.c_double),
        ("min_th", ctypes.c_double),
        ("next_at", ctypes.c_double),
        ("st_events", _I64),
        ("st_updates", _I64),
        ("st_splits", _I64),
        ("st_max_nodes", _I64),
        ("st_node_seconds", ctypes.c_double),
        ("sample_every", _I64),
        ("next_sample", _I64),
        ("timeline", _PTR),
        ("timeline_len", _I64),
        ("timeline_cap", _I64),
        ("item", _I64),
        ("remaining", _I64),
        ("slot", _I64),
        ("phase", _I64),
        ("need", _I64),
    ]


class NativeKernelError(RuntimeError):
    """The columnar backend's compiled kernel could not be built or loaded."""


def _find_compiler() -> Optional[str]:
    """Path of the C compiler the kernel is built with, if installed."""
    return shutil.which("gcc")


def _library_path(compiler: str, source: bytes) -> Path:
    real = os.path.realpath(compiler)
    stat = os.stat(real)
    key = hashlib.sha256()
    for part in (
        source,
        " ".join(_FLAGS).encode(),
        f"{real}:{stat.st_size}:{stat.st_mtime_ns}".encode(),
        platform.machine().encode(),
    ):
        key.update(part)
        key.update(b"\0")
    return _CACHE_DIR / f"kernel-{key.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    try:
        _CACHE_DIR.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=target.stem + "-", suffix=".tmp", dir=_CACHE_DIR
        )
        os.close(fd)
    except OSError as error:
        raise NativeKernelError(
            f"cannot write the columnar kernel cache {_CACHE_DIR}: {error}"
        ) from error
    try:
        try:
            result = subprocess.run(
                [compiler, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                capture_output=True,
                text=True,
            )
        except OSError as error:
            raise NativeKernelError(
                f"cannot run the C compiler {compiler}: {error}"
            ) from error
        if result.returncode != 0:
            raise NativeKernelError(
                f"building the columnar kernel with {compiler} failed "
                f"(exit {result.returncode}): {result.stderr.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_kernel() -> ctypes.CDLL:
    """The loaded kernel library, built on first use; once per process."""
    global _loaded
    if _loaded is not None:
        return _loaded
    compiler = _find_compiler()
    if compiler is None:
        raise NativeKernelError(
            "no C compiler: the columnar backend builds its kernel "
            f"({_SOURCE.name}) with gcc, and gcc is not on PATH"
        )
    try:
        source = _SOURCE.read_bytes()
    except OSError as error:
        raise NativeKernelError(
            f"cannot read the columnar kernel source: {error}"
        ) from error
    target = _library_path(compiler, source)
    if not target.exists():
        _build(compiler, target)
    try:
        library = ctypes.CDLL(str(target))
    except OSError as error:
        raise NativeKernelError(
            f"cannot load the columnar kernel {target}: {error}"
        ) from error
    library.rap_state_size.restype = ctypes.c_int64
    library.rap_state_size.argtypes = []
    if library.rap_state_size() != ctypes.sizeof(KernelState):
        raise NativeKernelError(
            f"the columnar kernel {target} disagrees with KernelState "
            f"on the state layout ({library.rap_state_size()} bytes, "
            f"expected {ctypes.sizeof(KernelState)})"
        )
    library.rap_ingest.restype = ctypes.c_int
    library.rap_ingest.argtypes = [_PTR] * 3 + [_I64, ctypes.c_int]
    library.rap_bootstrap.restype = ctypes.c_int64
    library.rap_bootstrap.argtypes = [_PTR] * 3 + [_I64] * 2 + [_PTR] * 2
    library.rap_merge.restype = ctypes.c_int64
    library.rap_merge.argtypes = [_PTR, ctypes.c_double]
    library.rap_fold.restype = ctypes.c_int64
    library.rap_fold.argtypes = (
        [_PTR] * 5 + [_I64, ctypes.c_double] + [_PTR] * 2
    )
    library.rap_check.restype = ctypes.c_int
    library.rap_check.argtypes = [_PTR] * 2
    library.rap_hot.restype = ctypes.c_int64
    library.rap_hot.argtypes = [_PTR, _I64, _PTR]
    _loaded = library
    return library
