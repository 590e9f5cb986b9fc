"""Every name and path the docs cite in backticks resolves.

``docs/*.md`` cites modules and objects as dotted ``repro.…`` names,
and files as ``src/``, ``tests/`` or ``benchmarks/`` paths, optionally
with a ``::Name`` node id. Each inline code span (fenced blocks
aside) is scanned: a name must import, a path must exist or be a
build output the root ``.gitignore`` lists, and a node id must name a
class or function defined in its file.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md"))

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w./])repro(?:\.\w+)+")
_PATH = re.compile(r"(?<![\w./])(?:src|tests|benchmarks)/[\w./-]*(?:::\w+)?")


def cited(pattern: re.Pattern) -> list:
    """``(doc, match)`` for every ``pattern`` match in an inline span."""
    found = []
    for doc in DOCS:
        text = _FENCE.sub("", doc.read_text(encoding="utf-8"))
        for span in _SPAN.findall(text):
            found.extend((doc.name, match) for match in pattern.findall(span))
    return found


def resolves_as_name(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def resolves_as_path(cited_path: str, ignored: set) -> bool:
    path, _, node = cited_path.partition("::")
    if not (ROOT / path).exists():
        return path in ignored
    if not node:
        return True
    source = (ROOT / path).read_text(encoding="utf-8")
    return re.search(rf"^\s*(?:class|def) {node}\b", source, re.M) is not None


def test_dotted_repro_names_resolve():
    names = cited(_NAME)
    assert names, "the scan found no repro.… name in docs/"
    assert [(doc, n) for doc, n in names if not resolves_as_name(n)] == []


def test_source_and_test_paths_resolve():
    ignored = {
        line.strip()
        for line in (ROOT / ".gitignore").read_text().splitlines()
    }
    paths = cited(_PATH)
    assert paths, "the scan found no src/, tests/ or benchmarks/ path"
    missing = [(d, p) for d, p in paths if not resolves_as_path(p, ignored)]
    assert missing == []
