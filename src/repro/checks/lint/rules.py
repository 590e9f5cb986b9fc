"""Repo-specific AST lint rules (the RAP-LINT registry).

Every rule is a small, self-contained AST analysis with a code, a
kebab-case name, and a rationale tied to a correctness property of the
reproduction:

* **RAP-LINT001 unseeded-rng** — experiments are reproducible only if
  every random draw flows from an explicit seed. Unseeded
  ``random.Random()`` / ``numpy.random.default_rng()`` constructions
  and the process-global RNG front ends (``random.random``,
  ``np.random.rand``, ...) are banned outside
  ``workloads/distributions.py``, the one module allowed to own RNG
  plumbing.
* **RAP-LINT002 float-counter-arithmetic** — RAP counters are exact
  integers; estimates are *guaranteed* lower bounds only because no
  weight is ever rounded away. Assignments that push float arithmetic
  into ``.count`` / ``._events`` inside ``core/`` are banned.
* **RAP-LINT003 node-encapsulation** — the conservation proof relies on
  every ``.count`` / ``.children`` mutation flowing through the tree
  classes. Mutations outside ``RapTree`` / ``MultiDimRapTree`` /
  ``RapNode`` / ``MultiDimNode`` methods (or an ``__init__`` setting
  its own attributes) must justify themselves with a
  ``# noqa: RAP-LINT003`` comment.
* **RAP-LINT004 missing-annotations** — public functions in ``core/``
  and ``hardware/`` are the API other layers build on; they must carry
  full parameter and return annotations.
* **RAP-LINT005 wall-clock** — deterministic experiment code must not
  read wall clocks (``time.time``, ``perf_counter``,
  ``datetime.now``, ...); timing belongs to the benchmark harness.
* **RAP-LINT011 direct-tree-construction** — outside ``core/`` (and
  tests), trees are built through the API v2 constructors —
  ``RapTree.from_config(config)`` for a bare tree,
  ``Profiler.from_config(config, ...)`` for managed ingestion — so
  construction sites stay greppable and pick up constructor-level
  invariants added later.
* **RAP-LINT012 columnar-internals-import** — the struct-of-arrays
  kernel ``repro.core.columnar`` is an implementation detail behind the
  ``TreeBackend`` protocol. Outside ``core/`` the backend is selected
  with ``RapConfig(backend="columnar")``; importing the module directly
  would freeze its column layout into other layers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class FlowStep:
    """One hop of a dataflow witness path (origin ... use)."""

    line: int
    column: int
    event: str


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location.

    Flow-sensitive rules (RAP-LINT006..010) attach a non-empty
    ``flow_trace``: the witness path showing how the offending value
    reached the flagged site.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    flow_trace: Tuple[FlowStep, ...] = ()

    def render(self) -> str:
        head = (
            f"{self.path}:{self.line}:{self.column}: {self.rule} "
            f"{self.message}"
        )
        for step in self.flow_trace:
            head += f"\n    line {step.line}: {step.event}"
        return head


@dataclass
class LintContext:
    """Everything a rule needs to analyse one file."""

    path: str
    relpath: str
    tree: ast.Module
    source_lines: Tuple[str, ...]

    def in_package(self, *prefixes: str) -> bool:
        return any(self.relpath.startswith(prefix) for prefix in prefixes)


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted names they were imported as.

    ``import numpy as np`` maps ``np -> numpy``; ``from random import
    Random as R`` maps ``R -> random.Random``. Used to resolve call
    targets without assuming particular import spellings.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    top = name.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolved_call_name(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """The fully-qualified dotted name a call resolves to, if static."""
    dotted = _dotted(call.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _iter_scoped(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Tuple[str, ...], Tuple[str, ...]]]:
    """Walk yielding ``(node, enclosing classes, enclosing functions)``."""

    def visit(
        node: ast.AST, classes: Tuple[str, ...], funcs: Tuple[str, ...]
    ) -> Iterator[Tuple[ast.AST, Tuple[str, ...], Tuple[str, ...]]]:
        for child in ast.iter_child_nodes(node):
            yield child, classes, funcs
            if isinstance(child, ast.ClassDef):
                yield from visit(child, classes + (child.name,), funcs)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield from visit(child, classes, funcs + (child.name,))
            else:
                yield from visit(child, classes, funcs)

    yield from visit(tree, (), ())


class Rule:
    """Base class: subclasses set the metadata and implement check().

    ``example`` and ``fix`` feed ``rap lint --explain <code>``: a
    minimal violating snippet and the idiomatic way out. ``kind``,
    ``scope`` and ``catches`` feed the registry-generated rule catalog
    (``python -m repro.checks --catalog``, mirrored in docs/checks.md) —
    one short phrase each, so the docs table regenerates from the
    registry instead of being hand-maintained.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    example: str = ""
    fix: str = ""
    kind: str = "syntactic"
    scope: str = "everywhere"
    catches: str = ""

    def check(self, context: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, context: LintContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


class UnseededRngRule(Rule):
    code = "RAP-LINT001"
    name = "unseeded-rng"
    scope = "all but workloads/distributions.py"
    catches = "unseeded RNG constructions and global-RNG draws"
    rationale = (
        "all randomness must flow from explicit seeds via "
        "workloads.distributions so experiments replay bit-identically"
    )
    example = "rng = np.random.default_rng()   # time-seeded, unreplayable"
    fix = (
        "pass an explicit seed: np.random.default_rng(seed), or use "
        "workloads.distributions.make_rng(seed)"
    )

    _exempt = ("workloads/distributions.py",)
    # Constructors that are fine when given an explicit seed argument.
    _seedable = {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
    # Always-allowed numpy.random attributes (types, not draws).
    _numpy_ok = {"default_rng", "Generator", "BitGenerator", "RandomState",
                 "SeedSequence"}

    def check(self, context: LintContext) -> Iterator[Violation]:
        if context.relpath in self._exempt:
            return
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved_call_name(node, aliases)
            if resolved is None:
                continue
            if resolved in self._seedable:
                seeded = bool(node.args or node.keywords) and not (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if not seeded:
                    yield self.violation(
                        context,
                        node,
                        f"unseeded RNG {resolved}(); pass an explicit "
                        f"seed (see workloads.distributions.make_rng)",
                    )
                continue
            if resolved.startswith("random."):
                # Module-level random.* draws use the process-global,
                # time-seeded RNG.
                yield self.violation(
                    context,
                    node,
                    f"{resolved}() draws from the global RNG; construct "
                    f"a seeded Generator instead",
                )
            elif (
                resolved.startswith("numpy.random.")
                and resolved.split(".")[-1] not in self._numpy_ok
            ):
                yield self.violation(
                    context,
                    node,
                    f"{resolved}() uses numpy's legacy global RNG; use "
                    f"a seeded default_rng(seed) Generator",
                )


class FloatCounterRule(Rule):
    code = "RAP-LINT002"
    name = "float-counter-arithmetic"
    scope = "core/"
    catches = "float arithmetic assigned into .count/._events"
    rationale = (
        "counters are exact integers — float arithmetic would turn the "
        "guaranteed lower bounds into approximations"
    )
    example = "node.count = node.count / 2     # counter becomes a float"
    fix = (
        "keep counters integral: use // floor division, or wrap with "
        "int(...) at the boundary where a float is unavoidable"
    )

    _scopes = ("core/",)
    _counter_attrs = {"count", "_events"}

    def _tainted(self, value: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return f"float literal {sub.value!r}"
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return "true division (/) produces a float"
            if isinstance(sub, ast.Call):
                resolved = _resolved_call_name(sub, aliases)
                if resolved == "float":
                    return "float() conversion"
        return None

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._scopes):
            return
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
                value = node.value
            else:
                continue
            if value is None:
                continue
            counter_targets = [
                target
                for target in targets
                if isinstance(target, ast.Attribute)
                and target.attr in self._counter_attrs
            ]
            if not counter_targets:
                continue
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Div
            ):
                yield self.violation(
                    context,
                    node,
                    f"augmented /= on counter "
                    f".{counter_targets[0].attr} makes it a float",
                )
                continue
            taint = self._tainted(value, aliases)
            if taint is not None:
                yield self.violation(
                    context,
                    node,
                    f"assignment to counter .{counter_targets[0].attr} "
                    f"involves {taint}; counters must stay exact ints "
                    f"(wrap with int(...) at the boundary)",
                )


class NodeEncapsulationRule(Rule):
    code = "RAP-LINT003"
    name = "node-encapsulation"
    catches = ".count/.children mutations outside the tree classes"
    rationale = (
        "the conservation proof audits RapTree/MultiDimRapTree methods; "
        "out-of-band .count/.children mutations would invalidate it"
    )
    example = "parent.children.append(node)    # outside the tree classes"
    fix = (
        "go through RapTree/RapNode methods (attach_child, "
        "detach_child), or justify the exception with "
        "'# noqa: RAP-LINT003 - reason'"
    )

    _owner_classes = {"RapTree", "MultiDimRapTree", "RapNode", "MultiDimNode"}
    _mutators = {"append", "insert", "remove", "clear", "pop", "extend",
                 "sort"}

    def _allowed(
        self,
        target: ast.Attribute,
        classes: Tuple[str, ...],
        funcs: Tuple[str, ...],
    ) -> bool:
        if classes and classes[-1] in self._owner_classes:
            return True
        # A class may initialize its own attributes.
        return (
            bool(funcs)
            and funcs[-1] == "__init__"
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node, classes, funcs in _iter_scoped(context.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in ("count", "children")
                        and not self._allowed(target, classes, funcs)
                    ):
                        yield self.violation(
                            context,
                            node,
                            f"direct mutation of node .{target.attr} "
                            f"outside the tree classes; go through "
                            f"RapTree/RapNode methods or justify with "
                            f"a noqa",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._mutators
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "children"
                    and not self._allowed(func.value, classes, funcs)
                ):
                    yield self.violation(
                        context,
                        node,
                        f".children.{func.attr}() outside the tree "
                        f"classes; use attach_child/detach_child or "
                        f"justify with a noqa",
                    )


class MissingAnnotationsRule(Rule):
    code = "RAP-LINT004"
    name = "missing-annotations"
    scope = "core/, hardware/"
    catches = "public functions missing type annotations"
    rationale = (
        "core/ and hardware/ are the load-bearing APIs; annotations "
        "keep refactors honest without a runtime cost"
    )
    example = "def estimate(lo, hi):           # public, unannotated"
    fix = "annotate every parameter and the return: def estimate(lo: int, hi: int) -> int"

    _scopes = ("core/", "hardware/")

    def _missing(self, fn: ast.AST) -> List[str]:
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        missing = []
        args = fn.args
        positional = list(args.posonlyargs) + list(args.args)
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if fn.returns is None:
            missing.append("return")
        return missing

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._scopes):
            return
        for node, classes, funcs in _iter_scoped(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if funcs:  # nested function — implementation detail
                continue
            if node.name.startswith("_"):
                continue
            if any(name.startswith("_") for name in classes):
                continue
            missing = self._missing(node)
            if missing:
                yield self.violation(
                    context,
                    node,
                    f"public function {node.name}() is missing type "
                    f"annotations for: {', '.join(missing)}",
                )


class WallClockRule(Rule):
    code = "RAP-LINT005"
    name = "wall-clock"
    catches = "wall-clock reads in deterministic code"
    rationale = (
        "experiment code is deterministic; wall-clock reads belong in "
        "the benchmark harness, not in results"
    )
    example = "start = time.perf_counter()     # inside experiment code"
    fix = (
        "move timing into benchmarks/ (pytest-benchmark owns the "
        "clock); deterministic code reports event counts, not seconds"
    )

    _banned = {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }

    def check(self, context: LintContext) -> Iterator[Violation]:
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved_call_name(node, aliases)
            if resolved in self._banned:
                yield self.violation(
                    context,
                    node,
                    f"{resolved}() reads the wall clock inside "
                    f"deterministic code; timing belongs to the "
                    f"benchmark harness",
                )


class DirectTreeConstructionRule(Rule):
    code = "RAP-LINT011"
    name = "direct-tree-construction"
    scope = "all but core/"
    catches = "direct RapTree(...) construction"
    rationale = (
        "API v2 routes tree construction through RapTree.from_config / "
        "Profiler.from_config outside core/, keeping construction sites "
        "greppable and future constructor invariants enforceable"
    )
    example = "tree = RapTree(config)          # outside repro.core"
    fix = (
        "use RapTree.from_config(config), or Profiler.from_config("
        "config, ...) when the stream should go through the sharded "
        "runtime"
    )

    # core/ owns the class and may construct it directly (the v2
    # constructors themselves live there).
    _exempt_scopes = ("core/",)

    def check(self, context: LintContext) -> Iterator[Violation]:
        if context.in_package(*self._exempt_scopes):
            return
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved_call_name(node, aliases)
            if resolved is None:
                continue
            if resolved == "RapTree" or resolved.endswith(".RapTree"):
                yield self.violation(
                    context,
                    node,
                    "direct RapTree(...) construction outside "
                    "repro.core; use RapTree.from_config(config) or "
                    "Profiler.from_config(config, ...)",
                )


class ColumnarInternalsImportRule(Rule):
    code = "RAP-LINT012"
    name = "columnar-internals-import"
    scope = "all but core/"
    catches = "imports of repro.core.columnar internals"
    rationale = (
        "repro.core.columnar is an implementation detail behind the "
        "TreeBackend protocol; outside core/ the kernel is selected "
        "with RapConfig(backend=\"columnar\"), so its column layout "
        "never leaks into other layers"
    )
    example = (
        "from repro.core.columnar import ColumnarRapTree   "
        "# outside repro.core"
    )
    fix = (
        "select the kernel through the config knob: "
        "RapTree.from_config(RapConfig(..., backend=\"columnar\")) — "
        "everything downstream (serialization, combine, auditing, the "
        "runtime Profiler) works through the TreeBackend protocol"
    )

    # core/ owns the kernel: config dispatch, the TreeBackend protocol,
    # and the object tree's batch fallbacks import it legitimately.
    _exempt_scopes = ("core/",)
    _target = "repro.core.columnar"

    def _flag(self, context: LintContext, node: ast.AST) -> Violation:
        return self.violation(
            context,
            node,
            "imports repro.core.columnar internals outside repro.core; "
            "select the kernel with RapConfig(backend=\"columnar\") and "
            "RapTree.from_config / Profiler.from_config",
        )

    def check(self, context: LintContext) -> Iterator[Violation]:
        if context.in_package(*self._exempt_scopes):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == self._target or alias.name.startswith(
                        self._target + "."
                    ):
                        yield self._flag(context, node)
                        break
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                # Absolute (repro.core.columnar) or relative
                # (..core.columnar / .columnar) spellings of the module
                # itself.
                names_module = (
                    module == self._target
                    or module.startswith(self._target + ".")
                    or (
                        node.level > 0
                        and (
                            module == "columnar"
                            or module.endswith(".columnar")
                        )
                    )
                )
                # `from repro.core import columnar` (or the relative
                # `from ..core import columnar`) pulls in the same
                # module under an alias.
                names_parent = (
                    module == "repro.core"
                    or (
                        node.level > 0
                        and (module == "core" or module.endswith(".core"))
                    )
                ) and any(alias.name == "columnar" for alias in node.names)
                if names_module or names_parent:
                    yield self._flag(context, node)


class SharedMemoryImportRule(Rule):
    code = "RAP-LINT024"
    name = "raw-shared-memory-import"
    scope = "all but runtime/shm.py"
    catches = "imports of multiprocessing.shared_memory outside the arena"
    rationale = (
        "the stdlib's shared-memory lifecycle needs three corrections "
        "(manual resource-tracker ownership, no close while a numpy "
        "view still maps the segment, prefix-named segments for crash "
        "sweeps) that live in repro.runtime.shm; a raw SharedMemory at "
        "any other call site reintroduces the unlink races and "
        "segfault-on-close hazards the arena exists to contain"
    )
    example = (
        "from multiprocessing import shared_memory   "
        "# outside repro.runtime.shm"
    )
    fix = (
        "allocate through the arena: ShmArena(prefix).allocate(name, "
        "dtype, capacity) on the owning side, ShmAttachment(table) on "
        "the attaching side, ShmArena.close() to unlink, "
        "sweep_prefix(prefix) for crash cleanup (all exported from "
        "repro.runtime)"
    )

    # runtime/shm.py *is* the arena — the one sanctioned call site.
    _exempt_scopes = ("runtime/shm.py",)
    _target = "multiprocessing.shared_memory"

    def _flag(self, context: LintContext, node: ast.AST) -> Violation:
        return self.violation(
            context,
            node,
            "imports multiprocessing.shared_memory outside "
            "repro.runtime.shm; go through ShmArena / ShmAttachment / "
            "sweep_prefix so segment ownership, unlinking and crash "
            "sweeps stay in one place",
        )

    def check(self, context: LintContext) -> Iterator[Violation]:
        if context.in_package(*self._exempt_scopes):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == self._target or alias.name.startswith(
                        self._target + "."
                    ):
                        yield self._flag(context, node)
                        break
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                # `from multiprocessing.shared_memory import SharedMemory`
                names_module = module == self._target or module.startswith(
                    self._target + "."
                )
                # `from multiprocessing import shared_memory`
                names_parent = module == "multiprocessing" and any(
                    alias.name == "shared_memory" for alias in node.names
                )
                if names_module or names_parent:
                    yield self._flag(context, node)


class HotPathPickleRule(Rule):
    code = "RAP-LINT025"
    name = "hot-path-pickle"
    scope = "runtime/{profiler,process,worker,ring}.py"
    catches = "pickle imports and dumps/loads calls on the shard data path"
    rationale = (
        "the ring transport's zero-copy contract holds only while the "
        "shard data path never serializes: frames are counted binary "
        "records (repro.core.serialize) written straight into shared "
        "memory and decoded as read-only ndarray views. A pickle-family "
        "import or a dumps/loads call in the producer (profiler.py, "
        "process.py), the consumer (worker.py) or the ring itself "
        "quietly reintroduces the per-frame encode/copy the transport "
        "was built to delete — quietly, because pickled frames decode to "
        "the same values, so every result stays correct while the "
        "throughput claim rots"
    )
    example = (
        "payload = pickle.dumps(frame)   # in repro/runtime/worker.py"
    )
    fix = (
        "stay on the counted-frame codec: encode_frame_into(view, ...) "
        "into a ring slice on the producer side, decode_frame(view) on "
        "the consumer side (both in repro.core.serialize). Control-"
        "plane messages may ride the multiprocessing pipe — its "
        "pickling happens inside the stdlib, not in these modules"
    )

    #: The zero-copy data path: producer (the front and the process
    #: executor that writes its frames), consumer, and the ring itself.
    _hot_paths = (
        "runtime/profiler.py",
        "runtime/process.py",
        "runtime/worker.py",
        "runtime/ring.py",
    )
    #: Serialization modules whose mere import is a red flag here.
    _modules = (
        "pickle",
        "_pickle",
        "cPickle",
        "cloudpickle",
        "dill",
        "marshal",
    )
    #: Pickle-protocol verbs; dump/load only flagged when resolved to a
    #: serialization module (np.load et al. stay legal), dumps/loads on
    #: any receiver — every stdlib/third-party spelling of those two is
    #: a byte-level serializer.
    _verbs = ("dump", "load")

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._hot_paths):
            return
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in self._modules:
                        yield self.violation(
                            context,
                            node,
                            f"imports {alias.name.split('.')[0]} in a "
                            "zero-copy hot-path module; frames travel as "
                            "counted binary records via "
                            "repro.core.serialize (encode_frame_into / "
                            "decode_frame)",
                        )
                        break
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not node.level and module.split(".")[0] in self._modules:
                    yield self.violation(
                        context,
                        node,
                        f"imports from {module.split('.')[0]} in a "
                        "zero-copy hot-path module; use the counted-"
                        "frame codec in repro.core.serialize instead",
                    )
            elif isinstance(node, ast.Call):
                resolved = _resolved_call_name(node, aliases) or ""
                head, _, _ = resolved.partition(".")
                leaf = resolved.rsplit(".", 1)[-1]
                if head in self._modules and leaf in self._verbs + (
                    "dumps",
                    "loads",
                ):
                    yield self.violation(
                        context,
                        node,
                        f"calls {resolved}() on the shard data path; "
                        "encode with encode_frame_into / decode with "
                        "decode_frame (repro.core.serialize) instead of "
                        "serializing",
                    )
                elif leaf in ("dumps", "loads"):
                    yield self.violation(
                        context,
                        node,
                        f"calls {leaf}() on the shard data path; byte-"
                        "level serialization is banned in the zero-copy "
                        "transport modules — use the counted-frame "
                        "codec in repro.core.serialize",
                    )


#: The purely syntactic rules defined in this module. The full
#: registry — these plus the flow-sensitive RAP-LINT006..010 — lives in
#: :mod:`repro.checks.lint.registry`.
SYNTACTIC_RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        UnseededRngRule(),
        FloatCounterRule(),
        NodeEncapsulationRule(),
        MissingAnnotationsRule(),
        WallClockRule(),
        DirectTreeConstructionRule(),
        ColumnarInternalsImportRule(),
        SharedMemoryImportRule(),
        HotPathPickleRule(),
    )
}
