"""Numeric & array abstract interpretation, plus RAP-LINT018..023.

The reproduction mixes four numeric worlds: unbounded CPython ints (the
object backend's exact counters), ``int64`` numpy counter mirrors,
``uint64`` bound columns, and ``float64`` thresholds. numpy's promotion
rules make that mix treacherous — ``uint64 op int64`` silently promotes
to ``float64``, ``np.bincount(..., weights=...)`` always sums in
``float64``, and an int64-vs-float64 comparison rounds both sides above
``2**53`` where CPython would compare exactly. This module makes those
hazards machine-checked the same way the taint lattice machine-checks
counter/RNG discipline: an abstract interpreter on the existing CFG +
worklist solver with three cooperating domains, and six lint rules on
top.

The domains (one :class:`NumValue` per variable, a product lattice):

* **dtype lattice** — the powerset of ``{bool, int64, uint64, float64,
  object, int, float}`` (``int``/``float`` are exact Python scalars;
  the empty set is "unknown", the lattice top). Propagated through
  ``np.zeros/empty/asarray/astype``, arithmetic (with numpy's promotion
  table, pinned against ``np.result_type`` in the tests), comparisons,
  indexing, and the recognised ufunc/reduction calls.
* **interval domain** — ``[lo, hi]`` bounds with ``None`` as ±∞, used
  to flag *possible* int64 overflow and int→float64 precision loss past
  ``2**53``. Joins widen bounds outward to a fixed bucket grid
  (…, 2**31, 2**53, 2**63−1, …) so the lattice stays finite and the
  solver terminates.
* **array-trait domain** — ``array`` (a numpy array), ``view`` (may
  alias another live array's memory: slices, ``.T``, ``reshape``,
  ``ravel``, ``view``, ``asarray``), plus the set of base names a view
  may alias and a ``counter`` origin tag that follows values read from
  counter columns (``.count``, ``._counts``, …) through arithmetic.

The rules (registered in :mod:`repro.checks.lint.registry`):

* **RAP-LINT018 mixed-signedness-promotion** — ``uint64`` meets
  ``int64`` under an arithmetic operator or comparison; numpy promotes
  both to ``float64`` and the result is silently inexact above 2**53.
* **RAP-LINT019 counter-float-comparison** — a counter-origin value is
  compared under float64 array semantics (the columnar fit-mask caveat,
  found statically).
* **RAP-LINT020 counter-accumulation-precision** — counter weight is
  accumulated through a float64 carrier (float augmented assignment,
  ``bincount``-with-weights, an ``astype(int64)`` cast back out of
  float64), or an integer product/sum provably may exceed int64.
* **RAP-LINT021 aliased-view-mutation** — in-place mutation of a value
  the trait domain says may alias another live array.
* **RAP-LINT022 hot-loop-allocation** — an allocating numpy call inside
  a loop of a function the hotspec (:mod:`repro.checks.hotspec`)
  declares hot.
* **RAP-LINT023 scalar-loop-over-array** — a Python-scalar ``for`` loop
  sweeping an array that has a vectorized equivalent.

Every violation carries a ``flow_trace`` witness (definition chain from
the origin to the flagged site), rendered by ``rap lint`` text output
and the JSON/SARIF payloads.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..hotspec import is_hot
from ..lint.rules import (
    LintContext,
    Rule,
    Violation,
    _import_aliases,
)
from .analyses import Definition, reaching_definitions
from .cfg import CFG, CFGNode
from .rules import (
    FlowRule,
    UnitAnalysis,
    _executed_exprs,
    _source_line,
    _unit_analyses,
)
from .solver import DataflowProblem, Solution, solve
from .taint import _render, _resolved_call_name

# --------------------------------------------------------------------------
# The dtype lattice
# --------------------------------------------------------------------------

DT_BOOL = "bool"
DT_INT64 = "int64"
DT_UINT64 = "uint64"
DT_FLOAT64 = "float64"
DT_OBJECT = "object"
DT_INT = "int"  # exact CPython int
DT_FLOAT = "float"  # CPython float (same 53-bit mantissa as float64)

ALL_DTYPES = frozenset(
    {DT_BOOL, DT_INT64, DT_UINT64, DT_FLOAT64, DT_OBJECT, DT_INT, DT_FLOAT}
)

#: dtypes whose values live in floating point (inexact above 2**53).
FLOAT_DTYPES = frozenset({DT_FLOAT64, DT_FLOAT})
#: dtypes whose values are integers (exact while they fit).
INT_DTYPES = frozenset({DT_BOOL, DT_INT64, DT_UINT64, DT_INT})

TWO_53 = 2**53
INT64_MAX = 2**63 - 1
UINT64_MAX = 2**64 - 1

#: The binary-operation promotion table, pinned against
#: ``np.result_type`` by ``tests/checks/test_numeric.py``. The one
#: surprise is the first row: numpy has no integer type that holds both
#: uint64 and int64, so it promotes the pair to float64.
PROMOTION: Dict[FrozenSet[str], str] = {
    frozenset({DT_UINT64, DT_INT64}): DT_FLOAT64,
    frozenset({DT_UINT64, DT_UINT64}): DT_UINT64,
    frozenset({DT_UINT64, DT_INT}): DT_UINT64,
    frozenset({DT_UINT64, DT_BOOL}): DT_UINT64,
    frozenset({DT_INT64, DT_INT64}): DT_INT64,
    frozenset({DT_INT64, DT_INT}): DT_INT64,
    frozenset({DT_INT64, DT_BOOL}): DT_INT64,
    frozenset({DT_INT, DT_INT}): DT_INT,
    frozenset({DT_INT, DT_BOOL}): DT_INT,
    frozenset({DT_BOOL, DT_BOOL}): DT_BOOL,
}


def promote(left: str, right: str) -> str:
    """numpy's binary promotion for one dtype pair."""
    if DT_OBJECT in (left, right):
        return DT_OBJECT
    if DT_FLOAT64 in (left, right):
        return DT_FLOAT64
    if DT_FLOAT in (left, right):
        # A Python float against an array dtype becomes float64; two
        # Python scalars stay a Python float.
        if left in (DT_FLOAT, DT_INT) and right in (DT_FLOAT, DT_INT):
            return DT_FLOAT
        return DT_FLOAT64
    return PROMOTION[frozenset({left, right})]


# --------------------------------------------------------------------------
# The interval domain
# --------------------------------------------------------------------------

Bound = Optional[int]  # None encodes the relevant infinity

#: Widening grid: joined bounds snap outward to these magnitudes so the
#: interval lattice has finite height (the solver needs termination).
_BUCKETS = (
    -(2**64),
    -INT64_MAX - 1,
    -(2**31),
    -1,
    0,
    1,
    2**31,
    TWO_53,
    INT64_MAX,
    2**64,
)


def _widen_lo(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    if a == b:
        return a
    low = min(a, b)
    for bucket in reversed(_BUCKETS):
        if bucket <= low:
            return bucket
    return None


def _widen_hi(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    if a == b:
        return a
    high = max(a, b)
    for bucket in _BUCKETS:
        if bucket >= high:
            return bucket
    return None


def _add_bound(a: Bound, b: Bound) -> Bound:
    return None if a is None or b is None else a + b


def _mul_hi(a_lo: Bound, a_hi: Bound, b_lo: Bound, b_hi: Bound) -> Bound:
    """Upper bound of a product of two non-negative-ish intervals; None
    (unbounded) unless all four corners are finite."""
    corners = (a_lo, a_hi, b_lo, b_hi)
    if any(corner is None for corner in corners):
        return None
    return max(
        a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    )


# --------------------------------------------------------------------------
# Abstract values
# --------------------------------------------------------------------------

TRAIT_ARRAY = "array"
TRAIT_VIEW = "view"

ORIGIN_COUNTER = "counter"


@dataclass(frozen=True)
class NumValue:
    """One variable's abstract numeric state (product of the domains).

    ``dtypes`` empty means unknown (top). ``bases`` names the variables
    / attribute chains a view may alias. Instances are immutable and
    hashable so environments compare structurally in the solver.
    """

    dtypes: FrozenSet[str] = frozenset()
    lo: Bound = None
    hi: Bound = None
    traits: FrozenSet[str] = frozenset()
    bases: FrozenSet[str] = frozenset()
    origins: FrozenSet[str] = frozenset()

    @property
    def is_array(self) -> bool:
        return TRAIT_ARRAY in self.traits

    @property
    def is_view(self) -> bool:
        return TRAIT_VIEW in self.traits

    @property
    def is_counter(self) -> bool:
        return ORIGIN_COUNTER in self.origins

    def has_float(self) -> bool:
        return bool(self.dtypes & FLOAT_DTYPES)

    def pure_int(self) -> bool:
        return bool(self.dtypes) and self.dtypes <= INT_DTYPES

    def may_exceed(self, limit: int) -> bool:
        """Could this (integer) value exceed ``limit``?"""
        return self.hi is None or self.hi > limit

    def join(self, other: "NumValue") -> "NumValue":
        return NumValue(
            dtypes=self.dtypes | other.dtypes,
            lo=_widen_lo(self.lo, other.lo),
            hi=_widen_hi(self.hi, other.hi),
            traits=self.traits | other.traits,
            bases=self.bases | other.bases,
            origins=self.origins | other.origins,
        )


UNKNOWN = NumValue()

Env = Tuple[Tuple[str, NumValue], ...]


def _env_get(env: Env, name: str) -> NumValue:
    for key, value in env:
        if key == name:
            return value
    return UNKNOWN


def _env_set(env: Env, updates: Dict[str, NumValue]) -> Env:
    merged = dict(env)
    for name, value in updates.items():
        if value == UNKNOWN:
            merged.pop(name, None)
        else:
            merged[name] = value
    return tuple(sorted(merged.items()))


def _numeric_env_join(values: Sequence[Env]) -> Env:
    merged: Dict[str, NumValue] = {}
    for env in values:
        for name, value in env:
            existing = merged.get(name)
            merged[name] = value if existing is None else existing.join(value)
    return tuple(sorted(merged.items()))


# --------------------------------------------------------------------------
# Recognised numpy surface
# --------------------------------------------------------------------------

#: Attribute reads with a known numeric meaning in this repo. Counter
#: columns and scalar counters carry the ``counter`` origin the rules
#: key on; the bound columns are the uint64 side of RAP-LINT018.
_COUNTER_SCALAR_ATTRS = frozenset({"count", "_events", "events"})
_COUNTER_ARRAY_ATTRS = frozenset({"counts", "_counts"})
_UINT64_ARRAY_ATTRS = frozenset({"_values", "_masks"})

#: dtype spellings accepted in ``dtype=`` arguments.
_DTYPE_NAMES: Dict[str, str] = {
    "numpy.bool_": DT_BOOL,
    "numpy.int64": DT_INT64,
    "numpy.intp": DT_INT64,
    "numpy.uint64": DT_UINT64,
    "numpy.float64": DT_FLOAT64,
    "numpy.double": DT_FLOAT64,
    "bool": DT_BOOL,
    "int": DT_INT64,
    "float": DT_FLOAT64,
    "object": DT_OBJECT,
    "int64": DT_INT64,
    "intp": DT_INT64,
    "uint64": DT_UINT64,
    "float64": DT_FLOAT64,
}

#: Allocation-returning constructors (RAP-LINT022's banned set inside
#: hot loops) and the default dtype each produces without ``dtype=``.
ALLOCATING_CALLS: Dict[str, str] = {
    "numpy.zeros": DT_FLOAT64,
    "numpy.empty": DT_FLOAT64,
    "numpy.ones": DT_FLOAT64,
    "numpy.full": DT_FLOAT64,
    "numpy.array": DT_FLOAT64,
    "numpy.arange": DT_INT64,
    "numpy.concatenate": DT_FLOAT64,
    "numpy.copy": DT_FLOAT64,
    "numpy.zeros_like": DT_FLOAT64,
    "numpy.empty_like": DT_FLOAT64,
    "numpy.ones_like": DT_FLOAT64,
    "numpy.full_like": DT_FLOAT64,
    "numpy.tile": DT_FLOAT64,
    "numpy.repeat": DT_FLOAT64,
    "numpy.stack": DT_FLOAT64,
    "numpy.vstack": DT_FLOAT64,
    "numpy.hstack": DT_FLOAT64,
}

#: Calls whose result is an int64 index/position array.
_INDEX_CALLS = frozenset(
    {
        "numpy.searchsorted",
        "numpy.argsort",
        "numpy.flatnonzero",
        "numpy.nonzero",
        "numpy.argmax",
        "numpy.argmin",
    }
)

#: Calls that preserve their first argument's dtype/origin.
_PRESERVING_CALLS = frozenset(
    {
        "numpy.unique",
        "numpy.sort",
        "numpy.abs",
        "numpy.concatenate",
        "numpy.copy",
        "numpy.tile",
        "numpy.repeat",
    }
)

#: Binary ufuncs that follow the promotion table.
_BINARY_UFUNCS = frozenset(
    {
        "numpy.add",
        "numpy.subtract",
        "numpy.multiply",
        "numpy.floor_divide",
        "numpy.minimum",
        "numpy.maximum",
    }
)

#: Methods that mutate an array in place (RAP-LINT021 sites).
INPLACE_METHODS = frozenset({"sort", "fill", "partition", "put"})

#: Methods whose result may alias the receiver's memory.
_VIEW_METHODS = frozenset({"view", "reshape", "ravel", "transpose",
                           "swapaxes", "squeeze"})


def _dtype_from_expr(
    expr: Optional[ast.expr], aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve a ``dtype=`` argument expression to a lattice dtype."""
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return _DTYPE_NAMES.get(expr.value)
    parts: List[str] = []
    node: ast.AST = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        dotted = ".".join(reversed(parts))
        head, _, rest = dotted.partition(".")
        head = aliases.get(head, head)
        dotted = f"{head}.{rest}" if rest else head
        return _DTYPE_NAMES.get(dotted)
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _attr_chain(expr: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` chains (used as view-base labels)."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------------
# The analysis
# --------------------------------------------------------------------------


class NumericAnalysis:
    """Numeric abstract interpretation for one CFG (one function)."""

    def __init__(self, cfg: CFG, aliases: Optional[Dict[str, str]] = None):
        self.cfg = cfg
        self.aliases = aliases or {}
        self.solution: Solution[Env] = self._solve()
        self.reaching: Solution[FrozenSet[Definition]] = (
            reaching_definitions(cfg)
        )

    # -- expression evaluation -------------------------------------------

    def eval_value(self, expr: Optional[ast.AST], env: Env) -> NumValue:
        if expr is None:
            return UNKNOWN
        if isinstance(expr, ast.Name):
            return _env_get(env, expr.id)
        if isinstance(expr, ast.Constant):
            return self._eval_constant(expr)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.BoolOp):
            value = UNKNOWN
            for sub in expr.values:
                value = value.join(self.eval_value(sub, env))
            return value
        if isinstance(expr, ast.IfExp):
            return self.eval_value(expr.body, env).join(
                self.eval_value(expr.orelse, env)
            )
        if isinstance(expr, (ast.NamedExpr, ast.Await, ast.Starred)):
            return self.eval_value(expr.value, env)
        if isinstance(expr, ast.Compare):
            operands = [expr.left, *expr.comparators]
            any_array = any(
                self.eval_value(operand, env).is_array
                for operand in operands
            )
            return NumValue(
                dtypes=frozenset({DT_BOOL}),
                lo=0,
                hi=1,
                traits=(
                    frozenset({TRAIT_ARRAY}) if any_array else frozenset()
                ),
            )
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        return UNKNOWN

    @staticmethod
    def _eval_constant(expr: ast.Constant) -> NumValue:
        value = expr.value
        if isinstance(value, bool):
            as_int = int(value)
            return NumValue(
                dtypes=frozenset({DT_BOOL}), lo=as_int, hi=as_int
            )
        if isinstance(value, int):
            return NumValue(dtypes=frozenset({DT_INT}), lo=value, hi=value)
        if isinstance(value, float):
            return NumValue(dtypes=frozenset({DT_FLOAT}))
        return UNKNOWN

    def _eval_attribute(self, expr: ast.Attribute, env: Env) -> NumValue:
        attr = expr.attr
        if attr in _COUNTER_SCALAR_ATTRS:
            return NumValue(
                dtypes=frozenset({DT_INT}),
                lo=0,
                origins=frozenset({ORIGIN_COUNTER}),
            )
        if attr in _COUNTER_ARRAY_ATTRS:
            # int64 storage bounds the elements even when the analysis
            # knows nothing else — the bound is what lets the 32-bit
            # split idiom prove its halves small.
            return NumValue(
                dtypes=frozenset({DT_INT64}),
                lo=0,
                hi=INT64_MAX,
                traits=frozenset({TRAIT_ARRAY}),
                origins=frozenset({ORIGIN_COUNTER}),
            )
        if attr in _UINT64_ARRAY_ATTRS:
            return NumValue(
                dtypes=frozenset({DT_UINT64}),
                lo=0,
                hi=UINT64_MAX,
                traits=frozenset({TRAIT_ARRAY}),
            )
        base = self.eval_value(expr.value, env)
        if attr == "T" and base.is_array:
            label = _attr_chain(expr.value) or "<array>"
            return replace(
                base,
                traits=base.traits | frozenset({TRAIT_VIEW}),
                bases=base.bases | frozenset({label}),
            )
        if attr == "size" and base.is_array:
            return NumValue(dtypes=frozenset({DT_INT}), lo=0)
        if attr == "dtype":
            return UNKNOWN
        return UNKNOWN

    def _eval_subscript(self, expr: ast.Subscript, env: Env) -> NumValue:
        base = self.eval_value(expr.value, env)
        if not base.is_array:
            return UNKNOWN
        label = _attr_chain(expr.value) or "<array>"
        if isinstance(expr.slice, ast.Slice):
            # A slice is a *view* over the same memory.
            return replace(
                base,
                traits=base.traits | frozenset({TRAIT_VIEW}),
                bases=base.bases | frozenset({label}),
            )
        index = self.eval_value(expr.slice, env)
        if index.is_array:
            # Fancy indexing copies; scalar element otherwise. Both
            # keep dtype and origin; fancy indexing keeps arrayness.
            return NumValue(
                dtypes=base.dtypes,
                lo=base.lo,
                hi=base.hi,
                traits=frozenset({TRAIT_ARRAY}),
                origins=base.origins,
            )
        return NumValue(
            dtypes=base.dtypes, lo=base.lo, hi=base.hi,
            origins=base.origins,
        )

    def _eval_binop(self, expr: ast.BinOp, env: Env) -> NumValue:
        left = self.eval_value(expr.left, env)
        right = self.eval_value(expr.right, env)
        return self.combine(expr.op, left, right)

    def combine(
        self, op: ast.operator, left: NumValue, right: NumValue
    ) -> NumValue:
        traits = (left.traits | right.traits) & frozenset({TRAIT_ARRAY})
        origins = left.origins | right.origins
        any_array = bool(traits)
        dtypes: FrozenSet[str]
        if isinstance(op, ast.Div):
            dtypes = frozenset(
                {DT_FLOAT64 if any_array or not (
                    left.dtypes <= frozenset({DT_INT, DT_FLOAT})
                    and right.dtypes <= frozenset({DT_INT, DT_FLOAT})
                ) else DT_FLOAT}
            )
        elif left.dtypes and right.dtypes:
            dtypes = frozenset(
                promote(a, b) for a in left.dtypes for b in right.dtypes
            )
        else:
            dtypes = frozenset()
        lo: Bound = None
        hi: Bound = None
        if isinstance(op, ast.Add):
            lo = _add_bound(left.lo, right.lo)
            hi = _add_bound(left.hi, right.hi)
        elif isinstance(op, ast.Sub):
            lo = (
                None
                if left.lo is None or right.hi is None
                else left.lo - right.hi
            )
            hi = (
                None
                if left.hi is None or right.lo is None
                else left.hi - right.lo
            )
        elif isinstance(op, ast.Mult):
            hi = _mul_hi(left.lo, left.hi, right.lo, right.hi)
            if (
                left.lo is not None
                and right.lo is not None
                and left.lo >= 0
                and right.lo >= 0
            ):
                lo = left.lo * right.lo
        elif isinstance(op, ast.BitAnd):
            # Masking with a non-negative constant bounds the result.
            for operand in (left, right):
                if (
                    operand.lo is not None
                    and operand.lo == operand.hi
                    and operand.lo >= 0
                ):
                    lo, hi = 0, operand.lo
                    break
        elif isinstance(op, ast.RShift):
            if left.lo is not None and left.lo >= 0:
                lo = 0
                if (
                    left.hi is not None
                    and right.lo is not None
                    and right.lo == right.hi
                    and right.lo >= 0
                ):
                    hi = left.hi >> right.lo
                else:
                    hi = left.hi
        elif isinstance(op, (ast.FloorDiv, ast.Mod)):
            if left.lo is not None and left.lo >= 0:
                lo, hi = 0, left.hi
        return NumValue(
            dtypes=dtypes, lo=lo, hi=hi, traits=traits, origins=origins
        )

    def _eval_unary(self, expr: ast.UnaryOp, env: Env) -> NumValue:
        operand = self.eval_value(expr.operand, env)
        if isinstance(expr.op, ast.USub):
            lo = None if operand.hi is None else -operand.hi
            hi = None if operand.lo is None else -operand.lo
            return replace(operand, lo=lo, hi=hi)
        if isinstance(expr.op, ast.Not):
            return NumValue(dtypes=frozenset({DT_BOOL}), lo=0, hi=1)
        return operand

    def _eval_call(self, call: ast.Call, env: Env) -> NumValue:
        resolved = _resolved_call_name(call, self.aliases)
        if resolved is None:
            # Method call on a composite receiver, e.g.
            # ``table[lo:hi].copy()`` — fall through to the attribute
            # dispatch below with no named-call match possible.
            resolved = ""
        if resolved in ALLOCATING_CALLS or resolved == "numpy.asarray":
            declared = _dtype_from_expr(
                _keyword(call, "dtype"), self.aliases
            )
            arg = self.eval_value(call.args[0], env) if call.args else UNKNOWN
            if declared is not None:
                dtypes = frozenset({declared})
            elif resolved in ("numpy.asarray", "numpy.array") and (
                arg.is_array and arg.dtypes
            ):
                dtypes = arg.dtypes
            elif resolved in _PRESERVING_CALLS and arg.dtypes:
                dtypes = arg.dtypes
            elif resolved == "numpy.asarray":
                dtypes = frozenset()
            else:
                dtypes = frozenset({ALLOCATING_CALLS[resolved]})
            traits = frozenset({TRAIT_ARRAY})
            bases: FrozenSet[str] = frozenset()
            if resolved == "numpy.asarray" and call.args:
                # asarray of an array is a no-copy alias.
                label = _attr_chain(call.args[0])
                if arg.is_array and label is not None:
                    traits |= frozenset({TRAIT_VIEW})
                    bases = frozenset({label})
            lo, hi = (None, None)
            if resolved == "numpy.zeros":
                lo, hi = 0, 0
            elif resolved == "numpy.ones":
                lo, hi = 1, 1
            elif resolved in _PRESERVING_CALLS:
                lo, hi = arg.lo, arg.hi
            origins = (
                arg.origins if resolved in _PRESERVING_CALLS
                or resolved in ("numpy.asarray", "numpy.array")
                else frozenset()
            )
            return NumValue(
                dtypes=dtypes, lo=lo, hi=hi, traits=traits, bases=bases,
                origins=origins,
            )
        if resolved == "numpy.bincount":
            weights = _keyword(call, "weights")
            if weights is None and len(call.args) > 1:
                weights = call.args[1]
            if weights is not None:
                weight_value = self.eval_value(weights, env)
                origins = weight_value.origins
                if (
                    weight_value.hi is not None
                    and weight_value.hi <= 2**32 - 1
                ):
                    # The blessed 32-bit-split idiom: a bounded half's
                    # float64 sums are exact, so its bincount result is
                    # no longer a hazardous counter carrier.
                    origins = origins - frozenset({ORIGIN_COUNTER})
                return NumValue(
                    dtypes=frozenset({DT_FLOAT64}),
                    traits=frozenset({TRAIT_ARRAY}),
                    origins=origins,
                )
            return NumValue(
                dtypes=frozenset({DT_INT64}),
                lo=0,
                traits=frozenset({TRAIT_ARRAY}),
            )
        if resolved in _INDEX_CALLS:
            return NumValue(
                dtypes=frozenset({DT_INT64}),
                lo=0,
                traits=frozenset({TRAIT_ARRAY}),
            )
        if resolved in ("numpy.cumsum", "numpy.sum"):
            arg = self.eval_value(call.args[0], env) if call.args else UNKNOWN
            dtypes = frozenset(
                DT_INT64 if dtype in (DT_BOOL, DT_INT) else dtype
                for dtype in arg.dtypes
            )
            traits = (
                frozenset({TRAIT_ARRAY})
                if resolved == "numpy.cumsum"
                else frozenset()
            )
            return NumValue(
                dtypes=dtypes, lo=arg.lo, traits=traits,
                origins=arg.origins,
            )
        if resolved in _PRESERVING_CALLS:
            arg = self.eval_value(call.args[0], env) if call.args else UNKNOWN
            return NumValue(
                dtypes=arg.dtypes, lo=arg.lo, hi=arg.hi,
                traits=frozenset({TRAIT_ARRAY}), origins=arg.origins,
            )
        if resolved in _BINARY_UFUNCS and len(call.args) >= 2:
            left = self.eval_value(call.args[0], env)
            right = self.eval_value(call.args[1], env)
            op: ast.operator
            if resolved == "numpy.subtract":
                op = ast.Sub()
            elif resolved == "numpy.multiply":
                op = ast.Mult()
            elif resolved == "numpy.floor_divide":
                op = ast.FloorDiv()
            else:
                op = ast.Add()
            value = self.combine(op, left, right)
            return replace(value, traits=frozenset({TRAIT_ARRAY}))
        if resolved == "float":
            return NumValue(dtypes=frozenset({DT_FLOAT}))
        if resolved in ("int", "math.floor", "math.ceil", "round"):
            arg = self.eval_value(call.args[0], env) if call.args else UNKNOWN
            return NumValue(
                dtypes=frozenset({DT_INT}), lo=arg.lo, hi=arg.hi,
                origins=arg.origins,
            )
        if resolved == "len":
            return NumValue(dtypes=frozenset({DT_INT}), lo=0)
        if resolved in ("min", "max") and call.args:
            value = UNKNOWN
            for arg in call.args:
                value = value.join(self.eval_value(arg, env))
            return replace(value, traits=frozenset())
        # Method calls on a tracked value.
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = self.eval_value(func.value, env)
            label = _attr_chain(func.value) or "<array>"
            if func.attr == "astype":
                declared = _dtype_from_expr(
                    call.args[0] if call.args else _keyword(call, "dtype"),
                    self.aliases,
                )
                return NumValue(
                    dtypes=(
                        frozenset({declared})
                        if declared is not None
                        else frozenset()
                    ),
                    lo=receiver.lo,
                    hi=receiver.hi,
                    traits=frozenset({TRAIT_ARRAY}),
                    origins=receiver.origins,
                )
            if func.attr == "copy" and receiver.is_array:
                return NumValue(
                    dtypes=receiver.dtypes, lo=receiver.lo, hi=receiver.hi,
                    traits=frozenset({TRAIT_ARRAY}),
                    origins=receiver.origins,
                )
            if func.attr in _VIEW_METHODS and receiver.is_array:
                return replace(
                    receiver,
                    traits=receiver.traits | frozenset({TRAIT_VIEW}),
                    bases=receiver.bases | frozenset({label}),
                )
            if func.attr == "sum" and receiver.is_array:
                dtypes = frozenset(
                    DT_INT64 if dtype in (DT_BOOL, DT_INT) else dtype
                    for dtype in receiver.dtypes
                )
                return NumValue(
                    dtypes=dtypes, lo=receiver.lo,
                    origins=receiver.origins,
                )
            if func.attr == "tolist":
                return UNKNOWN
        return UNKNOWN

    # -- transfer / fixed point ------------------------------------------

    def _transfer(self, node: CFGNode, env: Env) -> Env:
        stmt = node.stmt
        if stmt is None:
            return env
        updates: Dict[str, NumValue] = {}
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.NamedExpr) and isinstance(
                sub.target, ast.Name
            ):
                updates[sub.target.id] = self.eval_value(sub.value, env)
        if isinstance(stmt, ast.Assign):
            value = self.eval_value(stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    updates[target.id] = value
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            updates[element.id] = UNKNOWN
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                updates[stmt.target.id] = self.eval_value(stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                before = _env_get(env, stmt.target.id)
                value = self.combine(
                    stmt.op, before, self.eval_value(stmt.value, env)
                )
                updates[stmt.target.id] = value
        elif isinstance(stmt, (ast.For, ast.AsyncFor)) and node.kind == "loop":
            iter_value = self.eval_value(stmt.iter, env)
            if isinstance(stmt.target, ast.Name):
                if iter_value.is_array:
                    updates[stmt.target.id] = NumValue(
                        dtypes=iter_value.dtypes,
                        lo=iter_value.lo,
                        hi=iter_value.hi,
                        origins=iter_value.origins,
                    )
                else:
                    updates[stmt.target.id] = UNKNOWN
            else:
                for sub in ast.walk(stmt.target):
                    if isinstance(sub, ast.Name):
                        updates[sub.id] = UNKNOWN
        elif isinstance(stmt, (ast.With, ast.AsyncWith)) and (
            node.kind == "with"
        ):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    updates[item.optional_vars.id] = UNKNOWN
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                updates[stmt.name] = UNKNOWN
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            updates[stmt.name] = UNKNOWN
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name != "*":
                    updates[alias.asname or alias.name.split(".")[0]] = (
                        UNKNOWN
                    )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    updates[target.id] = UNKNOWN
        if not updates:
            return env
        return _env_set(env, updates)

    def _solve(self) -> Solution[Env]:
        problem: DataflowProblem[Env] = DataflowProblem(
            direction="forward",
            boundary=(),
            bottom=(),
            transfer=self._transfer,
            join=_numeric_env_join,
        )
        return solve(self.cfg, problem)

    # -- queries and witnesses -------------------------------------------

    def env_before(self, node_id: int) -> Env:
        return self.solution.inputs[node_id]

    def value_before(self, node_id: int, name: str) -> NumValue:
        return _env_get(self.env_before(node_id), name)

    def def_chain(
        self, node_id: int, name: str, max_depth: int = 8
    ) -> List[Tuple[int, int, str]]:
        """Definition-chain witness: where ``name`` last got its value,
        chased backwards through contributing variables."""
        steps: List[Tuple[int, int, str]] = []
        visited: Set[Tuple[int, str]] = set()

        def resolve(at_node: int, var: str, depth: int) -> None:
            if depth > max_depth or (at_node, var) in visited:
                return
            visited.add((at_node, var))
            reaching_in = self.reaching.inputs[at_node]
            candidates = sorted(
                def_node
                for fact_var, def_node in reaching_in
                if fact_var == var
            )
            if not candidates:
                return
            def_node_id = candidates[-1]  # closest definition
            def_node = self.cfg.nodes[def_node_id]
            value = _definition_value(def_node, var)
            if value is not None:
                env = self.env_before(def_node_id)
                feeder = _interesting_name(value, env)
                if feeder is not None and feeder != var:
                    resolve(def_node_id, feeder, depth + 1)
                steps.append(
                    (
                        def_node.line,
                        def_node.col,
                        f"{var} = {_render(value)}",
                    )
                )

        resolve(node_id, name, 0)
        return steps


def _definition_value(node: CFGNode, var: str) -> Optional[ast.expr]:
    stmt = node.stmt
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == var:
                return stmt.value
        return None
    if isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name) and stmt.target.id == var:
            return stmt.value
        return None
    if isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name) and stmt.target.id == var:
            return stmt.value
        return None
    if isinstance(stmt, (ast.For, ast.AsyncFor)) and node.kind == "loop":
        names = [
            sub.id for sub in ast.walk(stmt.target)
            if isinstance(sub, ast.Name)
        ]
        if var in names:
            return stmt.iter
        return None
    if stmt is not None:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.NamedExpr)
                and isinstance(sub.target, ast.Name)
                and sub.target.id == var
            ):
                return sub.value
    return None


def _interesting_name(value: ast.expr, env: Env) -> Optional[str]:
    """A variable inside ``value`` worth chasing further back: one the
    environment knows something about."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if _env_get(env, sub.id) != UNKNOWN:
                return sub.id
    return None


def _numeric(analysis: UnitAnalysis) -> NumericAnalysis:
    """Per-unit NumericAnalysis, cached alongside the taint artifacts."""
    cached = getattr(analysis, "_numeric", None)
    if cached is None:
        cached = NumericAnalysis(analysis.cfg, analysis.aliases)
        analysis._numeric = cached  # type: ignore[attr-defined]
    return cached


def _uses_numpy(context: LintContext) -> bool:
    aliases = _import_aliases(context.tree)
    return "numpy" in aliases.values() or any(
        dotted.startswith("numpy.") for dotted in aliases.values()
    )


# --------------------------------------------------------------------------
# The rules
# --------------------------------------------------------------------------

_ARITH_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)


class NumericRule(FlowRule):
    """Base for the numeric rules: skips files that never import numpy."""

    kind = "numeric"

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not _uses_numpy(context):
            return
        for analysis in _unit_analyses(context):
            yield from self.check_unit(context, analysis)

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def _operand_chain(
        self,
        numeric: NumericAnalysis,
        node: CFGNode,
        expr: ast.AST,
    ) -> List[Tuple[int, int, str]]:
        """Witness prefix: the def chain of the first tracked name in
        ``expr`` (empty when the expression is self-contained)."""
        env = numeric.env_before(node.id)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if _env_get(env, sub.id) != UNKNOWN:
                    return numeric.def_chain(node.id, sub.id)
        return []


class MixedSignednessRule(NumericRule):
    code = "RAP-LINT018"
    name = "mixed-signedness-promotion"
    scope = "core/, hardware/"
    catches = "uint64/int64 mixes that silently promote to float64"
    rationale = (
        "numpy has no integer type holding both uint64 and int64, so "
        "mixing them (uint64 bound columns against int64 counters) "
        "promotes BOTH sides to float64 — arithmetic and comparisons "
        "silently lose exactness above 2**53"
    )
    example = (
        "starts = np.zeros(8, dtype=np.uint64)\n"
        "counts = np.zeros(8, dtype=np.int64)\n"
        "gap = starts - counts            # float64, inexact past 2**53"
    )
    fix = (
        "keep one signedness per dataflow: cast explicitly at the "
        "boundary (starts.astype(np.int64), checked) or store the "
        "column in the signedness its consumers need"
    )

    _scopes = ("core/", "hardware/")

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._scopes):
            return
        yield from super().check(context)

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        numeric = _numeric(analysis)
        for node in analysis.cfg.code_nodes():
            env = numeric.env_before(node.id)
            seen: Set[int] = set()
            for expr in _executed_exprs(node):
                pairs: List[Tuple[ast.AST, ast.expr, ast.expr, str]] = []
                if isinstance(expr, ast.BinOp) and isinstance(
                    expr.op, _ARITH_OPS
                ):
                    pairs.append(
                        (expr, expr.left, expr.right, "arithmetic")
                    )
                elif isinstance(expr, ast.Compare) and len(
                    expr.comparators
                ) == 1:
                    pairs.append(
                        (expr, expr.left, expr.comparators[0], "comparison")
                    )
                for site, left_expr, right_expr, what in pairs:
                    if id(site) in seen:
                        continue
                    left = numeric.eval_value(left_expr, env)
                    right = numeric.eval_value(right_expr, env)
                    mixed = (
                        DT_UINT64 in left.dtypes
                        and DT_INT64 in right.dtypes
                    ) or (
                        DT_INT64 in left.dtypes
                        and DT_UINT64 in right.dtypes
                    )
                    if not mixed:
                        continue
                    seen.add(id(site))
                    trace = self._operand_chain(numeric, node, site)
                    line = getattr(site, "lineno", node.line)
                    trace.append(
                        (
                            line,
                            getattr(site, "col_offset", node.col),
                            f"uint64 meets int64 in {what}: "
                            f"{_source_line(context, line)}",
                        )
                    )
                    yield self.flow_violation(
                        context,
                        site,
                        f"uint64 and int64 mix in {what}; numpy promotes "
                        f"both to float64, losing exactness above 2**53 "
                        f"— cast one side explicitly",
                        trace,
                    )


class CounterFloatComparisonRule(NumericRule):
    code = "RAP-LINT019"
    name = "counter-float-comparison"
    scope = "core/"
    catches = "counter values compared under float64 array semantics"
    rationale = (
        "comparing int64 counter totals against float64 thresholds "
        "rounds both sides to 53-bit mantissas before comparing — the "
        "columnar fit mask's documented caveat; CPython compares "
        "int-vs-float exactly, numpy arrays do not"
    )
    example = (
        "totals = np.bincount(owners, weights=deposits)  # float64 sums\n"
        "ok = counts + totals <= threshold  # float64 compare of counters"
    )
    fix = (
        "compare on the integer side: accumulate deposits in int64 and "
        "test against math.floor(threshold) (for integral lhs, "
        "x <= t iff x <= floor(t)), or guard the cast with an explicit "
        "2**53 bound check"
    )

    _scopes = ("core/",)

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._scopes):
            return
        yield from super().check(context)

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        numeric = _numeric(analysis)
        for node in analysis.cfg.code_nodes():
            env = numeric.env_before(node.id)
            for expr in _executed_exprs(node):
                if not isinstance(expr, ast.Compare):
                    continue
                operands = [expr.left, *expr.comparators]
                values = [
                    numeric.eval_value(operand, env) for operand in operands
                ]
                if not any(value.is_array for value in values):
                    continue  # CPython scalar compares are exact
                counter_at = [
                    index
                    for index, value in enumerate(values)
                    if value.is_counter
                ]
                if not counter_at:
                    continue
                floaty = any(value.has_float() for value in values)
                if not floaty:
                    continue
                index = counter_at[0]
                trace = self._operand_chain(
                    numeric, node, operands[index]
                ) or self._operand_chain(numeric, node, expr)
                trace.append(
                    (
                        expr.lineno,
                        expr.col_offset,
                        "counter compared in float64: "
                        f"{_source_line(context, expr.lineno)}",
                    )
                )
                yield self.flow_violation(
                    context,
                    expr,
                    "counter value compared under float64 array "
                    "semantics; exactness is lost above 2**53 — compare "
                    "on the integer side (floor the threshold) or guard "
                    "the cast",
                    trace,
                )


class CounterAccumulationRule(NumericRule):
    code = "RAP-LINT020"
    name = "counter-accumulation-precision"
    scope = "core/"
    catches = "counter accumulation through float64, or provable overflow"
    rationale = (
        "counters accumulated through a float64 carrier (bincount "
        "weights, float augmented sums, astype(int64) casts back out) "
        "round above 2**53, and int64 products of large counters can "
        "overflow outright — both turn exact lower bounds into "
        "approximations"
    )
    example = (
        "totals = np.bincount(owners, weights=counts)  # float64 sums\n"
        "deposits = totals.astype(np.int64)  # rounded above 2**53"
    )
    fix = (
        "accumulate on the integer side (split weights into 32-bit "
        "halves for exact bincounts, or np.add.at into an int64 "
        "buffer); keep provably-large products in Python ints"
    )

    _scopes = ("core/",)

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._scopes):
            return
        yield from super().check(context)

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        numeric = _numeric(analysis)
        for node in analysis.cfg.code_nodes():
            env = numeric.env_before(node.id)
            stmt = node.stmt
            if isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                before = _env_get(env, stmt.target.id)
                after = numeric.combine(
                    stmt.op, before, numeric.eval_value(stmt.value, env)
                )
                # `before` may already include float at the fixed point
                # (the loop's back edge joins the post-increment state
                # in), so the guard is "some path still carries an exact
                # int here", not "no float yet".
                if (
                    before.is_counter
                    and before.dtypes & INT_DTYPES
                    and after.has_float()
                ):
                    trace = numeric.def_chain(node.id, stmt.target.id)
                    trace.append(
                        (
                            node.line,
                            node.col,
                            "float accumulation: "
                            f"{_source_line(context, node.line)}",
                        )
                    )
                    yield self.flow_violation(
                        context,
                        stmt,
                        f"counter {stmt.target.id!r} is accumulated in "
                        f"float; weight past 2**53 is rounded away — "
                        f"accumulate in exact ints",
                        trace,
                    )
                    continue
                if (
                    before.is_counter
                    and isinstance(stmt.op, ast.Mult)
                    and after.pure_int()
                    and after.hi is not None
                    and after.hi > INT64_MAX
                ):
                    yield self._overflow(context, numeric, node, stmt)
                    continue
            for expr in _executed_exprs(node):
                if not isinstance(expr, ast.Call):
                    continue
                yield from self._check_call(context, numeric, node, expr, env)
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.BinOp
            ) and isinstance(stmt.value.op, ast.Mult):
                value = numeric.eval_value(stmt.value, env)
                if (
                    value.is_counter
                    and value.pure_int()
                    and DT_INT64 in value.dtypes
                    and value.hi is not None
                    and value.hi > INT64_MAX
                ):
                    yield self._overflow(context, numeric, node, stmt)

    def _overflow(
        self,
        context: LintContext,
        numeric: NumericAnalysis,
        node: CFGNode,
        stmt: ast.stmt,
    ) -> Violation:
        trace = self._operand_chain(numeric, node, stmt)
        trace.append(
            (
                node.line,
                node.col,
                "int64 product may overflow: "
                f"{_source_line(context, node.line)}",
            )
        )
        return self.flow_violation(
            context,
            stmt,
            "counter product may exceed int64; the multiplication wraps "
            "— do the arithmetic in Python ints or split the factors",
            trace,
        )

    def _check_call(
        self,
        context: LintContext,
        numeric: NumericAnalysis,
        node: CFGNode,
        call: ast.Call,
        env: Env,
    ) -> Iterator[Violation]:
        resolved = _resolved_call_name(call, numeric.aliases)
        if resolved == "numpy.bincount":
            weights = _keyword(call, "weights")
            if weights is None and len(call.args) > 1:
                weights = call.args[1]
            if weights is None:
                return
            weight_value = numeric.eval_value(weights, env)
            # Weights provably below 2**32 are the documented
            # 32-bit-split idiom: each float64 partial sum stays exact
            # for any realistic window, so only counter weights that may
            # exceed that bound are flagged.
            if (
                weight_value.is_counter
                and weight_value.pure_int()
                and weight_value.may_exceed(2**32 - 1)
            ):
                trace = self._operand_chain(numeric, node, weights)
                trace.append(
                    (
                        call.lineno,
                        call.col_offset,
                        "bincount sums weights in float64: "
                        f"{_source_line(context, call.lineno)}",
                    )
                )
                yield self.flow_violation(
                    context,
                    call,
                    "np.bincount sums counter weights in float64 "
                    "(weighted bincount always returns float64); "
                    "deposits above 2**53 are rounded — split the "
                    "weights into 32-bit halves for exact integer sums",
                    trace,
                )
            return
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
        ):
            receiver = numeric.eval_value(func.value, env)
            declared = _dtype_from_expr(
                call.args[0] if call.args else _keyword(call, "dtype"),
                numeric.aliases,
            )
            if (
                receiver.is_counter
                and DT_FLOAT64 in receiver.dtypes
                and declared in (DT_INT64, DT_UINT64)
            ):
                trace = self._operand_chain(numeric, node, func.value)
                trace.append(
                    (
                        call.lineno,
                        call.col_offset,
                        "cast back from float64: "
                        f"{_source_line(context, call.lineno)}",
                    )
                )
                yield self.flow_violation(
                    context,
                    call,
                    "counter weight round-trips through float64 before "
                    "the astype(int64) cast; values above 2**53 come "
                    "back rounded — keep the accumulation integral",
                    trace,
                )


class AliasedViewMutationRule(NumericRule):
    code = "RAP-LINT021"
    name = "aliased-view-mutation"
    catches = "in-place mutation of a possibly-aliased array view"
    rationale = (
        "a slice/reshape/asarray result can share memory with its base "
        "array; mutating the view in place silently rewrites the base "
        "(and every other alias), which is how batch kernels corrupt "
        "columns they only meant to read"
    )
    example = (
        "window = counts[start:stop]     # view over counts\n"
        "window += deposits              # silently rewrites counts"
    )
    fix = (
        "copy before mutating (window = counts[start:stop].copy()) "
        "when scratch space is wanted, or mutate the base explicitly "
        "(counts[start:stop] += deposits) so the write is visible at "
        "the call site"
    )

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        numeric = _numeric(analysis)
        for node in analysis.cfg.code_nodes():
            env = numeric.env_before(node.id)
            stmt = node.stmt

            def view_name(expr: ast.AST) -> Optional[str]:
                if isinstance(expr, ast.Name):
                    value = _env_get(env, expr.id)
                    if value.is_view:
                        return expr.id
                return None

            sites: List[Tuple[ast.AST, str, str]] = []
            if isinstance(stmt, ast.AugAssign):
                name = view_name(stmt.target)
                if name is not None:
                    sites.append(
                        (stmt, name, "augmented assignment writes through")
                    )
                elif isinstance(stmt.target, ast.Subscript):
                    name = view_name(stmt.target.value)
                    if name is not None:
                        sites.append(
                            (stmt, name, "indexed augmented write through")
                        )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        name = view_name(target.value)
                        if name is not None:
                            sites.append(
                                (stmt, name, "item assignment writes through")
                            )
            for expr in _executed_exprs(node):
                if not isinstance(expr, ast.Call):
                    continue
                func = expr.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in INPLACE_METHODS
                ):
                    name = view_name(func.value)
                    if name is not None:
                        sites.append(
                            (expr, name, f".{func.attr}() mutates")
                        )
                out = _keyword(expr, "out")
                if out is not None:
                    name = view_name(out)
                    if name is not None:
                        sites.append(
                            (expr, name, "ufunc out= writes through")
                        )
            reported: Set[str] = set()
            for site, name, what in sites:
                if name in reported:
                    continue
                reported.add(name)
                value = _env_get(env, name)
                bases = ", ".join(sorted(value.bases)) or "another array"
                trace = numeric.def_chain(node.id, name)
                line = getattr(site, "lineno", node.line)
                trace.append(
                    (
                        line,
                        getattr(site, "col_offset", node.col),
                        f"{what} a view of {bases}: "
                        f"{_source_line(context, line)}",
                    )
                )
                yield self.flow_violation(
                    context,
                    site,
                    f"{what} {name!r}, which may alias {bases}; in-place "
                    f"mutation of a view rewrites the base array — copy "
                    f"first or write through the base explicitly",
                    trace,
                )


class HotLoopAllocationRule(NumericRule):
    code = "RAP-LINT022"
    name = "hot-loop-allocation"
    scope = "hotspec functions"
    catches = "allocating numpy calls inside loops of hot functions"
    rationale = (
        "the hotspec (repro.checks.hotspec) names the per-event/batch "
        "critical path — columnar vector rounds, descent cache, TCAM "
        "batch match; an np.zeros/array/concatenate "
        "per loop iteration there is a measured throughput regression, "
        "not a style nit"
    )
    example = (
        "def extend(self, values):       # hotspec entry\n"
        "    for chunk in chunks:\n"
        "        buf = np.zeros(n)       # fresh allocation per iteration"
    )
    fix = (
        "hoist the allocation out of the loop and reuse the buffer "
        "(fill/slice-assign per iteration), or batch the loop body "
        "into one vectorized call"
    )

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        unit = analysis.unit
        if unit.is_module:
            return
        if not is_hot(
            context.relpath,
            unit.name,
            source_lines=context.source_lines,
            def_lineno=unit.node.lineno,
        ):
            return
        aliases = _import_aliases(context.tree)
        yield from self._scan(context, aliases, unit.node.body, None)

    def _scan(
        self,
        context: LintContext,
        aliases: Dict[str, str],
        body: Sequence[ast.stmt],
        loop: Optional[ast.stmt],
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested units are analysed separately
            if loop is not None:
                for header in self._stmt_exprs(stmt):
                    for sub in ast.walk(header):
                        if not isinstance(sub, ast.Call):
                            continue
                        resolved = _resolved_call_name(sub, aliases)
                        if resolved not in ALLOCATING_CALLS:
                            continue
                        trace = [
                            (
                                loop.lineno,
                                loop.col_offset,
                                "loop on the declared hot path: "
                                f"{_source_line(context, loop.lineno)}",
                            ),
                            (
                                sub.lineno,
                                sub.col_offset,
                                f"{resolved}() allocates every iteration: "
                                f"{_source_line(context, sub.lineno)}",
                            ),
                        ]
                        yield self.flow_violation(
                            context,
                            sub,
                            f"{resolved}() allocates inside a loop of a "
                            f"hotspec function; hoist the buffer out of "
                            f"the loop or vectorize the body",
                            trace,
                        )
            enclosing = (
                stmt
                if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
                else loop
            )
            for attr in ("body", "orelse", "finalbody"):
                inner_body = getattr(stmt, attr, None)
                if inner_body:
                    yield from self._scan(
                        context, aliases, inner_body, enclosing
                    )
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._scan(
                    context, aliases, handler.body, enclosing
                )

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Expressions evaluated *at* this statement each time control
        reaches it (compound statements' bodies are recursed separately;
        a nested loop's header still runs once per outer iteration)."""
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield stmt.iter
        elif isinstance(stmt, (ast.While, ast.If)):
            yield stmt.test
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                yield item.context_expr
        elif isinstance(stmt, ast.Try):
            return
        else:
            yield stmt


class ScalarLoopOverArrayRule(NumericRule):
    code = "RAP-LINT023"
    name = "scalar-loop-over-array"
    scope = "core/, hardware/"
    catches = "Python-scalar loops over arrays with vectorized equivalents"
    rationale = (
        "iterating a numpy array element by element pays a boxed-scalar "
        "conversion per item — two orders of magnitude over the ufunc "
        "that does the same reduction/transform in one call; in the "
        "kernel packages that is exactly the anti-pattern the columnar "
        "rewrite exists to remove"
    )
    example = (
        "deposits = np.bincount(owners, minlength=n)\n"
        "total = 0\n"
        "for d in deposits:\n"
        "    total += d                 # np.sum(deposits) in slow motion"
    )
    fix = (
        "use the vectorized equivalent (np.sum/np.cumsum/ufunc "
        "arithmetic/boolean masks); when per-item Python logic is "
        "genuinely needed, convert once with .tolist() so the loop "
        "works on unboxed CPython ints"
    )

    _scopes = ("core/", "hardware/")

    def check(self, context: LintContext) -> Iterator[Violation]:
        if not context.in_package(*self._scopes):
            return
        yield from super().check(context)

    def check_unit(
        self, context: LintContext, analysis: UnitAnalysis
    ) -> Iterator[Violation]:
        numeric = _numeric(analysis)
        for node in analysis.cfg.code_nodes():
            if node.kind != "loop":
                continue
            stmt = node.stmt
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue
            env = numeric.env_before(node.id)
            iter_expr = stmt.iter
            iter_value = numeric.eval_value(iter_expr, env)
            if not iter_value.is_array:
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            target = stmt.target.id
            used = self._target_arithmetic(stmt, target)
            if used is None:
                continue
            trace: List[Tuple[int, int, str]] = []
            if isinstance(iter_expr, ast.Name):
                trace = numeric.def_chain(node.id, iter_expr.id)
            trace.append(
                (
                    stmt.lineno,
                    stmt.col_offset,
                    "scalar loop over an array: "
                    f"{_source_line(context, stmt.lineno)}",
                )
            )
            trace.append(
                (
                    used.lineno,
                    used.col_offset,
                    f"per-element arithmetic on {target!r}: "
                    f"{_source_line(context, used.lineno)}",
                )
            )
            yield self.flow_violation(
                context,
                stmt,
                f"Python-scalar loop over a numpy array does boxed "
                f"per-element arithmetic on {target!r}; use the "
                f"vectorized equivalent (ufunc/reduction) or .tolist() "
                f"once",
                trace,
            )

    @staticmethod
    def _target_arithmetic(
        stmt: ast.stmt, target: str
    ) -> Optional[ast.AST]:
        """The first statement in the loop body doing arithmetic with
        the loop variable (accumulation, binop, comparison)."""
        for sub in ast.walk(stmt):
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            uses_target = any(
                isinstance(name, ast.Name) and name.id == target
                for name in ast.walk(sub)
            )
            if not uses_target:
                continue
            if isinstance(sub, ast.AugAssign):
                return sub
            if isinstance(sub, (ast.BinOp, ast.Compare)):
                return sub
        return None


NUMERIC_RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        MixedSignednessRule(),
        CounterFloatComparisonRule(),
        CounterAccumulationRule(),
        AliasedViewMutationRule(),
        HotLoopAllocationRule(),
        ScalarLoopOverArrayRule(),
    )
}
