"""The abstract-value lattice for the whole-project dataflow analysis.

Every expression the analysis tracks lives in a small flat lattice of
*currency kinds* mirroring :mod:`repro.core.units`:

* :attr:`AbstractUnit.RAW` — raw byte counts (sizes, ledger byte
  totals);
* :attr:`AbstractUnit.WEIGHTED` — link-weighted costs (bytes × the
  per-link ``f`` factor of eq. 1);
* :attr:`AbstractUnit.YIELD` — per-query result bytes attributed to an
  object.  Yields are raw-byte-denominated, so they are *compatible*
  with :attr:`AbstractUnit.RAW` and conflict with
  :attr:`AbstractUnit.WEIGHTED`;
* :attr:`AbstractUnit.WEIGHT` — a per-byte link weight (the conversion
  factor, not a currency);
* :attr:`AbstractUnit.MONEY` — money-like floats (prices, budgets in
  dollars).  Nothing in the WAN economy is money; mixing it with bytes
  or costs is always a bug;
* :attr:`AbstractUnit.UNKNOWN` — top: no information.

On top of the unit kinds, function summaries carry two effect bits —
"tainted by nondeterminism" and "mutates shared policy state" — that
are propagated separately (see :mod:`repro.analysis.flow.summaries`).

Symbolic expressions (``UExpr``) are small nested lists:

* ``["k", "<UNIT>"]`` — a concrete unit constant;
* ``["p", i]`` — the unit of parameter ``i`` of the enclosing function;
* ``["c", i]`` — the unit returned by the enclosing function's call
  site ``i`` (an index into its recorded call list);
* ``["mul", a, b]`` / ``["div", a, b]`` — unit algebra over the
  sanctioned conversion shapes (bytes × weight = cost, cost / weight =
  bytes, cost / bytes = weight);
* ``["merge", a, b]`` — the join of two branches (add/sub results,
  conditional expressions);
* ``["?"]`` — unknown.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List

#: A symbolic unit expression (see the module docstring).
UExpr = List[Any]


class AbstractUnit(enum.Enum):
    """One point of the currency-kind lattice."""

    RAW = "raw bytes"
    WEIGHTED = "weighted cost"
    YIELD = "yield bytes"
    WEIGHT = "link weight"
    MONEY = "money"
    UNKNOWN = "unknown"


#: Units denominated in raw bytes (mutually compatible).
RAW_LIKE = frozenset({AbstractUnit.RAW, AbstractUnit.YIELD})

_RAW_EXACT = frozenset(
    {"size", "sizes", "num_bytes", "byte_size", "nbytes", "capacity"}
)
_RAW_SUFFIXES = ("_bytes", "_size", "_sizes")
_YIELD_EXACT = frozenset({"yields"})
_YIELD_SUFFIXES = ("_yield", "_yields")
_WEIGHTED_EXACT = frozenset({"cost", "costs"})
_WEIGHTED_SUFFIXES = ("_cost", "_costs")
_WEIGHT_EXACT = frozenset({"weight", "weights"})
_WEIGHT_SUFFIXES = ("_weight", "_weights")
_MONEY_EXACT = frozenset({"dollars", "price", "prices", "budget_usd"})
_MONEY_SUFFIXES = ("_usd", "_dollars", "_price")


def classify_name(name: str) -> AbstractUnit:
    """Unit implied by an identifier, by the repo's naming conventions."""
    name = name.lower().lstrip("_")
    if name in _WEIGHTED_EXACT or name.endswith(_WEIGHTED_SUFFIXES):
        return AbstractUnit.WEIGHTED
    if name in _RAW_EXACT or name.endswith(_RAW_SUFFIXES):
        return AbstractUnit.RAW
    if name in _YIELD_EXACT or name.endswith(_YIELD_SUFFIXES):
        return AbstractUnit.YIELD
    if name in _WEIGHT_EXACT or name.endswith(_WEIGHT_SUFFIXES):
        return AbstractUnit.WEIGHT
    if name in _MONEY_EXACT or name.endswith(_MONEY_SUFFIXES):
        return AbstractUnit.MONEY
    return AbstractUnit.UNKNOWN


#: Annotation names with a declared unit (the repro.core.units types).
ANNOTATION_UNITS: Dict[str, AbstractUnit] = {
    "RawBytes": AbstractUnit.RAW,
    "AnyRawBytes": AbstractUnit.RAW,
    "WeightedCost": AbstractUnit.WEIGHTED,
    "AnyCost": AbstractUnit.WEIGHTED,
    "Yield": AbstractUnit.YIELD,
    "AnyYield": AbstractUnit.YIELD,
}

#: What a call returns when its callee is outside the analysed project
#: (a lone file importing :mod:`repro.core.units`), by bare callee name:
#: the unit types construct their own kind and the sanctioned
#: converters produce their declared one.  Any other name falls back
#: to :func:`classify_name`.
CALL_RESULT_UNITS: Dict[str, AbstractUnit] = {
    **ANNOTATION_UNITS,
    "weigh": AbstractUnit.WEIGHTED,
    "unweigh": AbstractUnit.YIELD,
    "size_of": AbstractUnit.RAW,
}


def merge(left: AbstractUnit, right: AbstractUnit) -> AbstractUnit:
    """Join of two lattice points (compatible kinds keep the sharper)."""
    if left is right:
        return left
    if left is AbstractUnit.UNKNOWN:
        return right
    if right is AbstractUnit.UNKNOWN:
        return left
    if left in RAW_LIKE and right in RAW_LIKE:
        return AbstractUnit.RAW
    return AbstractUnit.UNKNOWN


def mixes(left: AbstractUnit, right: AbstractUnit) -> bool:
    """Whether combining/comparing the two kinds is a unit-mixing bug."""
    pair = {left, right}
    if AbstractUnit.WEIGHTED in pair and pair & RAW_LIKE:
        return True
    if AbstractUnit.MONEY in pair and pair & (
        RAW_LIKE | {AbstractUnit.WEIGHTED}
    ):
        return True
    return False


def multiply(left: AbstractUnit, right: AbstractUnit) -> AbstractUnit:
    """Result kind of ``left * right`` under the sanctioned algebra."""
    pair = {left, right}
    if pair & RAW_LIKE and AbstractUnit.WEIGHT in pair:
        return AbstractUnit.WEIGHTED  # bytes x weight = cost
    return merge(left, right)


def divide(left: AbstractUnit, right: AbstractUnit) -> AbstractUnit:
    """Result kind of ``left / right`` under the sanctioned algebra."""
    if left is AbstractUnit.WEIGHTED and right in RAW_LIKE:
        return AbstractUnit.WEIGHT  # cost / bytes = per-byte weight
    if left is AbstractUnit.WEIGHTED and right is AbstractUnit.WEIGHT:
        return AbstractUnit.RAW  # cost / weight = bytes
    if left is right:
        return AbstractUnit.UNKNOWN  # same-kind ratio is dimensionless
    if right is AbstractUnit.UNKNOWN:
        return left
    return AbstractUnit.UNKNOWN


# -- UExpr constructors ------------------------------------------------


def u_const(unit: AbstractUnit) -> UExpr:
    return ["k", unit.name]


def u_param(index: int) -> UExpr:
    return ["p", index]


def u_call(call_index: int) -> UExpr:
    return ["c", call_index]


def u_mul(left: UExpr, right: UExpr) -> UExpr:
    return ["mul", left, right]


def u_div(left: UExpr, right: UExpr) -> UExpr:
    return ["div", left, right]


def u_merge(left: UExpr, right: UExpr) -> UExpr:
    if left == right:
        return left
    return ["merge", left, right]


def u_unknown() -> UExpr:
    return ["?"]
