"""Vectorized columnar scans: predicate masks over numpy column arrays.

The row-at-a-time executor evaluates compiled closures per row — clean,
but the scan+filter stage dominates exact-yield execution on large
tables.  This module evaluates a scan's pushed-down predicates over
whole columns at once: each table column is lowered to a numpy array
(plus a NULL mask) once and cached until the table changes, and the
conjunction of predicates becomes one boolean mask whose nonzero
indices are the surviving row *positions*.  The same cached arrays
answer what the executor asks about positions without building a row:
how many pairs an equi-join matches and how many groups a GROUP BY
makes.

SQL three-valued logic is preserved exactly: every boolean expression
evaluates to a pair of masks ``(true, unknown)``, mirroring the
row-path's ``True``/``None``/``False`` trichotomy, and only
definitely-true rows survive a filter — identical to
``executor._filter``'s ``is True`` check.

The module degrades gracefully, never wrongly:

* without numpy (:data:`HAVE_NUMPY` false) every entry point returns
  ``None`` and the caller keeps the pure-Python row path;
* expression forms that do not vectorize (LIKE, scalar function calls)
  raise :class:`Unvectorizable` internally and the whole scan falls
  back;
* integer columns whose magnitude exceeds the float64-exact range
  (2**53) are kept as object arrays so comparisons never lose
  precision, and integer arithmetic whose result could leave that
  range (``id * 9223372036854775807``: int64 wraps where Python ints
  grow) is declined;
* join and group keys over object arrays are declined.

Equivalence with the row path is pinned down by the differential suite
in ``tests/sqlengine/test_vectorized.py``.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sqlengine.ast_nodes import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Expr,
    InOp,
    IsNullOp,
    Literal,
    UnaryOp,
)
from repro.sqlengine.expressions import RowLayout
from repro.sqlengine.storage import Table

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI leg without numpy
    _np = None  # type: ignore[assignment]

HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "Unvectorizable",
    "equi_join_count",
    "filtered_positions",
    "group_count",
]

#: Largest integer float64 represents exactly; beyond it int columns
#: stay as object arrays rather than risk lossy comparisons, and integer
#: arithmetic that could pass it is not vectorized.
_FLOAT64_EXACT = 2 ** 53


class Unvectorizable(Exception):
    """Internal: this expression has no vector form; use the row path."""


class _ColumnVector:
    """One column lowered to arrays: values plus a NULL mask.

    ``peak`` is the largest magnitude of an int64 column (``None`` for
    float and object arrays): what integer arithmetic over it is
    bounded by.
    """

    __slots__ = ("values", "nulls", "peak")

    def __init__(
        self, values: Any, nulls: Any, peak: Optional[int] = None
    ) -> None:
        self.values = values
        self.nulls = nulls
        self.peak = peak


# Per-table cache of lowered columns, invalidated by Table.version.
# Keyed weakly so dropping a catalog drops its arrays.
_VECTOR_CACHE: "weakref.WeakKeyDictionary[Table, Tuple[int, Dict[str, _ColumnVector]]]" = (
    weakref.WeakKeyDictionary()
)


def _lower_column(values: Sequence[Any]) -> _ColumnVector:
    """Build the (values, nulls) arrays for one column."""
    nulls = _np.fromiter(
        (value is None for value in values), dtype=bool, count=len(values)
    )
    has_null = bool(nulls.any())
    kinds = {type(value) for value in values if value is not None}
    if kinds <= {int}:
        peak = max(
            (abs(value) for value in values if value is not None),
            default=0,
        )
        if peak <= _FLOAT64_EXACT:
            filled = (
                [0 if value is None else value for value in values]
                if has_null
                else values
            )
            array = _np.fromiter(
                filled, dtype=_np.int64, count=len(values)
            )
            return _ColumnVector(array, nulls, peak)
    elif kinds <= {int, float}:
        peak = max(
            (
                abs(value)
                for value in values
                if isinstance(value, int)
            ),
            default=0,
        )
        if peak <= _FLOAT64_EXACT:
            filled = (
                [0.0 if value is None else value for value in values]
                if has_null
                else values
            )
            array = _np.fromiter(
                filled, dtype=_np.float64, count=len(values)
            )
            return _ColumnVector(array, nulls)
    array = _np.empty(len(values), dtype=object)
    for position, value in enumerate(values):
        array[position] = value
    return _ColumnVector(array, nulls)


def _table_vectors(table: Table) -> Dict[str, _ColumnVector]:
    cached = _VECTOR_CACHE.get(table)
    if cached is not None and cached[0] == table.version:
        return cached[1]
    vectors: Dict[str, _ColumnVector] = {}
    _VECTOR_CACHE[table] = (table.version, vectors)
    return vectors


def _column_vector(table: Table, key: str) -> _ColumnVector:
    vectors = _table_vectors(table)
    vector = vectors.get(key)
    if vector is None:
        vector = _lower_column(table.column_values(key))
        vectors[key] = vector
    return vector


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
#
# Value expressions evaluate to (values, nulls); boolean expressions to
# (true_mask, unknown_mask).  Scalars (from literals) stay scalar until
# an operation mixes them with an array — numpy broadcasting does the
# rest.


class _Evaluator:
    def __init__(self, table: Table, layout: RowLayout) -> None:
        self._table = table
        self._layout = layout
        self._count = table.row_count

    def _false(self) -> Any:
        return _np.zeros(self._count, dtype=bool)

    def value(self, expr: Expr) -> Tuple[Any, Any]:
        """Evaluate a value expression to (values, null-mask)."""
        values, nulls, _bound = self._bounded(expr)
        return values, nulls

    def _bounded(self, expr: Expr) -> Tuple[Any, Any, Optional[int]]:
        """(values, null-mask, bound): ``bound`` is the magnitude an
        integer-valued result cannot exceed, ``None`` for any other.

        int64 wraps where Python ints grow, and an int64 past 2**53
        compares lossily with a float, so an integer that could leave
        the float64-exact range is not vectorized.
        """
        if isinstance(expr, Literal):
            if expr.value is None:
                return 0, True, None
            if isinstance(expr.value, int):
                return expr.value, False, _exact(abs(expr.value))
            return expr.value, False, None
        if isinstance(expr, ColumnRef):
            position = self._layout.position(expr.column, expr.table)
            key = self._table.schema.columns[position].key
            vector = _column_vector(self._table, key)
            return vector.values, vector.nulls, vector.peak
        if isinstance(expr, UnaryOp) and expr.op == "-":
            values, nulls, bound = self._bounded(expr.operand)
            return -values, nulls, bound
        if isinstance(expr, BinaryOp) and expr.op in "+-*/%":
            left, left_nulls, left_bound = self._bounded(expr.left)
            right, right_nulls, right_bound = self._bounded(expr.right)
            nulls = left_nulls | right_nulls
            integers = left_bound is not None and right_bound is not None
            if expr.op in "+-":
                bound = _exact(left_bound + right_bound) if integers else None
                result = left + right if expr.op == "+" else left - right
                return result, nulls, bound
            if expr.op == "*":
                bound = _exact(left_bound * right_bound) if integers else None
                return left * right, nulls, bound
            # Division and modulo NULL out on zero divisors, like the
            # row path.
            zero = right == 0
            safe = _np.where(zero, 1, right) if zero is not False else right
            if expr.op == "/":
                return left / safe, nulls | zero, None
            # |a % b| < |b|
            return left % safe, nulls | zero, right_bound if integers else None
        raise Unvectorizable(repr(expr))

    def boolean(self, expr: Expr) -> Tuple[Any, Any]:
        """Evaluate a predicate to (true-mask, unknown-mask)."""
        if isinstance(expr, BinaryOp):
            op = expr.op
            if op == "and":
                lt, lu = self.boolean(expr.left)
                rt, ru = self.boolean(expr.right)
                true = lt & rt
                false = (~lt & ~lu) | (~rt & ~ru)
                return true, ~true & ~false
            if op == "or":
                lt, lu = self.boolean(expr.left)
                rt, ru = self.boolean(expr.right)
                true = lt | rt
                false = (~lt & ~lu) & (~rt & ~ru)
                return true, ~true & ~false
            if op in ("=", "<>", "<", "<=", ">", ">="):
                return self._compare(expr)
            raise Unvectorizable(repr(expr))
        if isinstance(expr, UnaryOp) and expr.op == "not":
            true, unknown = self.boolean(expr.operand)
            return ~true & ~unknown, unknown
        if isinstance(expr, BetweenOp):
            values, nulls = self.value(expr.operand)
            low, low_nulls = self.value(expr.low)
            high, high_nulls = self.value(expr.high)
            unknown = _mask(nulls | low_nulls | high_nulls, self._count)
            inside = _as_bool((low <= values) & (values <= high))
            if expr.negated:
                inside = ~inside
            return _mask(inside, self._count) & ~unknown, unknown
        if isinstance(expr, InOp):
            return self._contains(expr)
        if isinstance(expr, IsNullOp):
            values_nulls = self.value(expr.operand)[1]
            nulls = _mask(values_nulls, self._count)
            true = ~nulls if expr.negated else nulls
            return true, self._false()
        raise Unvectorizable(repr(expr))

    def _compare(self, expr: BinaryOp) -> Tuple[Any, Any]:
        left, left_nulls = self.value(expr.left)
        right, right_nulls = self.value(expr.right)
        op = expr.op
        if op == "=":
            raw = left == right
        elif op == "<>":
            raw = left != right
        elif op == "<":
            raw = left < right
        elif op == "<=":
            raw = left <= right
        elif op == ">":
            raw = left > right
        else:
            raw = left >= right
        unknown = _mask(left_nulls | right_nulls, self._count)
        return _mask(_as_bool(raw), self._count) & ~unknown, unknown

    def _contains(self, expr: InOp) -> Tuple[Any, Any]:
        values, nulls = self.value(expr.operand)
        candidates: List[Any] = []
        has_null_item = False
        for item in expr.items:
            if not isinstance(item, Literal):
                raise Unvectorizable(repr(item))
            if item.value is None:
                has_null_item = True
            else:
                candidates.append(item.value)
        found = self._false()
        for candidate in candidates:
            found = found | _mask(
                _as_bool(values == candidate), self._count
            )
        unknown = _mask(nulls, self._count)
        if has_null_item:
            # value IN (..., NULL): misses become UNKNOWN, not FALSE.
            unknown = unknown | ~found
        true = found & ~unknown
        if expr.negated:
            return ~found & ~unknown, unknown
        return true, unknown


def _exact(bound: int) -> int:
    """``bound`` if every integer within it is float64-exact."""
    if bound > _FLOAT64_EXACT:
        raise Unvectorizable("integer beyond the float64-exact range")
    return bound


def _as_bool(raw: Any) -> Any:
    """Comparisons over object arrays yield object dtype; normalize."""
    if isinstance(raw, _np.ndarray) and raw.dtype == object:
        return raw.astype(bool)
    return raw


def _mask(value: Any, count: int) -> Any:
    """Broadcast scalar booleans up to a full mask."""
    if isinstance(value, _np.ndarray):
        return value
    return (
        _np.ones(count, dtype=bool)
        if value
        else _np.zeros(count, dtype=bool)
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def filtered_positions(
    table: Table,
    predicates: Sequence[Expr],
    layout: RowLayout,
) -> Optional[Any]:
    """Positions of the rows of ``table`` satisfying every predicate
    (an ascending index array), or ``None``.

    ``None`` means "not vectorizable here" — numpy missing, an
    unsupported expression form, or a type error the row path knows how
    to report; the caller must then run the ordinary scan+filter.  A
    returned array is exact: the rows ``_filter(materialized_rows(),
    predicates)`` keeps, in the same order.
    """
    if not HAVE_NUMPY or not predicates or table.row_count == 0:
        return None
    try:
        evaluator = _Evaluator(table, layout)
        mask: Optional[Any] = None
        for predicate in predicates:
            true, _unknown = evaluator.boolean(predicate)
            mask = true if mask is None else mask & true
    except Unvectorizable:
        return None
    except (TypeError, ValueError):
        # Mixed-type comparisons the row path reports as execution
        # errors; let it produce the message.
        return None
    return _np.nonzero(mask)[0]


def _keys_at(
    table: Table, column: str, positions: Optional[Any]
) -> Optional[Tuple[Any, Any]]:
    """(values, null-mask) of one column at ``positions`` (``None``:
    every row), or ``None`` for a column kept as an object array."""
    vector = _column_vector(table, column.lower())
    if vector.values.dtype == object:
        return None
    if positions is None:
        return vector.values, vector.nulls
    return vector.values[positions], vector.nulls[positions]


def equi_join_count(
    left: Tuple[Table, str, Optional[Any]],
    right: Tuple[Table, str, Optional[Any]],
) -> Optional[int]:
    """How many pairs ``left.key = right.key`` matches, or ``None``.

    Each side is ``(table, key column, surviving positions)``.  NULL
    never joins; the count is the sum over keys of count_left(k) *
    count_right(k), read off the smaller side sorted.  ``None`` when
    numpy is missing or a key column is an object array.
    """
    if not HAVE_NUMPY:
        return None
    sides = []
    for table, column, positions in (left, right):
        keys = _keys_at(table, column, positions)
        if keys is None:
            return None
        values, nulls = keys
        sides.append(values[~nulls])
    small, large = sorted(sides, key=len)
    small = _np.sort(small)
    matches = _np.searchsorted(small, large, "right") - _np.searchsorted(
        small, large, "left"
    )
    return int(matches.sum())


def group_count(
    table: Table, columns: Sequence[str], positions: Optional[Any]
) -> Optional[int]:
    """How many distinct ``columns`` tuples the rows at ``positions``
    hold (NULL is a group of its own), or ``None`` as above."""
    if not HAVE_NUMPY:
        return None
    codes = _np.zeros(0, dtype=_np.int64)
    for position, column in enumerate(columns):
        keys = _keys_at(table, column, positions)
        if keys is None:
            return None
        values, nulls = keys
        distinct, column_codes = _np.unique(values, return_inverse=True)
        column_codes = _np.where(nulls, len(distinct), column_codes)
        if position:
            # ``codes`` are dense, so the product of the two code ranges
            # stays far inside int64.
            column_codes = codes * (len(distinct) + 1) + column_codes
        # Renumber densely: a NULL's fill value may be no one's value.
        codes = _np.unique(column_codes, return_inverse=True)[1]
    return int(codes.max()) + 1 if len(codes) else 0
