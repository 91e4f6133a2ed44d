"""Vectorized columnar scans: predicate masks over numpy column arrays.

The row-at-a-time executor evaluates compiled closures per row — clean,
but the scan+filter stage dominates exact-yield execution.  Here each
table column is lowered to a numpy array (plus a NULL mask) once and
cached until the table changes, and a scan's pushed-down predicates are
lowered once into a :class:`MaskProgram`: closures over the column
arrays whose conjunction is one boolean mask, its nonzero indices the
surviving row *positions*.  A program addresses each literal by its
text-order slot, so one program per query shape serves every query of
it (``executor.CountProgram``).  Every mask is evaluated by
:func:`filtered_positions`; where it returns ``None`` the executor
filters row at a time.  The same cached arrays answer what the executor
asks about positions without building a row: how many pairs an
equi-join matches and how many groups a GROUP BY makes.

SQL three-valued logic is preserved exactly: every boolean expression
evaluates to a pair of masks ``(true, unknown)``, mirroring the
row-path's ``True``/``None``/``False`` trichotomy, and only
definitely-true rows survive a filter.

The module declines, never answers wrongly; the caller then keeps the
pure-Python row path:

* without numpy (:data:`HAVE_NUMPY` false);
* for expression forms with no vector form (LIKE, scalar function
  calls: :class:`Unvectorizable` at lowering);
* for a value the arrays cannot take exactly, per evaluation: a type
  error the row path knows how to report, an integer literal or
  integer arithmetic past the float64-exact range (2**53; int64 wraps
  where Python ints grow).  Integer columns past that range are kept
  as object arrays, and join and group keys over object arrays are
  declined.

Equivalence with the row path is pinned down by the differential suites
in ``tests/sqlengine/test_vectorized.py``, ``test_positions.py`` and
``test_count_program.py``.
"""

from __future__ import annotations

import operator
import weakref
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.storage import Table

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI leg without numpy
    _np = None  # type: ignore[assignment]

HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "MaskProgram",
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
# Masks
# ----------------------------------------------------------------------
#
# Predicates are lowered once into closures over an :class:`_Env`.  Value
# closures return ``(values, nulls, bound)``; boolean ones
# ``(true_mask, unknown_mask)``.  Scalars (from literals) stay scalar
# until an operation mixes them with an array — numpy broadcasting does
# the rest.


class _Env(NamedTuple):
    """One evaluation's input: the (values, nulls, peak) of the
    columns read, the query's literal values (text order), the row
    count."""

    columns: List[Tuple[Any, Any, Optional[int]]]
    literals: Sequence[Any]
    count: int


_Value = Callable[[_Env], Tuple[Any, Any, Optional[int]]]
_Boolean = Callable[[_Env], Tuple[Any, Any]]

_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _literal(value: Any) -> Tuple[Any, Any, Optional[int]]:
    if value is None:
        return 0, True, None
    return value, False, _exact(abs(value)) if isinstance(value, int) else None


class MaskProgram:
    """One scan's predicates, lowered once; :func:`filtered_positions`
    evaluates their conjunction.

    ``slots`` maps ``id(literal node)`` to the literal's text-order slot
    in the values each evaluation is given (NULL is shape text, never a
    slot).  Raises :class:`Unvectorizable` for an expression form with
    no vector form (LIKE, a function call).
    """

    def __init__(
        self,
        predicates: Sequence[Expr],
        layout: RowLayout,
        schema: TableSchema,
        slots: Mapping[int, int],
    ) -> None:
        self._layout = layout
        self._schema = schema
        self._slots = slots
        #: The columns the predicates read, in first-read order.
        self.keys: List[str] = []
        self.tests = tuple(self._boolean(p) for p in predicates)

    def __len__(self) -> int:
        return len(self.tests)

    def _raw(self, literal: Literal) -> Callable[[_Env], Any]:
        if literal.value is None:
            return lambda env: None
        slot = self._slots[id(literal)]
        return lambda env: env.literals[slot]

    def _value(self, expr: Expr) -> _Value:
        """``bound`` is the magnitude an integer-valued result cannot
        exceed (``None`` for any other): int64 wraps where Python ints
        grow, and compares lossily with a float past 2**53."""
        if isinstance(expr, Literal):
            raw = self._raw(expr)
            return lambda env: _literal(raw(env))
        if isinstance(expr, ColumnRef):
            position = self._layout.position(expr.column, expr.table)
            key = self._schema.columns[position].key
            if key not in self.keys:
                self.keys.append(key)
            index = self.keys.index(key)
            return lambda env: env.columns[index]
        if isinstance(expr, UnaryOp) and expr.op == "-":
            operand = self._value(expr.operand)

            def negate(env: _Env) -> Tuple[Any, Any, Optional[int]]:
                values, nulls, bound = operand(env)
                return -values, nulls, bound

            return negate
        if not (isinstance(expr, BinaryOp) and expr.op in "+-*/%"):
            raise Unvectorizable(repr(expr))
        op, left_of, right_of = expr.op, self._value(expr.left), self._value(expr.right)

        def arithmetic(env: _Env) -> Tuple[Any, Any, Optional[int]]:
            left, left_nulls, left_bound = left_of(env)
            right, right_nulls, right_bound = right_of(env)
            nulls = left_nulls | right_nulls
            integers = left_bound is not None and right_bound is not None
            if op in "+-":
                bound = _exact(left_bound + right_bound) if integers else None
                return (left + right if op == "+" else left - right), nulls, bound
            if op == "*":
                bound = _exact(left_bound * right_bound) if integers else None
                return left * right, nulls, bound
            # Division and modulo NULL out on zero divisors, like the
            # row path.
            zero = right == 0
            safe = _np.where(zero, 1, right) if zero is not False else right
            if op == "/":
                return left / safe, nulls | zero, None
            # |a % b| < |b|
            return left % safe, nulls | zero, right_bound if integers else None

        return arithmetic

    def _boolean(self, expr: Expr) -> _Boolean:
        if isinstance(expr, BinaryOp) and expr.op in ("and", "or"):
            left_of, right_of = self._boolean(expr.left), self._boolean(expr.right)
            conjunction = expr.op == "and"

            def connect(env: _Env) -> Tuple[Any, Any]:
                lt, lu = left_of(env)
                rt, ru = right_of(env)
                if conjunction:
                    true, false = lt & rt, (~lt & ~lu) | (~rt & ~ru)
                else:
                    true, false = lt | rt, (~lt & ~lu) & (~rt & ~ru)
                return true, ~true & ~false

            return connect
        if isinstance(expr, BinaryOp) and expr.op in _COMPARISONS:
            compare = _COMPARISONS[expr.op]
            left_of, right_of = self._value(expr.left), self._value(expr.right)

            def comparison(env: _Env) -> Tuple[Any, Any]:
                left, left_nulls, _ = left_of(env)
                right, right_nulls, _ = right_of(env)
                raw = compare(left, right)
                unknown = _mask(left_nulls | right_nulls, env.count)
                return _mask(_as_bool(raw), env.count) & ~unknown, unknown

            return comparison
        if isinstance(expr, UnaryOp) and expr.op == "not":
            operand = self._boolean(expr.operand)

            def negation(env: _Env) -> Tuple[Any, Any]:
                true, unknown = operand(env)
                return ~true & ~unknown, unknown

            return negation
        if isinstance(expr, BetweenOp):
            parts = [self._value(part) for part in (expr.operand, expr.low, expr.high)]
            negated = expr.negated

            def between(env: _Env) -> Tuple[Any, Any]:
                (values, nulls, _), (low, low_nulls, _), (high, high_nulls, _) = (
                    part(env) for part in parts
                )
                unknown = _mask(nulls | low_nulls | high_nulls, env.count)
                inside = _as_bool((low <= values) & (values <= high))
                if negated:
                    inside = ~inside
                return _mask(inside, env.count) & ~unknown, unknown

            return between
        if isinstance(expr, IsNullOp):
            operand_of, negated = self._value(expr.operand), expr.negated

            def is_null(env: _Env) -> Tuple[Any, Any]:
                nulls = _mask(operand_of(env)[1], env.count)
                return (~nulls if negated else nulls), _np.zeros(env.count, dtype=bool)

            return is_null
        if not isinstance(expr, InOp):
            raise Unvectorizable(repr(expr))
        operand_of, negated = self._value(expr.operand), expr.negated
        items = []
        for item in expr.items:
            if not isinstance(item, Literal):
                raise Unvectorizable(repr(item))
            items.append(self._raw(item))

        def contains(env: _Env) -> Tuple[Any, Any]:
            values, nulls, _ = operand_of(env)
            found = _np.zeros(env.count, dtype=bool)
            candidates = [item(env) for item in items]
            for candidate in candidates:
                if candidate is not None:
                    found = found | _mask(_as_bool(values == candidate), env.count)
            unknown = _mask(nulls, env.count)
            if None in candidates:
                # value IN (..., NULL): misses become UNKNOWN, not FALSE.
                unknown = unknown | ~found
            if negated:
                return ~found & ~unknown, unknown
            return found & ~unknown, unknown

        return contains


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


def filtered_positions(
    table: Table,
    program: Optional[MaskProgram],
    literals: Sequence[Any],
    among: Optional[Any] = None,
) -> Optional[Any]:
    """Ascending positions of the rows of ``table`` (or of those at
    ``among``) that every predicate of ``program`` holds for, or
    ``None``: numpy absent, no predicate, or a value the arrays cannot
    take exactly (a type error the row path knows how to report, an
    integer past 2**53).  ``literals`` are the query's values by slot.

    Every mask is evaluated here, so wherever this returns ``None`` the
    scan runs row at a time.
    """
    if not HAVE_NUMPY or not program:
        return None
    columns = [
        (vector.values, vector.nulls, vector.peak)
        if among is None
        else (vector.values[among], vector.nulls[among], vector.peak)
        for vector in (_column_vector(table, key) for key in program.keys)
    ]
    env = _Env(columns, literals, table.row_count if among is None else len(among))
    mask: Optional[Any] = None
    try:
        for test in program.tests:
            true = test(env)[0]
            mask = true if mask is None else mask & true
    except (Unvectorizable, TypeError, ValueError):
        return None
    hits = _np.nonzero(mask)[0]
    return hits if among is None else _np.asarray(among)[hits]


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
    hold (NULL is a group of its own), or ``None`` as above.

    One lexicographic sort over every column's values and NULL mask (a
    NULL's fill value is told apart from the same value by its mask);
    each place where a sorted key changes starts a group.
    """
    if not HAVE_NUMPY:
        return None
    keys: List[Any] = []
    for column in columns:
        found = _keys_at(table, column, positions)
        if found is None:
            return None
        keys.extend(found)
    if not keys or not len(keys[0]):
        return 0
    order = _np.lexsort(keys)
    starts = _np.zeros(len(order) - 1, dtype=bool)
    for key in keys:
        ordered = key[order]
        starts |= ordered[1:] != ordered[:-1]
    return int(starts.sum()) + 1
