"""Expression compilation and evaluation with SQL three-valued logic.

Expressions are compiled once per query into Python closures operating on
flat row tuples; a :class:`RowLayout` maps qualified and unqualified column
names to tuple positions.  NULL propagates through comparisons and
arithmetic; AND/OR/NOT follow SQL's three-valued truth tables with ``None``
standing in for UNKNOWN.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionError, PlanError
from repro.sqlengine.ast_nodes import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InOp,
    IsNullOp,
    Literal,
    UnaryOp,
)

RowFunc = Callable[[Tuple[Any, ...]], Any]


class RowLayout:
    """Name-to-position mapping for the flat row tuples of one query scope.

    Each column is addressable as ``binding.column`` and, when unambiguous,
    as the bare ``column``.
    """

    def __init__(self) -> None:
        self._qualified: Dict[Tuple[str, str], int] = {}
        self._unqualified: Dict[str, Optional[int]] = {}
        self._width = 0
        self._slots: List[Tuple[str, str]] = []

    @property
    def width(self) -> int:
        return self._width

    @property
    def slots(self) -> List[Tuple[str, str]]:
        """(binding, column) per tuple position."""
        return list(self._slots)

    def add(self, binding: str, column: str) -> int:
        """Register one column; returns its tuple position."""
        key = (binding.lower(), column.lower())
        if key in self._qualified:
            raise PlanError(
                f"duplicate column {binding}.{column} in row layout"
            )
        position = self._width
        self._qualified[key] = position
        bare = column.lower()
        if bare in self._unqualified:
            # Mark ambiguous: bare-name lookup now fails.
            self._unqualified[bare] = None
        else:
            self._unqualified[bare] = position
        self._slots.append((binding, column))
        self._width += 1
        return position

    def position(self, column: str, binding: Optional[str] = None) -> int:
        """Tuple position for a column reference.

        Raises:
            PlanError: unknown or ambiguous reference.
        """
        if binding is not None:
            key = (binding.lower(), column.lower())
            if key not in self._qualified:
                raise PlanError(f"unknown column {binding}.{column}")
            return self._qualified[key]
        pos = self._unqualified.get(column.lower(), -1)
        if pos == -1:
            raise PlanError(f"unknown column {column}")
        if pos is None:
            raise PlanError(f"ambiguous column {column}")
        return pos

    def has(self, column: str, binding: Optional[str] = None) -> bool:
        try:
            self.position(column, binding)
            return True
        except PlanError:
            return False


def sql_and(left: Any, right: Any) -> Any:
    """SQL three-valued AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Any, right: Any) -> Any:
    """SQL three-valued OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: Any) -> Any:
    """SQL three-valued NOT."""
    if value is None:
        return None
    return not value


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (%, _) into a compiled regex."""
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)


def compile_expr(expr: Expr, layout: RowLayout) -> RowFunc:
    """Compile ``expr`` to a closure over row tuples.

    Aggregate function calls must be rewritten away before compilation
    (the planner replaces them with column references into the aggregated
    layout); encountering one here is a planning bug.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ColumnRef):
        pos = layout.position(expr.column, expr.table)
        return lambda row: row[pos]

    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, layout)
        if expr.op == "not":
            return lambda row: sql_not(operand(row))
        if expr.op == "-":
            def negate(row: Tuple[Any, ...]) -> Any:
                value = operand(row)
                return None if value is None else -value
            return negate
        raise PlanError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, layout)

    if isinstance(expr, BetweenOp):
        operand = compile_expr(expr.operand, layout)
        low = compile_expr(expr.low, layout)
        high = compile_expr(expr.high, layout)
        negated = expr.negated

        def between(row: Tuple[Any, ...]) -> Any:
            value = operand(row)
            lo = low(row)
            hi = high(row)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return not result if negated else result

        return between

    if isinstance(expr, InOp):
        operand = compile_expr(expr.operand, layout)
        items = [compile_expr(item, layout) for item in expr.items]
        negated = expr.negated

        def contains(row: Tuple[Any, ...]) -> Any:
            value = operand(row)
            if value is None:
                return None
            candidates = [item(row) for item in items]
            result = value in [c for c in candidates if c is not None]
            if not result and any(c is None for c in candidates):
                return None
            return not result if negated else result

        return contains

    if isinstance(expr, IsNullOp):
        operand = compile_expr(expr.operand, layout)
        negated = expr.negated

        def is_null(row: Tuple[Any, ...]) -> bool:
            result = operand(row) is None
            return not result if negated else result

        return is_null

    if isinstance(expr, FuncCall):
        from repro.sqlengine.functions import (
            is_aggregate_name,
            is_scalar_function,
            scalar_function,
        )

        if is_aggregate_name(expr.name):
            raise PlanError(
                f"aggregate {expr.name!r} cannot be evaluated per-row; "
                "the planner must rewrite it"
            )
        if not is_scalar_function(expr.name):
            raise PlanError(f"unknown function {expr.name!r}")
        if expr.star or expr.distinct:
            raise PlanError(
                f"scalar function {expr.name!r} takes plain arguments"
            )
        min_args, max_args, implementation = scalar_function(expr.name)
        if not min_args <= len(expr.args) <= max_args:
            raise PlanError(
                f"{expr.name!r} expects {min_args}"
                + (f"-{max_args}" if max_args != min_args else "")
                + f" arguments, got {len(expr.args)}"
            )
        arg_funcs = [compile_expr(arg, layout) for arg in expr.args]

        def call(row: Tuple[Any, ...]) -> Any:
            values = [func(row) for func in arg_funcs]
            if any(value is None for value in values):
                return None
            try:
                return implementation(*values)
            except (TypeError, ValueError) as exc:
                raise ExecutionError(
                    f"{expr.name}({values!r}) failed: {exc}"
                ) from exc

        return call

    raise PlanError(f"cannot compile expression {expr!r}")


def _compile_binary(expr: BinaryOp, layout: RowLayout) -> RowFunc:
    op = expr.op
    if op == "and":
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        return lambda row: sql_and(left(row), right(row))
    if op == "or":
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        return lambda row: sql_or(left(row), right(row))
    if op == "like":
        left = compile_expr(expr.left, layout)
        if not isinstance(expr.right, Literal) or not isinstance(
            expr.right.value, str
        ):
            raise PlanError("LIKE requires a string literal pattern")
        regex = like_to_regex(expr.right.value)

        def like(row: Tuple[Any, ...]) -> Any:
            value = left(row)
            if value is None:
                return None
            if not isinstance(value, str):
                raise ExecutionError(
                    f"LIKE applied to non-string value {value!r}"
                )
            return regex.match(value) is not None

        return like
    if op in _COMPARATORS:
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        compare = _COMPARATORS[op]

        def comparison(row: Tuple[Any, ...]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return compare(a, b)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {a!r} and {b!r}: {exc}"
                ) from exc

        return comparison
    if op in _ARITHMETIC:
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        apply = _ARITHMETIC[op]

        def arithmetic(row: Tuple[Any, ...]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return apply(a, b)
            except TypeError as exc:
                raise ExecutionError(
                    f"arithmetic error on {a!r} {op} {b!r}: {exc}"
                ) from exc

        return arithmetic
    if op == "/":
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)

        def divide(row: Tuple[Any, ...]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if b == 0:
                return None  # SQL engines commonly NULL-out, we follow.
            return a / b

        return divide
    if op == "%":
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)

        def modulo(row: Tuple[Any, ...]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None or b == 0:
                return None
            return a % b

        return modulo
    raise PlanError(f"unknown binary operator {op!r}")


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]
