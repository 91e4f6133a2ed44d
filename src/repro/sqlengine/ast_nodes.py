"""AST node definitions for the SQL subset.

Expressions and statements are plain frozen dataclasses; the planner walks
them, and the workload analyzers (containment, locality) inspect them to
extract referenced tables/columns and predicate structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A constant value (int, float, str, or None for NULL)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally qualified: ``alias.column``."""

    column: str
    table: Optional[str] = None

    def display(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(frozen=True)
class BinaryOp:
    """Binary arithmetic or comparison: ``left op right``.

    op is one of: ``+ - * / % = <> < <= > >= and or like``.
    """

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    """Unary operation: ``not expr`` or ``-expr``."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class BetweenOp:
    """``expr [NOT] BETWEEN low AND high``."""

    operand: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class InOp:
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: "Expr"
    items: Tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNullOp:
    """``expr IS [NOT] NULL``."""

    operand: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class FuncCall:
    """Aggregate or scalar function call.

    ``COUNT(*)`` is represented with ``star=True`` and no args.
    """

    name: str
    args: Tuple["Expr", ...] = ()
    star: bool = False
    distinct: bool = False


Expr = Union[
    Literal, ColumnRef, BinaryOp, UnaryOp, BetweenOp, InOp, IsNullOp, FuncCall
]

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate(expr: Expr) -> bool:
    """True when ``expr`` contains an aggregate function call."""
    if isinstance(expr, FuncCall):
        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            return True
        return any(is_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinaryOp):
        return is_aggregate(expr.left) or is_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return is_aggregate(expr.operand)
    if isinstance(expr, BetweenOp):
        return (
            is_aggregate(expr.operand)
            or is_aggregate(expr.low)
            or is_aggregate(expr.high)
        )
    if isinstance(expr, InOp):
        return is_aggregate(expr.operand) or any(
            is_aggregate(item) for item in expr.items
        )
    if isinstance(expr, IsNullOp):
        return is_aggregate(expr.operand)
    return False


def column_refs(expr: Expr) -> List[ColumnRef]:
    """All :class:`ColumnRef` nodes inside ``expr`` (document order)."""
    refs: List[ColumnRef] = []
    _collect_refs(expr, refs)
    return refs


def _collect_refs(expr: Expr, out: List[ColumnRef]) -> None:
    if isinstance(expr, ColumnRef):
        out.append(expr)
    elif isinstance(expr, BinaryOp):
        _collect_refs(expr.left, out)
        _collect_refs(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_refs(expr.operand, out)
    elif isinstance(expr, BetweenOp):
        _collect_refs(expr.operand, out)
        _collect_refs(expr.low, out)
        _collect_refs(expr.high, out)
    elif isinstance(expr, InOp):
        _collect_refs(expr.operand, out)
        for item in expr.items:
            _collect_refs(item, out)
    elif isinstance(expr, IsNullOp):
        _collect_refs(expr.operand, out)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            _collect_refs(arg, out)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    """One item of the select list: expression plus optional alias.

    ``star=True`` with ``table=None`` is ``SELECT *``; with a table it is
    ``alias.*``.
    """

    expr: Optional[Expr] = None
    alias: Optional[str] = None
    star: bool = False
    table: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause table with an optional alias."""

    table: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this relation is known by in the query scope."""
        return self.alias if self.alias else self.table


@dataclass(frozen=True)
class Join:
    """An explicit ``JOIN ... ON`` clause attached to the FROM list."""

    table: TableRef
    condition: Expr
    kind: str = "inner"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT query.

    Implicit joins (comma-separated FROM with WHERE equality predicates)
    and explicit JOIN ... ON are both representable.
    """

    items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    joins: Tuple[Join, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    def referenced_tables(self) -> List[str]:
        """All table names mentioned in FROM/JOIN, in clause order."""
        names = [ref.table for ref in self.tables]
        names.extend(join.table.table for join in self.joins)
        return names
