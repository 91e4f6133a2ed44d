"""Table statistics and selectivity-based yield estimation.

The paper measures yields exactly "by re-executing the traces with the
server".  A production mediator cannot afford that; it would estimate
result sizes from catalog statistics, the way query optimizers do.  This
module provides classical equi-width-histogram statistics and a
selectivity estimator over the engine's predicate AST, giving
``estimate_yield(plan)`` — the estimated result bytes of a query without
executing it.  The companion ablation benchmark asks the question that
matters for the paper: do bypass-yield cache decisions survive the
estimation error?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SQLError
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
from repro.sqlengine.planner import QueryPlan, ScopeEntry
from repro.sqlengine.shapes import literal_nodes, plan_literals
from repro.sqlengine.storage import Table

#: Fallback selectivity for predicates the estimator cannot reason about.
DEFAULT_SELECTIVITY = 0.33


@dataclass
class ColumnStatistics:
    """Equi-width histogram statistics for one numeric column.

    String columns get only null/distinct counts (equality selectivity
    still works through ``distinct_count``).
    """

    null_count: int
    distinct_count: int
    row_count: int
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    histogram: List[int] = field(default_factory=list)

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    def selectivity_eq(self, value: Any) -> float:
        """P(column = value) assuming uniform distinct values."""
        if self.non_null_count == 0 or self.distinct_count == 0:
            return 0.0
        if isinstance(value, (int, float)):
            if (
                self.minimum is not None
                and self.maximum is not None
                and not self.minimum <= value <= self.maximum
            ):
                return 0.0
        return min(1.0, 1.0 / self.distinct_count) * (
            self.non_null_count / max(1, self.row_count)
        )

    def selectivity_range(
        self,
        low: Optional[float],
        high: Optional[float],
    ) -> float:
        """P(low <= column <= high) from the histogram.

        ``None`` bounds are open (±infinity).
        """
        if self.non_null_count == 0:
            return 0.0
        if (
            self.minimum is None
            or self.maximum is None
            or not self.histogram
        ):
            return DEFAULT_SELECTIVITY
        lo = self.minimum if low is None else max(low, self.minimum)
        hi = self.maximum if high is None else min(high, self.maximum)
        if not lo <= hi:  # empty range, or a NaN bound
            return 0.0
        span = self.maximum - self.minimum
        if span <= 0:
            # Single-valued column: all or nothing.
            inside = lo <= self.minimum <= hi
            fraction = 1.0 if inside else 0.0
        else:
            histogram = self.histogram
            minimum = self.minimum
            bins = len(histogram)
            width = span / bins
            # Only bins the range overlaps can add to the sum: a bin
            # wholly below ``lo`` or above ``hi`` contributes
            # ``count * 0.0``.  Guess the overlapped run by division,
            # then widen it on the same float edges the sum uses (the
            # edges are monotone in the bin index), so no bin with a
            # positive overlap is ever skipped.
            covered = 0.0
            if width > 0:
                last_bin = bins - 1
                first = min(last_bin, int((lo - minimum) / width))
                last = min(last_bin, int((hi - minimum) / width))
                while first > 0 and minimum + (first - 1) * width + width > lo:
                    first -= 1
                while last < last_bin and minimum + (last + 1) * width < hi:
                    last += 1
                for i in range(first, last + 1):
                    count = histogram[i]
                    if not count:
                        continue
                    bin_lo = minimum + i * width
                    bin_hi = bin_lo + width
                    # min(hi, bin_hi) - max(lo, bin_lo), clamped at 0.0
                    overlap = (bin_hi if bin_hi < hi else hi) - (
                        bin_lo if bin_lo > lo else lo
                    )
                    if overlap > 0.0:
                        covered += count * (overlap / width)
            # The max value sits on the last bin's upper edge; clamp.
            fraction = min(1.0, covered / max(1, self.non_null_count))
        return fraction * (self.non_null_count / max(1, self.row_count))

    def selectivity_null(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count


@dataclass
class TableStatistics:
    """Statistics for every column of one table."""

    table_name: str
    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    @classmethod
    def collect(cls, table: Table, bins: int = 16) -> "TableStatistics":
        """Scan a table once and build per-column statistics."""
        if bins <= 0:
            raise SQLError("histogram bins must be positive")
        stats = cls(table_name=table.name, row_count=table.row_count)
        for col in table.schema.columns:
            values = table.column_values(col.name)
            non_null = [v for v in values if v is not None]
            numeric = [
                v for v in non_null if isinstance(v, (int, float))
            ]
            column = ColumnStatistics(
                null_count=len(values) - len(non_null),
                distinct_count=len(set(non_null)),
                row_count=len(values),
            )
            if numeric and len(numeric) == len(non_null):
                column.minimum = float(min(numeric))
                column.maximum = float(max(numeric))
                histogram = [0] * bins
                span = column.maximum - column.minimum
                for value in numeric:
                    if span <= 0:
                        histogram[0] += 1
                        continue
                    index = int(
                        (value - column.minimum) / span * bins
                    )
                    histogram[min(index, bins - 1)] += 1
                column.histogram = histogram
            stats.columns[col.key] = column
        return stats

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())


#: Selectivity of one predicate, given the query's literal values.
Selectivity = Callable[[Sequence[Any]], float]

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _default_selectivity(values: Sequence[Any]) -> float:
    return DEFAULT_SELECTIVITY


@dataclass(frozen=True)
class YieldProgram:
    """One query shape's yield estimate as a function of its literals.

    Everything an estimate reads from the plan and the statistics is
    resolved once per shape; what is left per query is the arithmetic
    on the literal values, in the order the tree walk this replaced
    performed it.

    Attributes:
        tables: Per scope entry, the table's row count and the
            selectivities of its local predicates.
        join_divisors: Per join edge, the larger distinct count of the
            two keys (the classic equi-join estimate).
        residuals: Number of residual predicates (default selectivity
            each).
        has_aggregates: Whether the output is grouped.
        groups: Group-count bound from the GROUP BY columns' distinct
            counts; ``None`` without GROUP BY (one output row).
        distinct: Whether SELECT DISTINCT applies its mild dedup factor.
        limit: TOP/LIMIT count, if any.
        width: Output row width in bytes.
    """

    tables: Tuple[Tuple[float, Tuple[Selectivity, ...]], ...]
    join_divisors: Tuple[int, ...]
    residuals: int
    has_aggregates: bool
    groups: Optional[float]
    distinct: bool
    limit: Optional[float]
    width: int

    def rows(self, values: Sequence[Any]) -> float:
        """Estimated row count of the result."""
        cardinality = 1.0
        for rows, predicates in self.tables:
            selectivity = 1.0
            for predicate in predicates:
                selectivity *= predicate(values)
            cardinality *= rows * selectivity
        for distinct in self.join_divisors:
            cardinality /= distinct
        for _ in range(self.residuals):
            cardinality *= DEFAULT_SELECTIVITY
        if self.has_aggregates:
            groups = self.groups
            if groups is None:
                cardinality = 1.0
            elif cardinality > 0:
                cardinality = min(groups, cardinality)
            else:
                cardinality = groups
        if self.distinct:
            cardinality *= 0.9  # mild dedup assumption
        if self.limit is not None:
            cardinality = min(cardinality, self.limit)
        return max(0.0, cardinality)

    def __call__(self, values: Sequence[Any]) -> float:
        """Estimated result bytes: rows x output row width."""
        return self.rows(values) * self.width


class YieldEstimator:
    """Estimate result sizes from statistics, never touching the data.

    An estimate is the plan's shape compiled once into a
    :class:`YieldProgram` (kept in the plan's
    :class:`~repro.sqlengine.planner.ShapeFacts`, so every plan of the
    shape shares it), applied to the plan's literal values.  The
    statistics are read at compile time: do not mutate them afterwards.
    """

    def __init__(self, stats_by_table: Dict[str, TableStatistics]) -> None:
        self._stats = {
            name.lower(): stats for name, stats in stats_by_table.items()
        }

    @classmethod
    def from_catalog(cls, catalog, bins: int = 16) -> "YieldEstimator":
        """Collect statistics for every table of a catalog-like provider
        (anything with ``tables()``)."""
        return cls(
            {
                table.name: TableStatistics.collect(table, bins)
                for table in catalog.tables()
            }
        )

    def table_stats(self, table_name: str) -> Optional[TableStatistics]:
        return self._stats.get(table_name.lower())

    # -- cardinality -----------------------------------------------------

    def estimate_rows(self, plan: QueryPlan) -> float:
        """Estimated row count of a plan's result."""
        return self._program(plan).rows(plan_literals(plan))

    def estimate_yield(self, plan: QueryPlan) -> float:
        """Estimated result bytes: rows x output row width."""
        return self._program(plan)(plan_literals(plan))

    # -- compilation -------------------------------------------------------

    def _program(self, plan: QueryPlan) -> YieldProgram:
        return plan.facts.fill(
            "yield_program", self._compile, plan, owner=self
        )

    def _compile(self, plan: QueryPlan) -> YieldProgram:
        # Literal nodes are addressed by their position in the
        # statement's text-order walk — the order a shape hit's
        # extracted values arrive in.  A literal the walk does not
        # reach (NULL, a hand-built predicate) is a constant.
        slots = {
            id(node): slot
            for slot, node in enumerate(literal_nodes(plan.statement))
        }

        def value_of(node: Literal) -> Callable[[Sequence[Any]], Any]:
            slot = slots.get(id(node))
            if slot is not None:
                return itemgetter(slot)
            constant = node.value
            return lambda values: constant

        tables = []
        for entry in plan.scope:
            stats = self.table_stats(entry.table_name)
            rows = float(stats.row_count) if stats else 1000.0
            predicates = tuple(
                self._compile_selectivity(predicate, entry, value_of)
                for predicate in plan.local_predicates.get(
                    entry.binding, []
                )
            )
            tables.append((rows, predicates))
        limit = plan.statement.limit
        return YieldProgram(
            tables=tuple(tables),
            join_divisors=tuple(
                max(
                    self._distinct(
                        plan, edge.left_binding, edge.left_column
                    ),
                    self._distinct(
                        plan, edge.right_binding, edge.right_column
                    ),
                    1,
                )
                for edge in plan.join_edges
            ),
            residuals=len(plan.residual_predicates),
            has_aggregates=plan.has_aggregates,
            groups=self._group_bound(plan),
            distinct=plan.statement.distinct,
            limit=None if limit is None else float(limit),
            width=sum(out.width for out in plan.outputs),
        )

    def _entry_column(
        self, entry: ScopeEntry, ref: ColumnRef
    ) -> Optional[ColumnStatistics]:
        if ref.table is not None and ref.table.lower() != (
            entry.binding.lower()
        ):
            return None
        if ref.column not in entry.schema:
            return None
        stats = self.table_stats(entry.table_name)
        if stats is None:
            return None
        return stats.column(ref.column)

    def _distinct(
        self, plan: QueryPlan, binding: str, column: str
    ) -> int:
        for entry in plan.scope:
            if entry.binding.lower() == binding.lower():
                stats = self.table_stats(entry.table_name)
                if stats is None:
                    return 1
                col = stats.column(column)
                return col.distinct_count if col else 1
        return 1

    def _group_bound(self, plan: QueryPlan) -> Optional[float]:
        if not plan.group_by:
            return None
        groups = 1.0
        for expr in plan.group_by:
            if isinstance(expr, ColumnRef):
                for entry in plan.scope:
                    column = self._entry_column(entry, expr)
                    if column is not None:
                        groups *= max(1, column.distinct_count)
                        break
                else:
                    groups *= 10.0
            else:
                groups *= 10.0
        return groups

    def _operand_stats(
        self, operand: Expr, entry: ScopeEntry
    ) -> Optional[ColumnStatistics]:
        """Statistics for a bare column operand; None for expressions."""
        if isinstance(operand, ColumnRef):
            return self._entry_column(entry, operand)
        return None

    def _compile_selectivity(
        self,
        predicate: Expr,
        entry: ScopeEntry,
        value_of: Callable[[Literal], Callable[[Sequence[Any]], Any]],
    ) -> Selectivity:
        """``predicate``'s selectivity as a function of the literals.

        Which operand is a column and which a literal is structure;
        what *type* a literal has is not (``x = 5`` and ``x = 'a'``
        share a shape), so type checks run per evaluation.
        """
        if isinstance(predicate, BinaryOp):
            if predicate.op in ("and", "or"):
                left = self._compile_selectivity(
                    predicate.left, entry, value_of
                )
                right = self._compile_selectivity(
                    predicate.right, entry, value_of
                )
                if predicate.op == "and":
                    return lambda values: left(values) * right(values)

                def either(values: Sequence[Any]) -> float:
                    a = left(values)
                    b = right(values)
                    return min(1.0, a + b - a * b)

                return either
            return self._compile_comparison(predicate, entry, value_of)
        if isinstance(predicate, BetweenOp):
            column = self._operand_stats(predicate.operand, entry)
            if (
                column is None
                or not isinstance(predicate.low, Literal)
                or not isinstance(predicate.high, Literal)
            ):
                return _default_selectivity
            low_of = value_of(predicate.low)
            high_of = value_of(predicate.high)
            between_range = column.selectivity_range
            not_between = predicate.negated

            def between(values: Sequence[Any]) -> float:
                low = low_of(values)
                high = high_of(values)
                if not isinstance(low, (int, float)) or not isinstance(
                    high, (int, float)
                ):
                    return DEFAULT_SELECTIVITY
                inside = between_range(float(low), float(high))
                return 1.0 - inside if not_between else inside

            return between
        if isinstance(predicate, InOp):
            column = self._operand_stats(predicate.operand, entry)
            if column is None:
                return _default_selectivity
            items = tuple(
                value_of(item)
                for item in predicate.items
                if isinstance(item, Literal)
            )
            item_eq = column.selectivity_eq
            not_in = predicate.negated

            def within(values: Sequence[Any]) -> float:
                total = 0.0
                for item_of in items:
                    total += item_eq(item_of(values))
                total = min(1.0, total)
                return 1.0 - total if not_in else total

            return within
        if isinstance(predicate, IsNullOp):
            column = self._operand_stats(predicate.operand, entry)
            if column is None:
                return _default_selectivity
            fraction = column.selectivity_null()
            if predicate.negated:
                fraction = 1.0 - fraction
            return lambda values: fraction
        if isinstance(predicate, UnaryOp) and predicate.op == "not":
            operand = self._compile_selectivity(
                predicate.operand, entry, value_of
            )
            return lambda values: 1.0 - operand(values)
        return _default_selectivity

    def _compile_comparison(
        self,
        predicate: BinaryOp,
        entry: ScopeEntry,
        value_of: Callable[[Literal], Callable[[Sequence[Any]], Any]],
    ) -> Selectivity:
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            column = self._entry_column(entry, left)
            operand = value_of(right)
        elif isinstance(right, ColumnRef) and isinstance(left, Literal):
            column = self._entry_column(entry, right)
            operand = value_of(left)
            op = _FLIPPED.get(op, op)
        else:
            return _default_selectivity
        if column is None:
            return _default_selectivity
        eq = column.selectivity_eq
        if op == "=":
            return lambda values: eq(operand(values))
        if op == "<>":
            return lambda values: max(0.0, 1.0 - eq(operand(values)))
        if op not in _FLIPPED:
            return _default_selectivity
        in_range = column.selectivity_range
        below = op in ("<", "<=")

        def bounded(values: Sequence[Any]) -> float:
            value = operand(values)
            if not isinstance(value, (int, float)):
                return DEFAULT_SELECTIVITY
            if below:
                return in_range(None, float(value))
            return in_range(float(value), None)

        return bounded
