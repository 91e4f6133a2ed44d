"""Reference implementations the compiled estimator is tested against.

``ReferenceYieldEstimator`` is the per-query AST-walking estimator and
``reference_selectivity_range`` the every-bin histogram sum, both copied
verbatim from ``repro.sqlengine.statistics`` as it stood before the
estimator was compiled per query shape (the convention
``tests/core/test_golden_equivalence.py`` set).  The differential tests
require ``==`` on the floats: the compiled program and the overlapping-
bin sum perform the same operations in the same order.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

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
from repro.sqlengine.statistics import (
    DEFAULT_SELECTIVITY,
    ColumnStatistics,
    TableStatistics,
)


def reference_selectivity_range(
    self: ColumnStatistics,
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
    if lo > hi:
        return 0.0
    span = self.maximum - self.minimum
    if span <= 0:
        # Single-valued column: all or nothing.
        inside = lo <= self.minimum <= hi
        fraction = 1.0 if inside else 0.0
    else:
        bins = len(self.histogram)
        width = span / bins
        covered = 0.0
        for i, count in enumerate(self.histogram):
            bin_lo = self.minimum + i * width
            bin_hi = bin_lo + width
            overlap = max(
                0.0, min(hi, bin_hi) - max(lo, bin_lo)
            )
            if width > 0 and count:
                covered += count * (overlap / width)
        # The max value sits on the last bin's upper edge; clamp.
        fraction = min(1.0, covered / max(1, self.non_null_count))
    return fraction * (self.non_null_count / max(1, self.row_count))



class ReferenceYieldEstimator:
    """The tree-walking estimator, verbatim from before the compiled program."""

    def __init__(self, stats_by_table: Dict[str, TableStatistics]) -> None:
        self._stats = {
            name.lower(): stats for name, stats in stats_by_table.items()
        }

    @classmethod
    def from_catalog(cls, catalog, bins: int = 16) -> "ReferenceYieldEstimator":
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
        """Estimated row count of a plan's result (pre-LIMIT)."""
        cardinality = 1.0
        for entry in plan.scope:
            stats = self.table_stats(entry.table_name)
            rows = float(stats.row_count) if stats else 1000.0
            selectivity = 1.0
            for predicate in plan.local_predicates.get(entry.binding, []):
                selectivity *= self._selectivity(predicate, entry)
            cardinality *= rows * selectivity

        for edge in plan.join_edges:
            # Classic equi-join estimate: divide by the larger distinct
            # count of the two join keys.
            distinct = max(
                self._distinct(plan, edge.left_binding, edge.left_column),
                self._distinct(
                    plan, edge.right_binding, edge.right_column
                ),
                1,
            )
            cardinality /= distinct

        for predicate in plan.residual_predicates:
            cardinality *= DEFAULT_SELECTIVITY

        if plan.has_aggregates:
            cardinality = self._estimate_groups(plan, cardinality)
        if plan.statement.distinct:
            cardinality *= 0.9  # mild dedup assumption
        if plan.statement.limit is not None:
            cardinality = min(cardinality, float(plan.statement.limit))
        return max(0.0, cardinality)

    def estimate_yield(self, plan: QueryPlan) -> float:
        """Estimated result bytes: rows x output row width."""
        width = sum(out.width for out in plan.outputs)
        return self.estimate_rows(plan) * width

    # -- internals ---------------------------------------------------------

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

    def _estimate_groups(
        self, plan: QueryPlan, input_rows: float
    ) -> float:
        if not plan.group_by:
            return 1.0
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
        return min(groups, input_rows) if input_rows > 0 else groups

    def _operand_stats(
        self, operand: Expr, entry: ScopeEntry
    ) -> Optional[ColumnStatistics]:
        """Statistics for a bare column operand; None for expressions."""
        if isinstance(operand, ColumnRef):
            return self._entry_column(entry, operand)
        return None

    def _selectivity(self, predicate: Expr, entry: ScopeEntry) -> float:
        if isinstance(predicate, BinaryOp):
            return self._selectivity_binary(predicate, entry)
        if isinstance(predicate, BetweenOp):
            column = self._operand_stats(predicate.operand, entry)
            low = _literal_number(predicate.low)
            high = _literal_number(predicate.high)
            if column is None or low is None or high is None:
                return DEFAULT_SELECTIVITY
            inside = column.selectivity_range(low, high)
            return 1.0 - inside if predicate.negated else inside
        if isinstance(predicate, InOp):
            column = self._operand_stats(predicate.operand, entry)
            if column is None:
                return DEFAULT_SELECTIVITY
            total = 0.0
            for item in predicate.items:
                if isinstance(item, Literal):
                    total += column.selectivity_eq(item.value)
            total = min(1.0, total)
            return 1.0 - total if predicate.negated else total
        if isinstance(predicate, IsNullOp):
            column = self._operand_stats(predicate.operand, entry)
            if column is None:
                return DEFAULT_SELECTIVITY
            fraction = column.selectivity_null()
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, UnaryOp) and predicate.op == "not":
            return 1.0 - self._selectivity(predicate.operand, entry)
        return DEFAULT_SELECTIVITY

    def _selectivity_binary(
        self, predicate: BinaryOp, entry: ScopeEntry
    ) -> float:
        if predicate.op == "and":
            return self._selectivity(
                predicate.left, entry
            ) * self._selectivity(predicate.right, entry)
        if predicate.op == "or":
            left = self._selectivity(predicate.left, entry)
            right = self._selectivity(predicate.right, entry)
            return min(1.0, left + right - left * right)

        column, value, op = self._comparison_parts(predicate, entry)
        if column is None or op is None:
            return DEFAULT_SELECTIVITY
        if op == "=":
            return column.selectivity_eq(value)
        if op == "<>":
            return max(0.0, 1.0 - column.selectivity_eq(value))
        if not isinstance(value, (int, float)):
            return DEFAULT_SELECTIVITY
        if op in ("<", "<="):
            return column.selectivity_range(None, float(value))
        if op in (">", ">="):
            return column.selectivity_range(float(value), None)
        return DEFAULT_SELECTIVITY

    def _comparison_parts(
        self, predicate: BinaryOp, entry: ScopeEntry
    ) -> Tuple[Optional[ColumnStatistics], Any, Optional[str]]:
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if isinstance(predicate.left, ColumnRef) and isinstance(
            predicate.right, Literal
        ):
            return (
                self._entry_column(entry, predicate.left),
                predicate.right.value,
                predicate.op,
            )
        if isinstance(predicate.right, ColumnRef) and isinstance(
            predicate.left, Literal
        ):
            op = flipped.get(predicate.op, predicate.op)
            return (
                self._entry_column(entry, predicate.right),
                predicate.left.value,
                op,
            )
        return None, None, None


def _literal_number(expr: Expr) -> Optional[float]:
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    return None
