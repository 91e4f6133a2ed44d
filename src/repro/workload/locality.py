"""Schema-locality analysis (Figures 5 and 6).

Figures 5 and 6 plot, for every query in the trace, which columns
(respectively tables) it references; horizontal streaks mean the same
schema element serves many consecutive queries.  We regenerate that
scatter and distill it into summary statistics: working-set
concentration (what fraction of schema elements receives 90% of the
references) and mean run length (how long a streak lasts) — the two
properties that make schema elements, unlike query results, worth
caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.sqlengine.ast_nodes import column_refs
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import SchemaLookup, plan_select
from repro.workload.trace import Trace


@dataclass
class LocalityReport:
    """Scatter data plus locality statistics for one granularity.

    Attributes:
        granularity: ``"table"`` or ``"column"``.
        elements: Ordered distinct schema-element ids (y-axis labels).
        points: (query_index, element_index) scatter — the figure's data.
        reference_counts: element id -> number of referencing queries.
        total_elements_in_schema: Universe size (all tables or columns).
    """

    granularity: str
    elements: List[str] = field(default_factory=list)
    points: List[Tuple[int, int]] = field(default_factory=list)
    reference_counts: Dict[str, int] = field(default_factory=dict)
    total_elements_in_schema: int = 0

    @property
    def distinct_used(self) -> int:
        return len(self.elements)

    def concentration(self, mass: float = 0.9) -> float:
        """Smallest fraction of used elements covering ``mass`` of all
        references.  Low values = heavy concentration (good for caching).
        """
        if not self.reference_counts:
            return 0.0
        counts = sorted(self.reference_counts.values(), reverse=True)
        total = sum(counts)
        target = total * mass
        acc = 0
        for i, count in enumerate(counts, start=1):
            acc += count
            if acc >= target:
                return i / len(counts)
        return 1.0

    def mean_run_length(self) -> float:
        """Average length of consecutive-query runs per element.

        Long runs are the "heavy and long lasting periods of reuse" of
        Figures 5-6.
        """
        by_element: Dict[int, List[int]] = {}
        for query_index, element_index in self.points:
            by_element.setdefault(element_index, []).append(query_index)
        run_lengths: List[int] = []
        for indices in by_element.values():
            indices.sort()
            run = 1
            for prev, cur in zip(indices, indices[1:]):
                if cur - prev <= 1:
                    run += 1
                else:
                    run_lengths.append(run)
                    run = 1
            run_lengths.append(run)
        if not run_lengths:
            return 0.0
        return sum(run_lengths) / len(run_lengths)


def referenced_objects(
    sql: str, lookup: SchemaLookup, granularity: str
) -> Set[str]:
    """Object ids a query references at the given granularity.

    Tables: every FROM/JOIN relation.  Columns: every column appearing
    anywhere in the statement (select list, predicates, grouping,
    ordering) resolved to its owning table — the same reference set the
    yield-attribution rules use.
    """
    plan = plan_select(parse(sql), lookup)
    if granularity == "table":
        return {entry.table_name for entry in plan.scope}
    refs: Set[str] = set()
    bindings = {entry.binding.lower(): entry for entry in plan.scope}

    def note(ref) -> None:
        if ref.table is not None:
            entry = bindings.get(ref.table.lower())
            if entry is not None and ref.column in entry.schema:
                col = entry.schema.column(ref.column)
                refs.add(f"{entry.table_name}.{col.name}")
            return
        owners = [
            entry for entry in plan.scope if ref.column in entry.schema
        ]
        if len(owners) == 1:
            col = owners[0].schema.column(ref.column)
            refs.add(f"{owners[0].table_name}.{col.name}")

    exprs = [out.expr for out in plan.outputs]
    for preds in plan.local_predicates.values():
        exprs.extend(preds)
    exprs.extend(plan.residual_predicates)
    exprs.extend(plan.group_by)
    if plan.statement.having is not None:
        exprs.append(plan.statement.having)
    for item in plan.statement.order_by:
        exprs.append(item.expr)
    for expr in exprs:
        for ref in column_refs(expr):
            note(ref)
    for edge in plan.join_edges:
        left = bindings[edge.left_binding.lower()]
        right = bindings[edge.right_binding.lower()]
        refs.add(
            f"{left.table_name}.{left.schema.column(edge.left_column).name}"
        )
        refs.add(
            f"{right.table_name}."
            f"{right.schema.column(edge.right_column).name}"
        )
    return refs


def analyze_locality(
    trace: Trace,
    lookup: SchemaLookup,
    granularity: str,
    universe_size: int = 0,
) -> LocalityReport:
    """Build the Figure 5/6 scatter and statistics for one granularity."""
    report = LocalityReport(
        granularity=granularity, total_elements_in_schema=universe_size
    )
    element_index: Dict[str, int] = {}
    for record in trace:
        objects = referenced_objects(record.sql, lookup, granularity)
        for object_id in sorted(objects):
            index = element_index.get(object_id)
            if index is None:
                index = len(report.elements)
                element_index[object_id] = index
                report.elements.append(object_id)  # repro-lint: allow[RPR007] locality analysis materializes the reference string by design
            report.points.append((record.index, index))  # repro-lint: allow[RPR007] locality analysis materializes the reference string by design
            report.reference_counts[object_id] = (
                report.reference_counts.get(object_id, 0) + 1
            )
    return report
