"""The yield model: per-object attribution of query result bytes.

A query's *yield* is the byte size of its result (Section 3).  When a
query touches several cacheable objects, the yield is divided among them
(Section 6):

* **table granularity** — "yield for each table ... is divided in
  proportion to the table's contribution to the unique attributes in the
  query" (the paper's example splits a join's yield in half because four
  columns of each table are involved);
* **column granularity** — "query yield is proportional to each attribute
  based on a ratio of storage size of the attribute to the total storage
  sizes of all columns referenced in the query" (the example attributes
  ``8/46 * Y`` to an 8-byte column out of 46 referenced bytes).

"Referenced" means appearing anywhere in the statement: select list,
predicates, join conditions, grouping, and ordering.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import CacheError
from repro.sqlengine.ast_nodes import ColumnRef, Expr, column_refs
from repro.sqlengine.planner import QueryPlan
from repro.sqlengine.statistics import YieldEstimator

if TYPE_CHECKING:  # typing-only: keeps repro.core import-light
    from repro.federation.federation import Federation
    from repro.federation.mediator import Mediator


# ---------------------------------------------------------------------------
# Yield sources: where a query's result size comes from
# ---------------------------------------------------------------------------

#: Yield-source modes selectable per run.
YIELD_MODES = ("exact", "estimated")


@dataclass(frozen=True)
class YieldMeasurement:
    """One query's measured (or estimated) result size.

    Attributes:
        yield_bytes: The query's yield — result bytes shipped to the
            application.
        bypass_bytes: WAN bytes if the query is bypassed (differs from
            ``yield_bytes`` only for decomposed multi-server queries,
            and only under the exact source — the estimator prices the
            decomposition at the estimated yield).
    """

    yield_bytes: int
    bypass_bytes: int


class YieldSource(abc.ABC):
    """Where per-query yields come from — the exact/estimated seam.

    The paper measures yields "by re-executing the traces with the
    server"; a production mediator cannot afford that and estimates
    result sizes from catalog statistics instead.  Everything downstream
    of trace preparation (attribution, compilation, policy decisions,
    accounting) is source-blind: it consumes
    :class:`~repro.workload.trace.PreparedQuery` records and never knows
    whether their yields were executed or estimated.  Selecting the
    source per run is therefore a one-line switch, which is what the
    estimator-fidelity harness sweeps.
    """

    #: Stable identifier recorded in stream/report metadata.
    mode: str = ""

    @abc.abstractmethod
    def measure(
        self, sql: str, plan: QueryPlan, servers: Sequence[str]
    ) -> YieldMeasurement:
        """Measure one planned query's yield and bypass bytes."""


class ExactYieldSource(YieldSource):
    """Execute every query and take the exact result size (the paper)."""

    mode = "exact"

    def __init__(self, mediator: "Mediator") -> None:
        self._mediator = mediator

    def measure(
        self, sql: str, plan: QueryPlan, servers: Sequence[str]
    ) -> YieldMeasurement:
        result = self._mediator.evaluate(sql, plan)
        yield_bytes = result.byte_size
        if len(servers) <= 1:
            return YieldMeasurement(yield_bytes, yield_bytes)
        return YieldMeasurement(
            yield_bytes, self._decomposed_bypass(sql, plan, result)
        )

    def _decomposed_bypass(
        self, sql: str, plan: QueryPlan, result: object
    ) -> int:
        """Measure decomposed shipping without polluting the ledger."""
        mediator = self._mediator
        snapshot = mediator.ledger.snapshot()
        federated = mediator.bypass(sql, plan, result)
        # Roll the ledger back: measurement must be accounting-neutral.
        mediator.ledger.restore(snapshot)
        return int(federated.wan_bytes)


class EstimatedYieldSource(YieldSource):
    """Estimate result sizes from statistics; no query is ever executed.

    Preparation becomes O(plans) instead of O(data) — the raw-speed mode
    million-query traces run under.  Multi-server decomposition is
    priced at the estimated yield (the estimator has no per-server
    breakdown), which the fidelity harness accounts for.
    """

    mode = "estimated"

    def __init__(self, estimator: YieldEstimator) -> None:
        self.estimator = estimator

    def measure(
        self, sql: str, plan: QueryPlan, servers: Sequence[str]
    ) -> YieldMeasurement:
        estimated = int(round(self.estimator.estimate_yield(plan)))
        return YieldMeasurement(estimated, estimated)


def make_yield_source(
    mode: str,
    mediator: Optional["Mediator"] = None,
    federation: Optional["Federation"] = None,
    estimator: Optional[YieldEstimator] = None,
) -> YieldSource:
    """Build the yield source for ``mode`` (``"exact"``/``"estimated"``).

    ``exact`` needs a mediator; ``estimated`` needs an estimator, or a
    federation/mediator to collect statistics from (the federation is
    catalog-like across every server, so one collection covers
    cross-server joins too).
    """
    if mode == "exact":
        if mediator is None:
            raise CacheError("exact yield source requires a mediator")
        return ExactYieldSource(mediator)
    if mode == "estimated":
        if estimator is None:
            if federation is None and mediator is not None:
                federation = mediator.federation
            if federation is None:
                raise CacheError(
                    "estimated yield source requires an estimator or a "
                    "federation to collect statistics from"
                )
            estimator = YieldEstimator.from_catalog(federation)
        return EstimatedYieldSource(estimator)
    raise CacheError(
        f"unknown yield mode {mode!r}; use one of {YIELD_MODES}"
    )


def referenced_columns(plan: QueryPlan) -> Mapping[str, FrozenSet[str]]:
    """table_name -> set of referenced column names for one plan.

    Every table in FROM contributes its join-edge and predicate columns;
    a table referenced with zero resolvable columns (e.g. ``SELECT
    COUNT(*) FROM T``) still appears with an empty set so table-level
    attribution can include it.  Tables come in scope order.  The
    result is a fact of the query's shape, shared by every plan of it:
    read-only.
    """
    return plan.facts.fill("referenced_columns", _referenced_columns, plan)


def _referenced_columns(plan: QueryPlan) -> Mapping[str, FrozenSet[str]]:
    refs: Dict[str, Set[str]] = {
        entry.table_name: set() for entry in plan.scope
    }
    bindings = {entry.binding.lower(): entry for entry in plan.scope}

    def note(ref: ColumnRef) -> None:
        if ref.table is not None:
            entry = bindings.get(ref.table.lower())
            if entry is not None and ref.column in entry.schema:
                refs[entry.table_name].add(
                    entry.schema.column(ref.column).name
                )
            return
        owners = [
            entry for entry in plan.scope if ref.column in entry.schema
        ]
        if len(owners) == 1:
            refs[owners[0].table_name].add(
                owners[0].schema.column(ref.column).name
            )

    exprs: List[Expr] = [out.expr for out in plan.outputs]
    for predicates in plan.local_predicates.values():
        exprs.extend(predicates)
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
        refs[left.table_name].add(
            left.schema.column(edge.left_column).name
        )
        refs[right.table_name].add(
            right.schema.column(edge.right_column).name
        )
    return MappingProxyType(
        {table: frozenset(columns) for table, columns in refs.items()}
    )


#: ``((object id, weight), ...)`` and the weights' sum.
_Shares = Tuple[Tuple[Tuple[str, int], ...], int]


def _table_weights(plan: QueryPlan) -> _Shares:
    """Unique-attribute count per table, scope order.

    Tables referenced without any concrete column (pure ``COUNT(*)``)
    count as one attribute so they receive a share.
    """
    weights = tuple(
        (table, max(1, len(columns)))
        for table, columns in referenced_columns(plan).items()
    )
    return weights, sum(weight for _, weight in weights)


def _column_widths(plan: QueryPlan) -> _Shares:
    """Byte width per referenced column, in (scope, schema) order.

    A table referenced with no concrete column (``SELECT COUNT(*) FROM
    T``) stands in with its first column, the narrowest cacheable
    object that can answer it.
    """
    schema_by_table = {
        entry.table_name: entry.schema for entry in plan.scope
    }
    widths: List[Tuple[str, int]] = []
    for table, columns in referenced_columns(plan).items():
        schema = schema_by_table[table]
        if not columns:
            first = schema.columns[0]
            widths.append((f"{table}.{first.name}", first.width))
            continue
        for column in sorted(columns, key=schema.index_of):
            col = schema.column(column)
            widths.append((f"{table}.{col.name}", col.width))
    return tuple(widths), sum(width for _, width in widths)


def _split(shares: _Shares, yield_bytes: float) -> Dict[str, float]:
    weights, total = shares
    if total == 0:
        return {}
    return {
        object_id: yield_bytes * weight / total
        for object_id, weight in weights
    }


def attribute_yield_tables(
    plan: QueryPlan, yield_bytes: float
) -> Dict[str, float]:
    """Split a query's yield among its tables (unique-attribute rule)."""
    return _split(
        plan.facts.fill("table_weights", _table_weights, plan), yield_bytes
    )


def attribute_yield_columns(
    plan: QueryPlan, yield_bytes: float
) -> Dict[str, float]:
    """Split a query's yield among referenced columns by byte width.

    Returns ``{"Table.column": share_bytes}`` in (scope, schema) order.
    """
    return _split(
        plan.facts.fill("column_widths", _column_widths, plan), yield_bytes
    )


def referenced_object_ids(plan: QueryPlan, granularity: str) -> List[str]:
    """The cacheable objects a query needs at ``granularity``.

    At table granularity: every FROM/JOIN table.  At column granularity:
    every referenced column (with the COUNT(*)-style stand-in above).
    """
    if granularity == "table":
        return list(referenced_columns(plan))
    widths, _ = plan.facts.fill("column_widths", _column_widths, plan)
    return [object_id for object_id, _ in widths]
