"""Plan execution: scans, hash joins, aggregation, ordering, projection.

The executor consumes a :class:`~repro.sqlengine.planner.QueryPlan` and a
table provider (anything with ``table(name) -> Table``) and produces a
:class:`ResultSet` whose exact byte size is the query's *yield* in the
bypass-yield model.

Every plan runs its shape's :class:`CountProgram`, compiled once per
shape as a function of the literal values: its scans return row
*positions*.  When the shape lets the result's cardinality be read off
positions and cached key arrays, the yield is known without a tuple or
a tree existing, and the rows are built from the trees
(:func:`_materialise`) on the first read of ``ResultSet.rows``; any
other result is materialised at once by the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExecutionError, PlanError
from repro.sqlengine import vectorized
from repro.sqlengine.ast_nodes import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InOp,
    IsNullOp,
    Literal,
    OrderItem,
    UnaryOp,
)
from repro.sqlengine.expressions import RowLayout, compile_expr
from repro.sqlengine.functions import make_aggregate
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import (
    JoinEdge,
    OutputColumn,
    QueryPlan,
    ScopeEntry,
    SchemaLookup,
    plan_select,
)
from repro.sqlengine.shapes import literal_nodes, plan_literals
from repro.sqlengine.storage import Table
from repro.sqlengine.types import ColumnType

#: Scan-path observer: ``(table_name, path)`` with path one of
#: ``"index"`` (hash-index probe), ``"vectorized"`` (columnar mask
#: evaluation), or ``"rowpath"`` (row-at-a-time fallback).  Installed by
#: observability layers (the mediator's execute span) to attribute how
#: each table scan actually ran; ``None`` costs one comparison per scan.
ScanObserver = Callable[[str, str], None]

_SCAN_OBSERVER: Optional[ScanObserver] = None


def set_scan_observer(
    observer: Optional[ScanObserver],
) -> Optional[ScanObserver]:
    """Install (or clear) the scan observer; returns the previous one.

    Callers restore the previous observer when done so nested
    executions (a traced mediator evaluating inside a traced driver)
    compose.
    """
    global _SCAN_OBSERVER
    previous = _SCAN_OBSERVER
    _SCAN_OBSERVER = observer
    return previous


@dataclass(frozen=True)
class ResultColumn:
    """Metadata for one result column.

    ``width`` prices each value in bytes for yield accounting; ``source``
    records (table, column) provenance for bare column outputs.
    """

    name: str
    width: int
    source: Optional[Tuple[str, str]] = None


class ResultSet:
    """Query result with exact byte accounting.

    ``row_count`` and ``byte_size`` are known from the start; a result
    made by :meth:`counted` builds its tuples on the first read of
    :attr:`rows`.
    """

    __slots__ = ("columns", "row_count", "_rows", "_build")

    def __init__(
        self, columns: List[ResultColumn], rows: List[Tuple[Any, ...]]
    ) -> None:
        self.columns = columns
        self.row_count = len(rows)
        self._rows: Optional[List[Tuple[Any, ...]]] = rows
        self._build: Optional[Callable[[], List[Tuple[Any, ...]]]] = None

    @classmethod
    def counted(
        cls,
        columns: List[ResultColumn],
        row_count: int,
        build: Callable[[], List[Tuple[Any, ...]]],
    ) -> "ResultSet":
        """A result of ``row_count`` rows that ``build()`` will return."""
        result = cls(columns, [])
        result.row_count, result._rows, result._build = row_count, None, build
        return result

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        if self._rows is None:
            assert self._build is not None
            self._rows, self._build = self._build(), None
        return self._rows

    @property
    def row_width(self) -> int:
        return sum(col.width for col in self.columns)

    @property
    def byte_size(self) -> int:
        """The query's yield: result bytes shipped to the application."""
        return self.row_width * self.row_count

    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def column_values(self, name: str) -> List[Any]:
        key = name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == key:
                return [row[i] for row in self.rows]
        raise ExecutionError(f"result has no column {name!r}")


class QueryEngine:
    """Facade: parse + plan + execute against one table provider.

    The provider must offer ``table(name) -> Table`` and ``tables() ->
    list[Table]`` (the :class:`~repro.sqlengine.catalog.Catalog` API).
    """

    def __init__(self, catalog: Any) -> None:
        self._catalog = catalog
        self._lookup = SchemaLookup.from_catalog(catalog)

    def plan(self, sql: str) -> QueryPlan:
        return plan_select(parse(sql), self._lookup)

    def execute(self, sql: str) -> ResultSet:
        """Parse, plan and run ``sql``, returning the materialized result."""
        return execute_plan(self.plan(sql), self._catalog)

    def yield_bytes(self, sql: str) -> int:
        """The yield of ``sql``: exact result size in bytes."""
        return self.execute(sql).byte_size


def execute_plan(plan: QueryPlan, provider: Any) -> ResultSet:
    """Run a plan against ``provider`` (``table(name) -> Table``).

    The shape's :class:`CountProgram` scans the tables and, when it can,
    counts the result: its rows are then built from the trees on the
    first read of ``rows``, else at once.
    """
    program = plan.facts.fill(
        "exact_program", partial(_compile, provider), plan, owner=provider
    )
    ran = program.run(plan_literals(plan), plan)
    assert ran is not None  # given the plan, no scan declines
    scans, count = ran
    if _SCAN_OBSERVER is not None:
        for step, scan in zip(program.steps, scans):
            _SCAN_OBSERVER(step.table_name, scan.path)
    if count is None:
        return ResultSet(list(program.columns), _materialise(plan, scans))
    return ResultSet.counted(
        list(program.columns), count, partial(_materialise, plan, scans)
    )


def _materialise(
    plan: QueryPlan, scans: List["_Scan"]
) -> List[Tuple[Any, ...]]:
    """The result's tuples: join, filter, aggregate, project, order."""
    rows, layout = _join_all(plan, scans)

    if plan.residual_predicates:
        rows = _filter(rows, plan.residual_predicates, layout)

    if plan.has_aggregates:
        rows, layout, outputs, order_exprs = _aggregate(plan, rows, layout)
    else:
        outputs = plan.outputs
        order_exprs = [item.expr for item in plan.statement.order_by]

    projected = _project(rows, layout, outputs)

    if plan.statement.distinct:
        projected = _distinct(projected)

    if plan.statement.order_by:
        projected = _order(
            projected, rows, layout, outputs, order_exprs,
            plan.statement.order_by, plan.has_aggregates,
            plan.statement.distinct,
        )

    if plan.statement.limit is not None:
        projected = projected[: plan.statement.limit]
    return projected


# ----------------------------------------------------------------------
# Scans and the count program
# ----------------------------------------------------------------------

class _Scan(NamedTuple):
    """One table's rows that passed its pushed-down predicates."""

    table: Table
    #: Ascending row positions; ``None``: every row.
    positions: Optional[Any]
    count: int
    layout: RowLayout
    #: ``"index"`` (an index probe gave the candidates), ``"vectorized"``
    #: (a mask filtered every row) or ``"rowpath"``.
    path: str

    def rows(self) -> List[Tuple[Any, ...]]:
        rows = self.table.materialized_rows()
        positions = self.positions
        if positions is None:
            # Tables only grow: rows inserted since the scan are not its.
            return rows if len(rows) == self.count else rows[: self.count]
        if not isinstance(positions, list):
            positions = positions.tolist()
        return [rows[position] for position in positions]


class _ScanStep(NamedTuple):
    """One scope entry's scan, lowered once (:func:`_compile_scan`)."""

    binding: str
    table_name: str
    layout: RowLayout
    predicate_count: int
    #: ``None`` without a vector form.
    mask: Optional[vectorized.MaskProgram]
    #: (column, literal slot) of each equality an index could serve, in
    #: predicate order.
    probes: Tuple[Tuple[str, Optional[int]], ...]

    def run(
        self,
        provider: Any,
        literals: Sequence[Any],
        plan: Optional[QueryPlan],
    ) -> Optional[_Scan]:
        """The scan: the first probe an index serves gives the
        candidates, and the mask filters them.  Where the mask declines
        the predicate trees of ``plan`` filter them row at a time, or,
        given no plan, the scan declines."""
        table: Table = provider.table(self.table_name)
        positions: Optional[Any] = None
        path = "rowpath"
        for column, slot in self.probes:
            # NULL is shape text, not a slot.
            value = None if slot is None else literals[slot]
            positions = table.index_positions(column, value)
            if positions is not None:
                path = "index"
                break
        if not (table.row_count if positions is None else positions):
            positions = [] if self.predicate_count else positions
        elif self.predicate_count > (path == "index"):
            kept = vectorized.filtered_positions(table, self.mask, literals, positions)
            if kept is not None:
                path = "index" if path == "index" else "vectorized"
            elif plan is None:
                return None
            else:
                rows = table.materialized_rows()
                compiled = [
                    compile_expr(pred, self.layout)
                    for pred in plan.local_predicates.get(self.binding, [])
                ]
                kept = [
                    position
                    for position in (
                        range(len(rows)) if positions is None else positions
                    )
                    if all(func(rows[position]) is True for func in compiled)
                ]
            positions = kept
        count = table.row_count if positions is None else len(positions)
        return _Scan(table, positions, count, self.layout, path)


def _compile_scan(
    entry: ScopeEntry, predicates: List[Expr], slots: Dict[int, int]
) -> _ScanStep:
    """Lower one entry's predicates; ``slots`` maps ``id(literal)`` to
    its text-order slot."""
    probes = []
    for predicate in predicates:
        if isinstance(predicate, BinaryOp) and predicate.op == "=":
            for column, value in (
                (predicate.left, predicate.right),
                (predicate.right, predicate.left),
            ):
                if isinstance(column, ColumnRef) and isinstance(value, Literal):
                    probes.append((column.column, slots.get(id(value))))
    try:
        mask = vectorized.MaskProgram(predicates, entry.layout, entry.schema, slots)
    except vectorized.Unvectorizable:
        mask = None
    return _ScanStep(
        entry.binding, entry.table_name, entry.layout, len(predicates), mask,
        tuple(probes),
    )


#: The key columns of two scans' inner equi-join (``None``: one scan)
#: and the GROUP BY columns of an aggregate (``()``: one group;
#: ``None``: no aggregate).
_Keys = Tuple[Optional[Tuple[str, str]], Optional[Tuple[str, ...]]]


class CountProgram(NamedTuple):
    """A plan's scans and, where positions give it, its exact row count,
    as a function of its literal values: compiled once per shape
    (:func:`_compile`) into its ``ShapeFacts`` as the estimator's
    ``YieldProgram`` is.  Per query only the probes and masks, the join
    or group count and the LIMIT run, over column arrays read through
    the ``Table.version``-checked cache."""

    provider: Any
    steps: Tuple[_ScanStep, ...]
    #: What positions count the rows by (:func:`_count_keys`); ``None``:
    #: the rows are built.
    keys: Optional[_Keys]
    limit: Optional[int]
    columns: Tuple[ResultColumn, ...]

    def run(
        self, literals: Sequence[Any], plan: Optional[QueryPlan] = None
    ) -> Optional[Tuple[List[_Scan], Optional[int]]]:
        """The scans and the row count, or ``None``: given no ``plan``,
        a mask declined (see :meth:`_ScanStep.run`).  The count is
        ``None`` where it takes the rows: numpy is absent, or the arrays
        cannot take the join or group keys exactly."""
        scans: List[_Scan] = []
        for step in self.steps:
            scan = step.run(self.provider, literals, plan)
            if scan is None:
                return None
            scans.append(scan)
        if self.keys is None or not vectorized.HAVE_NUMPY:
            return scans, None
        join, group = self.keys
        count: Optional[int] = scans[0].count
        if join is not None:
            left, right = scans
            count = vectorized.equi_join_count(
                (left.table, join[0], left.positions),
                (right.table, join[1], right.positions),
            ) if left.count and right.count else 0
        if group is not None and count is not None:
            # No GROUP BY makes one group, also over no rows.
            count = vectorized.group_count(
                scans[0].table, group, scans[0].positions
            ) if group else 1
        if count is not None and self.limit is not None:
            count = min(count, self.limit)
        return scans, count

    def __call__(self, literals: Sequence[Any]) -> Optional[int]:
        """The row count (what a shape's first-rebind check compares)."""
        counted = self.run(literals)
        return None if counted is None else counted[1]


def _compile(provider: Any, plan: QueryPlan) -> CountProgram:
    """``plan``'s program: its scans, lowered with each literal read
    from its text-order slot, and how positions count its rows."""
    slots = {id(node): slot for slot, node in enumerate(literal_nodes(plan.statement))}
    return CountProgram(
        provider,
        tuple(
            _compile_scan(entry, plan.local_predicates.get(entry.binding, []), slots)
            for entry in plan.scope
        ),
        _count_keys(plan),
        plan.statement.limit,
        tuple(
            ResultColumn(name=out.name, width=out.width, source=out.source)
            for out in plan.outputs
        ),
    )


def _count_keys(plan: QueryPlan) -> Optional[_Keys]:
    """The keys positions count ``plan``'s rows by, or ``None``: its
    rows must be built.

    A plan counts when its row count is that of its scan, of its two
    scans' one-key inner join, or of the groups of one scan's bare
    columns, and no output, sort key or aggregate argument can fail on
    a row.  The tail's statement-only errors are met here by running
    :func:`_aggregate` and :func:`_order` over *no rows*; such a plan
    has its rows built, which raises them as a reader of its rows would.
    """
    statement = plan.statement
    scope: Sequence[ScopeEntry] = plan.scope
    if (
        plan.residual_predicates
        or statement.distinct
        or statement.having is not None
        # LEFT JOIN and cartesian products have no edge.
        or (len(scope), len(plan.join_edges)) not in ((1, 0), (2, 1))
        # A literal the tail reads (select list, GROUP BY, ORDER BY)
        # would make the checks below functions of its value.
        or literal_nodes(replace(statement, joins=(), where=None))
    ):
        return None
    join = None
    if plan.join_edges:
        (edge,), _ = _edges_for(
            plan.join_edges, {scope[0].binding.lower()}, scope[1].binding
        )
        join = (edge.left_column, edge.right_column)
    outputs = plan.outputs
    order_exprs = [item.expr for item in statement.order_by]
    layout = scope[0].layout
    for entry in scope[1:]:
        layout = _merge_layouts(layout, entry.layout)
    try:
        if plan.has_aggregates:
            calls: List[FuncCall] = []
            for expr in [out.expr for out in outputs] + order_exprs:
                _collect_aggregates(expr, calls)
            for call in calls:
                if call.star or len(call.args) != 1:
                    continue  # the arity error is _aggregate's to raise
                # SUM concatenates strings and MIN/MAX compare them; AVG
                # divides.
                check = _is_numeric if call.name.lower() == "avg" else _cannot_raise
                if not check(call.args[0], scope):
                    return None
            if statement.group_by and (
                len(scope) != 1
                or not all(isinstance(expr, ColumnRef) for expr in statement.group_by)
            ):
                return None
            _, layout, outputs, order_exprs = _aggregate(plan, [], layout)
            # Over the aggregated layout only a value taken as it is
            # cannot fail (MIN(name) + 1 would): no column is numeric.
            scope = ()
        if order_exprs:
            _order(
                [], [], layout, outputs, order_exprs, statement.order_by,
                plan.has_aggregates, False,
            )
    except (PlanError, ExecutionError):
        return None
    if not all(
        _cannot_raise(expr, scope)
        for expr in [out.expr for out in outputs] + order_exprs
    ):
        return None
    group = (
        tuple(expr.column for expr in statement.group_by)
        if plan.has_aggregates
        else None
    )
    return join, group


def _cannot_raise(expr: Expr, scope: Sequence[ScopeEntry]) -> bool:
    """Whether evaluating ``expr`` on any row is certain not to fail:
    a bare column, a literal, or arithmetic over numeric operands."""
    return isinstance(expr, (ColumnRef, Literal)) or _is_numeric(expr, scope)


def _is_numeric(expr: Expr, scope: Sequence[ScopeEntry]) -> bool:
    """``+ - * / %`` over numeric-typed columns of ``scope`` and number
    (or NULL) literals: NULL propagates and a zero divisor gives NULL."""
    if isinstance(expr, Literal):
        return expr.value is None or isinstance(expr.value, (int, float))
    if isinstance(expr, ColumnRef):
        # Every column the name can mean: an ambiguous one never gets
        # here (the planner, or ORDER BY resolution, refuses it first).
        types = [
            entry.schema.column(expr.column).ctype
            for entry in scope
            if expr.column in entry.schema
            and (expr.table or entry.binding).lower() == entry.binding.lower()
        ]
        return bool(types) and ColumnType.STRING not in types
    if isinstance(expr, UnaryOp):
        return expr.op == "-" and _is_numeric(expr.operand, scope)
    if isinstance(expr, BinaryOp):
        return (
            expr.op in ("+", "-", "*", "/", "%")
            and _is_numeric(expr.left, scope)
            and _is_numeric(expr.right, scope)
        )
    return False


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------

def _join_all(
    plan: QueryPlan, scans: List[_Scan]
) -> Tuple[List[Tuple[Any, ...]], RowLayout]:
    """Join the scans' rows left-to-right using hash joins on the
    extracted equi-join edges (cartesian product when no edge applies)."""
    entries = plan.scope
    rows, layout = scans[0].rows(), scans[0].layout
    joined = {entries[0].binding.lower()}
    remaining_edges = list(plan.join_edges)

    for entry, scan in zip(entries[1:], scans[1:]):
        right_rows, right_layout = scan.rows(), scan.layout
        merged_layout = _merge_layouts(layout, right_layout)
        if entry.join_kind == "left":
            rows = _left_outer_join(
                rows, layout, right_rows, right_layout,
                merged_layout, entry,
            )
        else:
            edges, remaining_edges = _edges_for(
                remaining_edges, joined, entry.binding
            )
            if edges:
                rows = _hash_join(
                    rows, layout, right_rows, right_layout, edges,
                    entry.binding,
                )
            else:
                rows = [
                    left + right for left in rows for right in right_rows
                ]
        layout = merged_layout
        joined.add(entry.binding.lower())

    # Edges never attached to a join step (e.g. both sides already joined
    # via another path) become post-join filters.
    for edge in remaining_edges:
        left_pos = layout.position(edge.left_column, edge.left_binding)
        right_pos = layout.position(edge.right_column, edge.right_binding)
        rows = [
            row
            for row in rows
            if row[left_pos] is not None and row[left_pos] == row[right_pos]
        ]
    return rows, layout


def _edges_for(
    edges: List[JoinEdge], joined: set, new_binding: str
) -> Tuple[List[Tuple[int, int, bool]], List[JoinEdge]]:
    """Partition edges into those usable for joining ``new_binding`` now.

    Returns (usable, remaining); usable entries are raw edges re-expressed
    later by the caller.
    """
    new_key = new_binding.lower()
    usable: List[JoinEdge] = []
    remaining: List[JoinEdge] = []
    for edge in edges:
        left = edge.left_binding.lower()
        right = edge.right_binding.lower()
        if left in joined and right == new_key:
            usable.append(edge)
        elif right in joined and left == new_key:
            usable.append(
                JoinEdge(
                    left_binding=edge.right_binding,
                    left_column=edge.right_column,
                    right_binding=edge.left_binding,
                    right_column=edge.left_column,
                )
            )
        else:
            remaining.append(edge)
    return usable, remaining


def _merge_layouts(left: RowLayout, right: RowLayout) -> RowLayout:
    merged = RowLayout()
    for binding, column in left.slots:
        merged.add(binding, column)
    for binding, column in right.slots:
        merged.add(binding, column)
    return merged


def _hash_index(
    rows: List[Tuple[Any, ...]], positions: List[int]
) -> Dict[Any, List[Tuple[Any, ...]]]:
    """``rows`` by their key ``itemgetter(*positions)``: the value of
    one column, the tuple of several.

    NULL never joins: keys holding one are dropped, so a probe with a
    NULL finds nothing.
    """
    key_of = itemgetter(*positions)
    index: Dict[Any, List[Tuple[Any, ...]]] = {}
    for row in rows:
        index.setdefault(key_of(row), []).append(row)
    if len(positions) == 1:
        index.pop(None, None)
    else:
        for key in [key for key in index if None in key]:
            del index[key]
    return index


def _hash_join(
    left_rows: List[Tuple[Any, ...]],
    left_layout: RowLayout,
    right_rows: List[Tuple[Any, ...]],
    right_layout: RowLayout,
    edges: List[JoinEdge],
    right_binding: str,
) -> List[Tuple[Any, ...]]:
    left_key = itemgetter(
        *(
            left_layout.position(edge.left_column, edge.left_binding)
            for edge in edges
        )
    )
    index = _hash_index(
        right_rows,
        [
            right_layout.position(edge.right_column, right_binding)
            for edge in edges
        ],
    )
    return [
        row + match
        for row in left_rows
        for match in index.get(left_key(row), ())
    ]


def _left_outer_join(
    left_rows: List[Tuple[Any, ...]],
    left_layout: RowLayout,
    right_rows: List[Tuple[Any, ...]],
    right_layout: RowLayout,
    merged_layout: RowLayout,
    entry: "ScopeEntry",
) -> List[Tuple[Any, ...]]:
    """LEFT OUTER JOIN: every left row survives; unmatched ones get the
    right side NULL-padded.  Equality conjuncts of the ON condition that
    link the two sides drive a hash index; any remaining ON conjuncts
    are evaluated per candidate pair.
    """
    from repro.sqlengine.expressions import split_conjuncts

    condition = entry.join_condition
    conjuncts = split_conjuncts(condition)
    binding_key = entry.binding.lower()

    # Split ON into hashable equi pairs vs. everything else.
    left_positions: List[int] = []
    right_positions: List[int] = []
    residual: List[Expr] = []
    for conjunct in conjuncts:
        pair = _equi_pair(
            conjunct, left_layout, right_layout, binding_key
        )
        if pair is None:
            residual.append(conjunct)
        else:
            left_positions.append(pair[0])
            right_positions.append(pair[1])

    residual_funcs = [
        compile_expr(expr, merged_layout) for expr in residual
    ]
    padding = (None,) * right_layout.width

    index: Optional[Dict[Any, List[Tuple[Any, ...]]]] = None
    if left_positions:
        left_key = itemgetter(*left_positions)
        index = _hash_index(right_rows, right_positions)

    output: List[Tuple[Any, ...]] = []
    for left_row in left_rows:
        if index is not None:
            candidates = index.get(left_key(left_row), [])
        else:
            candidates = right_rows
        matched = False
        for right_row in candidates:
            combined = left_row + right_row
            if all(func(combined) is True for func in residual_funcs):
                output.append(combined)
                matched = True
        if not matched:
            output.append(left_row + padding)
    return output


def _equi_pair(
    conjunct: Expr,
    left_layout: RowLayout,
    right_layout: RowLayout,
    right_binding: str,
) -> Optional[Tuple[int, int]]:
    """(left_pos, right_pos) when ``conjunct`` is col = col across the
    join boundary; None otherwise."""
    if not (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    for first, second in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        try:
            if (
                second.table is not None
                and second.table.lower() == right_binding
            ):
                left_pos = left_layout.position(first.column, first.table)
                right_pos = right_layout.position(
                    second.column, second.table
                )
                return left_pos, right_pos
        except PlanError:
            continue
    return None


def _filter(
    rows: List[Tuple[Any, ...]], predicates: List[Expr], layout: RowLayout
) -> List[Tuple[Any, ...]]:
    compiled = [compile_expr(pred, layout) for pred in predicates]
    return [
        row for row in rows if all(func(row) is True for func in compiled)
    ]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

_GROUP_BINDING = "#group"
_AGG_BINDING = "#agg"


def _collect_aggregates(expr: Expr, out: List[FuncCall]) -> None:
    if isinstance(expr, FuncCall):
        from repro.sqlengine.ast_nodes import AGGREGATE_FUNCTIONS

        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            if expr not in out:
                out.append(expr)
            return
        # Scalar function: aggregates may hide inside its arguments
        # (e.g. FLOOR(AVG(x))).
        for arg in expr.args:
            _collect_aggregates(arg, out)
        return
    if isinstance(expr, BinaryOp):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, BetweenOp):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.low, out)
        _collect_aggregates(expr.high, out)
    elif isinstance(expr, InOp):
        _collect_aggregates(expr.operand, out)
        for item in expr.items:
            _collect_aggregates(item, out)
    elif isinstance(expr, IsNullOp):
        _collect_aggregates(expr.operand, out)


def _substitute(expr: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Replace subtrees structurally equal to a mapping key (top-down)."""
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _substitute(expr.left, mapping),
            _substitute(expr.right, mapping),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _substitute(expr.operand, mapping))
    if isinstance(expr, BetweenOp):
        return BetweenOp(
            _substitute(expr.operand, mapping),
            _substitute(expr.low, mapping),
            _substitute(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, InOp):
        return InOp(
            _substitute(expr.operand, mapping),
            tuple(_substitute(item, mapping) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, IsNullOp):
        return IsNullOp(_substitute(expr.operand, mapping), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name,
            args=tuple(_substitute(arg, mapping) for arg in expr.args),
            star=expr.star,
            distinct=expr.distinct,
        )
    return expr


def _aggregate(
    plan: QueryPlan,
    rows: List[Tuple[Any, ...]],
    layout: RowLayout,
) -> Tuple[
    List[Tuple[Any, ...]], RowLayout, List[OutputColumn], List[Expr]
]:
    """Group, accumulate, and rewrite outputs over the aggregated layout."""
    statement = plan.statement

    agg_calls: List[FuncCall] = []
    for out in plan.outputs:
        _collect_aggregates(out.expr, agg_calls)
    if statement.having is not None:
        _collect_aggregates(statement.having, agg_calls)
    for item in statement.order_by:
        _collect_aggregates(item.expr, agg_calls)

    group_exprs = list(statement.group_by)
    group_funcs = [compile_expr(expr, layout) for expr in group_exprs]
    agg_arg_funcs: List[Optional[Callable]] = []
    for call in agg_calls:
        if call.star:
            agg_arg_funcs.append(None)
        else:
            if len(call.args) != 1:
                raise PlanError(
                    f"aggregate {call.name!r} takes exactly one argument"
                )
            agg_arg_funcs.append(compile_expr(call.args[0], layout))

    groups: Dict[Tuple[Any, ...], List[Any]] = {}
    group_order: List[Tuple[Any, ...]] = []
    for row in rows:
        key = tuple(func(row) for func in group_funcs)
        if key not in groups:
            groups[key] = [
                make_aggregate(call.name, call.distinct)
                for call in agg_calls
            ]
            group_order.append(key)
        accumulators = groups[key]
        for accumulator, arg_func in zip(accumulators, agg_arg_funcs):
            value = 1 if arg_func is None else arg_func(row)
            accumulator.add(value)

    if not group_exprs and not groups:
        # Aggregate over an empty input still yields one row.
        groups[()] = [
            make_aggregate(call.name, call.distinct) for call in agg_calls
        ]
        group_order.append(())

    agg_layout = RowLayout()
    mapping: Dict[Expr, Expr] = {}
    for i, expr in enumerate(group_exprs):
        agg_layout.add(_GROUP_BINDING, f"g{i}")
        mapping[expr] = ColumnRef(column=f"g{i}", table=_GROUP_BINDING)
    for j, call in enumerate(agg_calls):
        agg_layout.add(_AGG_BINDING, f"a{j}")
        mapping[call] = ColumnRef(column=f"a{j}", table=_AGG_BINDING)

    agg_rows: List[Tuple[Any, ...]] = []
    for key in group_order:
        agg_rows.append(
            key + tuple(acc.result() for acc in groups[key])
        )

    if statement.having is not None:
        having_expr = _substitute(statement.having, mapping)
        having_func = compile_expr(having_expr, agg_layout)
        agg_rows = [row for row in agg_rows if having_func(row) is True]

    outputs: List[OutputColumn] = []
    for out in plan.outputs:
        rewritten = _substitute(out.expr, mapping)
        _check_fully_aggregated(rewritten, out.name)
        outputs.append(
            OutputColumn(
                name=out.name,
                expr=rewritten,
                width=out.width,
                source=out.source,
            )
        )
    order_exprs = [
        _substitute(item.expr, mapping) for item in statement.order_by
    ]
    return agg_rows, agg_layout, outputs, order_exprs


def _check_fully_aggregated(expr: Expr, name: str) -> None:
    """After substitution, any leftover base-table column reference means a
    non-aggregated column was selected without being in GROUP BY."""
    if isinstance(expr, ColumnRef):
        if expr.table not in (_GROUP_BINDING, _AGG_BINDING):
            raise PlanError(
                f"column {expr.display()!r} in output {name!r} must appear "
                "in GROUP BY or inside an aggregate"
            )
        return
    if isinstance(expr, BinaryOp):
        _check_fully_aggregated(expr.left, name)
        _check_fully_aggregated(expr.right, name)
    elif isinstance(expr, UnaryOp):
        _check_fully_aggregated(expr.operand, name)
    elif isinstance(expr, BetweenOp):
        _check_fully_aggregated(expr.operand, name)
        _check_fully_aggregated(expr.low, name)
        _check_fully_aggregated(expr.high, name)
    elif isinstance(expr, InOp):
        _check_fully_aggregated(expr.operand, name)
        for item in expr.items:
            _check_fully_aggregated(item, name)
    elif isinstance(expr, IsNullOp):
        _check_fully_aggregated(expr.operand, name)
    elif isinstance(expr, FuncCall):
        from repro.sqlengine.ast_nodes import AGGREGATE_FUNCTIONS

        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"nested aggregate in output {name!r} is not supported"
            )
        for arg in expr.args:
            _check_fully_aggregated(arg, name)


# ----------------------------------------------------------------------
# Projection, distinct, order
# ----------------------------------------------------------------------

def _project(
    rows: List[Tuple[Any, ...]],
    layout: RowLayout,
    outputs: List[OutputColumn],
) -> List[Tuple[Any, ...]]:
    if outputs and all(
        isinstance(out.expr, ColumnRef) for out in outputs
    ):
        # Pure-column projection (the common case by far): one tuple
        # slice per row instead of one closure call per cell.
        positions = [
            layout.position(out.expr.column, out.expr.table)
            for out in outputs
        ]
        if len(positions) == 1:
            pos = positions[0]
            return [(row[pos],) for row in rows]
        from operator import itemgetter

        getter = itemgetter(*positions)
        return [getter(row) for row in rows]
    funcs = [compile_expr(out.expr, layout) for out in outputs]
    return [tuple(func(row) for func in funcs) for row in rows]


def _distinct(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    seen = set()
    output = []
    for row in rows:
        if row in seen:
            continue
        seen.add(row)
        output.append(row)
    return output


def _sort_key(value: Any) -> Tuple[int, Any]:
    """NULLs sort first; values must be mutually comparable otherwise."""
    if value is None:
        return (0, 0)
    return (1, value)


def _order(
    projected: List[Tuple[Any, ...]],
    source_rows: List[Tuple[Any, ...]],
    layout: RowLayout,
    outputs: List[OutputColumn],
    order_exprs: List[Expr],
    order_items: Sequence[OrderItem],
    aggregated: bool,
    was_distinct: bool,
) -> List[Tuple[Any, ...]]:
    """Sort projected rows.

    ORDER BY expressions are evaluated against the projected output when
    they match an output alias/column, otherwise against the source rows
    (only possible when projection is row-for-row, i.e. no DISTINCT).
    """
    key_funcs: List[Callable[[int], Any]] = []
    output_index = {
        out.name.lower(): i for i, out in enumerate(outputs)
    }
    for expr, item in zip(order_exprs, order_items):
        func = _order_key_func(
            expr, projected, source_rows, layout, output_index, was_distinct
        )
        key_funcs.append(func)

    decorated = list(range(len(projected)))

    def full_key(i: int) -> Tuple[Any, ...]:
        parts = []
        for func, item in zip(key_funcs, order_items):
            marker, value = _sort_key(func(i))
            if not item.ascending:
                marker = -marker
                value = _Reversed(value)
            parts.append((marker, value))
        return tuple(parts)

    decorated.sort(key=full_key)
    return [projected[i] for i in decorated]


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        try:
            return other.value < self.value
        except TypeError as exc:
            raise ExecutionError(
                f"cannot order {self.value!r} vs {other.value!r}"
            ) from exc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _order_key_func(
    expr: Expr,
    projected: List[Tuple[Any, ...]],
    source_rows: List[Tuple[Any, ...]],
    layout: RowLayout,
    output_index: Dict[str, int],
    was_distinct: bool,
) -> Callable[[int], Any]:
    if isinstance(expr, ColumnRef) and expr.table is None:
        pos = output_index.get(expr.column.lower())
        if pos is not None:
            return lambda i: projected[i][pos]
    try:
        compiled = compile_expr(expr, layout)
    except PlanError:
        raise
    if was_distinct and len(projected) != len(source_rows):
        raise PlanError(
            "ORDER BY over non-selected expressions is incompatible with "
            "DISTINCT"
        )
    return lambda i: compiled(source_rows[i])
