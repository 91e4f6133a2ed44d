"""Query planning: binding, predicate pushdown, and join-edge extraction.

The planner turns a parsed :class:`SelectStatement` into a
:class:`QueryPlan`:

* FROM/JOIN relations are bound against the catalog and given scope
  bindings (alias or table name);
* the WHERE clause is split into conjuncts, each classified as a
  single-relation *local* predicate (pushed below the join), an equi-join
  edge (executed as a hash join), or a residual predicate evaluated on the
  joined rows;
* SELECT stars are expanded, aliases recorded, and aggregate usage
  validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import PlanError
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    SelectItem,
    SelectStatement,
    column_refs,
    is_aggregate,
)
from repro.sqlengine.expressions import RowLayout, split_conjuncts
from repro.sqlengine.schema import TableSchema

_Fact = TypeVar("_Fact")


@dataclass(frozen=True)
class ScopeEntry:
    """One relation in the query scope.

    ``join_kind`` is ``"inner"`` for FROM-list tables and inner joins;
    left-joined tables carry ``"left"`` plus their raw ON condition
    (which must not merge into the global predicate pool — it only
    governs matching, never filters the preserved side).
    """

    binding: str          # alias or table name used to qualify columns
    table_name: str       # underlying catalog table
    schema: TableSchema
    join_kind: str = "inner"
    join_condition: Optional[Expr] = None

    @cached_property
    def layout(self) -> RowLayout:
        """The row layout of this relation's scan (shared: read-only)."""
        layout = RowLayout()
        for col in self.schema.columns:
            layout.add(self.binding, col.name)
        return layout


@dataclass(frozen=True)
class JoinEdge:
    """An equality join condition ``left_binding.col = right_binding.col``."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str


@dataclass(frozen=True)
class OutputColumn:
    """One output column of the projection.

    ``source`` is the (table_name, column_name) provenance when the output
    is a bare column reference — the yield model uses it to attribute
    result bytes to cacheable objects.  ``width`` is the byte width used
    for yield computation.
    """

    name: str
    expr: Expr
    width: int
    source: Optional[Tuple[str, str]] = None


class ShapeFacts:
    """What is known about a query's *shape*, filled on first use.

    Which columns a statement names, how its yield divides among them,
    where its tables live and how its selectivity is priced depend on
    the statement's structure, never on its literal values, so every
    plan rebound from one shape template shares one record; a plan
    from outside the shape cache owns a private one and runs the same
    code unshared.  A fact is either plain data or a function of the
    literal values (the yield estimator's program).

    :meth:`fill` is the only writer (RPR004 contract ``ShapeFacts``).
    """

    __slots__ = ("_facts",)

    def __init__(self) -> None:
        # name -> (owner, compute, value)
        self._facts: Dict[
            str, Tuple[object, Callable[["QueryPlan"], Any], Any]
        ] = {}

    def fill(
        self,
        name: str,
        compute: Callable[["QueryPlan"], _Fact],
        plan: "QueryPlan",
        owner: object = None,
    ) -> _Fact:
        """The fact ``name``, computed from ``plan`` if not yet held.

        ``owner`` is the object a fact additionally depends on (the
        estimator whose statistics a program embeds, the mediator whose
        federation routes the tables); a fact held for another owner is
        recomputed.  The value is shared: hand out only immutables.
        """
        held = self._facts.get(name)
        if held is not None and held[0] is owner:
            value: _Fact = held[2]
            return value
        value = compute(plan)
        self._facts[name] = (owner, compute, value)
        return value

    def confirmed_by(
        self,
        fresh: "QueryPlan",
        fresh_literals: Sequence[Any],
        literals: Sequence[Any],
    ) -> bool:
        """Whether every held fact equals its recomputation from
        ``fresh`` alone — data by ``==``, functions of the literals by
        their value on ``literals`` against the recomputed function's
        on ``fresh_literals``."""
        for _, compute, value in self._facts.values():
            again = compute(fresh)
            if callable(value):
                if value(literals) != again(fresh_literals):
                    return False
            elif again != value:
                return False
        return True


#: The plan fields that hold (or are built from) expression trees.
_TREE_FIELDS = (
    "statement",
    "scope",
    "local_predicates",
    "join_edges",
    "residual_predicates",
    "outputs",
    "has_aggregates",
    "group_by",
)


class QueryPlan:
    """Everything the executor needs, fully bound.

    Besides the trees a plan carries ``facts`` (its shape's
    :class:`ShapeFacts`) and ``literals`` (its literal values in text
    order when a shape template produced it, else ``None`` — walk the
    statement).  A plan made by :meth:`deferred` builds its trees on
    the first read of any tree field; pricing and attribution need only
    ``facts`` and ``literals`` and never trigger that.
    """

    __slots__ = _TREE_FIELDS + ("facts", "literals", "_bind")

    statement: SelectStatement
    scope: List[ScopeEntry]
    local_predicates: Dict[str, List[Expr]]
    join_edges: List[JoinEdge]
    residual_predicates: List[Expr]
    outputs: List[OutputColumn]
    has_aggregates: bool
    group_by: Tuple[Expr, ...]
    facts: ShapeFacts
    literals: Optional[List[Any]]

    def __init__(
        self,
        statement: SelectStatement,
        scope: List[ScopeEntry],
        local_predicates: Dict[str, List[Expr]],
        join_edges: List[JoinEdge],
        residual_predicates: List[Expr],
        outputs: List[OutputColumn],
        has_aggregates: bool,
        group_by: Tuple[Expr, ...] = (),
    ) -> None:
        self.statement = statement
        self.scope = scope
        self.local_predicates = local_predicates
        self.join_edges = join_edges
        self.residual_predicates = residual_predicates
        self.outputs = outputs
        self.has_aggregates = has_aggregates
        self.group_by = group_by
        self.facts = ShapeFacts()
        self.literals = None
        self._bind: Optional[Callable[[List[Any]], "QueryPlan"]] = None

    @classmethod
    def deferred(
        cls,
        facts: ShapeFacts,
        literals: List[Any],
        bind: Callable[[List[Any]], "QueryPlan"],
    ) -> "QueryPlan":
        """A plan of a known shape whose trees are ``bind(literals)``,
        built on first read."""
        plan = cls.__new__(cls)
        plan.facts = facts
        plan.literals = literals
        plan._bind = bind
        return plan

    def __getattr__(self, name: str) -> Any:
        # Reached only when a slot is unset: a deferred plan's first
        # tree read.  Filling the slots makes every later read direct.
        if name not in _TREE_FIELDS:
            raise AttributeError(name)
        bind, literals = self._bind, self.literals
        if bind is None or literals is None:
            raise AttributeError(name)
        built = bind(literals)
        for field_name in _TREE_FIELDS:
            setattr(self, field_name, getattr(built, field_name))
        self._bind = None
        return getattr(self, name)

    def __eq__(self, other: object) -> bool:
        """Equality of the (materialized) trees, as the dataclass this
        class used to be compared them."""
        if not isinstance(other, QueryPlan):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in _TREE_FIELDS
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in _TREE_FIELDS
        )
        return f"QueryPlan({body})"


def plan_select(
    statement: SelectStatement, schemas: "SchemaLookup"
) -> QueryPlan:
    """Bind and plan a SELECT statement.

    Args:
        statement: Parsed statement.
        schemas: Anything with a ``table_schema(name) -> TableSchema``
            method (catalogs and federations both provide one).

    Raises:
        PlanError: unknown/ambiguous names, bad aggregate usage.
    """
    scope = _build_scope(statement, schemas)
    bindings = {entry.binding.lower(): entry for entry in scope}
    left_bindings = {
        entry.binding for entry in scope if entry.join_kind == "left"
    }

    conjuncts: List[Expr] = list(split_conjuncts(statement.where))
    for join in statement.joins:
        if join.kind == "inner":
            conjuncts.extend(split_conjuncts(join.condition))
        else:
            # Left-join ON conditions stay attached to the scope entry;
            # validate their column references here.
            for ref in column_refs(join.condition):
                _resolve_binding(ref, scope, bindings)

    local: Dict[str, List[Expr]] = {entry.binding: [] for entry in scope}
    edges: List[JoinEdge] = []
    residual: List[Expr] = []

    for conjunct in conjuncts:
        placed = _classify_conjunct(conjunct, scope, bindings)
        if placed[0] == "local" and placed[1] not in left_bindings:
            local[placed[1]].append(conjunct)
        elif placed[0] == "edge" and not (
            {placed[1].left_binding, placed[1].right_binding}
            & left_bindings
        ):
            edges.append(placed[1])
        else:
            # WHERE predicates touching a left-joined relation evaluate
            # after NULL padding, so they cannot be pushed below it.
            residual.append(conjunct)

    outputs = _expand_outputs(statement, scope)
    has_aggregates = bool(statement.group_by) or any(
        out.expr is not None and is_aggregate(out.expr) for out in outputs
    )
    if statement.having is not None and not has_aggregates:
        raise PlanError("HAVING requires GROUP BY or aggregates")

    _validate_column_refs(statement, scope, outputs)

    return QueryPlan(
        statement=statement,
        scope=scope,
        local_predicates=local,
        join_edges=edges,
        residual_predicates=residual,
        outputs=outputs,
        has_aggregates=has_aggregates,
        group_by=statement.group_by,
    )


class SchemaLookup:
    """Adapter giving the planner schema lookup over a dict of schemas."""

    def __init__(self, tables: Dict[str, TableSchema]) -> None:
        self._tables = {key.lower(): value for key, value in tables.items()}

    @classmethod
    def from_catalog(cls, catalog: "CatalogLike") -> "SchemaLookup":
        tables = {t.name: t.schema for t in catalog.tables()}
        return cls(tables)

    def table_schema(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise PlanError(f"unknown table {name!r}") from None


class CatalogLike:  # pragma: no cover - typing helper only
    def tables(self) -> Sequence[object]:
        raise NotImplementedError


def _build_scope(
    statement: SelectStatement, schemas: SchemaLookup
) -> List[ScopeEntry]:
    scope: List[ScopeEntry] = []
    seen: Set[str] = set()

    def add(ref, kind: str, condition: Optional[Expr]) -> None:
        schema = schemas.table_schema(ref.table)
        binding = ref.binding
        if binding.lower() in seen:
            raise PlanError(f"duplicate table binding {binding!r}")
        seen.add(binding.lower())
        scope.append(
            ScopeEntry(
                binding=binding,
                table_name=schema.name,
                schema=schema,
                join_kind=kind,
                join_condition=condition,
            )
        )

    for ref in statement.tables:
        add(ref, "inner", None)
    for join in statement.joins:
        condition = join.condition if join.kind != "inner" else None
        add(join.table, join.kind, condition)
    return scope


def _resolve_binding(
    ref: ColumnRef,
    scope: List[ScopeEntry],
    bindings: Dict[str, ScopeEntry],
) -> str:
    """The scope binding that owns ``ref``.

    Raises:
        PlanError: unknown or ambiguous column.
    """
    if ref.table is not None:
        entry = bindings.get(ref.table.lower())
        if entry is None:
            raise PlanError(f"unknown table or alias {ref.table!r}")
        if ref.column not in entry.schema:
            raise PlanError(
                f"table {entry.table_name!r} has no column {ref.column!r}"
            )
        return entry.binding
    owners = [
        entry for entry in scope if ref.column in entry.schema
    ]
    if not owners:
        raise PlanError(f"unknown column {ref.column!r}")
    if len(owners) > 1:
        names = ", ".join(entry.binding for entry in owners)
        raise PlanError(f"ambiguous column {ref.column!r} (in {names})")
    return owners[0].binding


def _classify_conjunct(
    conjunct: Expr,
    scope: List[ScopeEntry],
    bindings: Dict[str, ScopeEntry],
):
    """Classify one WHERE conjunct as local, join edge, or residual."""
    refs = column_refs(conjunct)
    owner_bindings = {
        _resolve_binding(ref, scope, bindings) for ref in refs
    }
    if len(owner_bindings) == 1:
        return ("local", owner_bindings.pop())
    if (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
        and len(owner_bindings) == 2
    ):
        left_binding = _resolve_binding(conjunct.left, scope, bindings)
        right_binding = _resolve_binding(conjunct.right, scope, bindings)
        return (
            "edge",
            JoinEdge(
                left_binding=left_binding,
                left_column=conjunct.left.column,
                right_binding=right_binding,
                right_column=conjunct.right.column,
            ),
        )
    if not owner_bindings:
        # Constant predicate; evaluate on joined rows (cheap anyway).
        return ("residual", None)
    return ("residual", None)


def _expand_outputs(
    statement: SelectStatement, scope: List[ScopeEntry]
) -> List[OutputColumn]:
    outputs: List[OutputColumn] = []
    for item in statement.items:
        if item.star:
            outputs.extend(_expand_star(item, scope))
            continue
        expr = item.expr
        assert expr is not None
        name = item.alias or _default_name(expr, len(outputs))
        width, source = _output_width(expr, scope)
        outputs.append(
            OutputColumn(name=name, expr=expr, width=width, source=source)
        )
    return outputs


def _expand_star(
    item: SelectItem, scope: List[ScopeEntry]
) -> List[OutputColumn]:
    if item.table is not None:
        entries = [
            entry
            for entry in scope
            if entry.binding.lower() == item.table.lower()
        ]
        if not entries:
            raise PlanError(f"unknown table or alias {item.table!r} in *")
    else:
        entries = list(scope)
    outputs: List[OutputColumn] = []
    for entry in entries:
        for col in entry.schema.columns:
            ref = ColumnRef(column=col.name, table=entry.binding)
            outputs.append(
                OutputColumn(
                    name=col.name,
                    expr=ref,
                    width=col.width,
                    source=(entry.table_name, col.name),
                )
            )
    return outputs


def _default_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, FuncCall):
        return expr.name
    return f"expr_{index}"


_DEFAULT_EXPR_WIDTH = 8


def _output_width(
    expr: Expr, scope: List[ScopeEntry]
) -> Tuple[int, Optional[Tuple[str, str]]]:
    """Byte width (and provenance) of one output expression.

    Bare column references inherit the column's declared width and record
    provenance; computed expressions are priced at 8 bytes (a double/
    bigint), which matches how the paper sizes derived values.
    """
    if isinstance(expr, ColumnRef):
        bindings = {entry.binding.lower(): entry for entry in scope}
        binding = _resolve_binding(expr, scope, bindings)
        entry = bindings[binding.lower()]
        col = entry.schema.column(expr.column)
        return col.width, (entry.table_name, col.name)
    return _DEFAULT_EXPR_WIDTH, None


def _validate_column_refs(
    statement: SelectStatement,
    scope: List[ScopeEntry],
    outputs: List[OutputColumn],
) -> None:
    bindings = {entry.binding.lower(): entry for entry in scope}
    exprs: List[Expr] = [out.expr for out in outputs]
    if statement.where is not None:
        exprs.append(statement.where)
    exprs.extend(statement.group_by)
    if statement.having is not None:
        exprs.append(statement.having)
    for join in statement.joins:
        exprs.append(join.condition)
    alias_names = {
        (out.name or "").lower() for out in outputs
    }
    for expr in exprs:
        for ref in column_refs(expr):
            try:
                _resolve_binding(ref, scope, bindings)
            except PlanError:
                if ref.table is None and ref.column.lower() in alias_names:
                    continue  # references a select alias; allowed downstream
                raise
