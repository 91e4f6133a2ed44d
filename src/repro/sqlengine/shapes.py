"""Shape-keyed plan caching: parse and plan each query *template* once.

Scientific workloads rarely repeat exact SQL, but they repeat query
*shapes* constantly: a million-query trace is a handful of templates
instantiated with different literals (Section 6.1).  Exact-SQL plan
caches miss almost always; this module caches by shape instead.

A query's **shape** is its text with every number and string literal
replaced by ``?`` (``TOP``/``LIMIT`` counts excepted — those bake into
the statement as plain ints, so they stay part of the shape).  The first
query of a shape is parsed and planned normally and becomes the shape's
*template*; subsequent queries of the same shape skip the lexer, parser,
and planner entirely — their literal values are extracted with one
C-speed regex pass, and the plan handed back carries just those values
and the shape's shared :class:`~repro.sqlengine.planner.ShapeFacts`.
Pricing, attribution and counting need nothing else; the trees are
*rebound* into a copy of the template's AST and plan on first read (the
executor's, when a scan filters row at a time or rows are built).

Rebinding is sound because the parse structure is a function of the
shape alone: two queries with the same shape differ only in literal
leaf values, and both the recursive-descent parser and the planner's
conjunct classification are value-independent.  The module does not
take that on faith:

* at cache time, the template's literals (in AST walk order) must match
  the text-extracted values (in text order) positionally — otherwise
  the shape is marked unbindable and every query of that shape takes
  the full parse path;
* the first actual rebind of each shape is verified against a fresh
  ``plan_select(parse(sql))``: the rebound trees must equal the fresh
  ones, and every shared fact must equal its recomputation from the
  fresh plan alone; a mismatch demotes the shape to unbindable.

Either way the planner stays correct; shapes only ever *add* speed.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.sqlengine.ast_nodes import (
    BetweenOp,
    BinaryOp,
    Expr,
    FuncCall,
    InOp,
    IsNullOp,
    Literal,
    SelectStatement,
    UnaryOp,
)
from repro.sqlengine.expressions import split_conjuncts
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import (
    QueryPlan,
    SchemaLookup,
    ShapeFacts,
    plan_select,
)

__all__ = ["ShapePlanner", "query_shape"]

#: Bound on distinct cached shapes (LRU-evicted beyond this).
DEFAULT_MAX_SHAPES = 512

# One pass over the SQL text: protect TOP/LIMIT counts, then replace
# string and number literals with ``?`` while collecting their values.
# The number lookbehind keeps digits inside identifiers (``t1``,
# ``[col2]``) out of the literal stream, mirroring the lexer's rule
# that a number token cannot start inside a word.
_LITERAL_RE = re.compile(
    r"""
    (\b(?:top|limit)\s+\d+)             # 1: shape-protected count
    | ('(?:[^']|'')*')                  # 2: string literal
    | ((?<![\w\]])                      # 3: number literal
       (?:\d+\.\d+|\d+|\.\d+)(?:[eE][+-]?\d+)?)
    """,
    re.IGNORECASE | re.VERBOSE,
)


def query_shape(sql: str) -> Tuple[str, List[Any]]:
    """Split ``sql`` into its shape and the literal values, text order.

    Numbers decode exactly as the lexer does (int unless a dot or
    exponent appears); strings decode ``''`` escapes.
    """
    values: List[Any] = []

    def repl(match: "re.Match[str]") -> str:
        protected, string, number = match.group(1, 2, 3)
        if protected is not None:
            return protected
        if string is not None:
            values.append(string[1:-1].replace("''", "'"))
        elif "." in number or "e" in number or "E" in number:
            values.append(float(number))
        else:
            values.append(int(number))
        return "?"

    return _LITERAL_RE.sub(repl, sql), values


# ----------------------------------------------------------------------
# Literal walks
# ----------------------------------------------------------------------
#
# All walks below visit expressions in *document order* — the order the
# literals appear in the SQL text — which is what lines the AST slots up
# with the text-extracted values.  ``Literal(None)`` (the NULL keyword)
# is not a slot: NULL is part of the shape text.


def _collect_literals(expr: Expr, out: List[Literal]) -> None:
    if isinstance(expr, Literal):
        if expr.value is not None:
            out.append(expr)
    elif isinstance(expr, BinaryOp):
        _collect_literals(expr.left, out)
        _collect_literals(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_literals(expr.operand, out)
    elif isinstance(expr, BetweenOp):
        _collect_literals(expr.operand, out)
        _collect_literals(expr.low, out)
        _collect_literals(expr.high, out)
    elif isinstance(expr, InOp):
        _collect_literals(expr.operand, out)
        for item in expr.items:
            _collect_literals(item, out)
    elif isinstance(expr, IsNullOp):
        _collect_literals(expr.operand, out)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            _collect_literals(arg, out)


def _statement_exprs(statement: SelectStatement) -> List[Expr]:
    """Expression roots in document order: items, ON, WHERE, GROUP BY,
    HAVING, ORDER BY."""
    exprs: List[Expr] = [
        item.expr for item in statement.items if item.expr is not None
    ]
    exprs.extend(join.condition for join in statement.joins)
    if statement.where is not None:
        exprs.append(statement.where)
    exprs.extend(statement.group_by)
    if statement.having is not None:
        exprs.append(statement.having)
    exprs.extend(item.expr for item in statement.order_by)
    return exprs


def literal_nodes(statement: SelectStatement) -> List[Literal]:
    """All rebindable literal nodes in the statement, document order."""
    nodes: List[Literal] = []
    for expr in _statement_exprs(statement):
        _collect_literals(expr, nodes)
    return nodes


def statement_literals(statement: SelectStatement) -> List[Any]:
    """All rebindable literal values in the statement, document order."""
    return [node.value for node in literal_nodes(statement)]


def plan_literals(plan: QueryPlan) -> List[Any]:
    """The plan's literal values in text order: the ones a rebind
    extracted from the SQL, else the statement's own."""
    if plan.literals is None:
        return statement_literals(plan.statement)
    return plan.literals


class _Rebinder:
    """Rebuilds a template expression tree with fresh literal values.

    ``counts`` maps ``id(node)`` to the number of rebindable literals in
    that subtree, precomputed once per template — subtrees with zero
    slots are shared, not copied, so rebinding touches only the paths
    that actually hold literals.
    """

    __slots__ = ("counts", "values", "pos")

    def __init__(self, counts: Dict[int, int]) -> None:
        self.counts = counts
        self.values: List[Any] = []
        self.pos = 0

    def rebind(self, expr: Expr) -> Expr:
        if not self.counts.get(id(expr), 0):
            return expr
        if isinstance(expr, Literal):
            value = self.values[self.pos]
            self.pos += 1
            return Literal(value)
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op, self.rebind(expr.left), self.rebind(expr.right)
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.rebind(expr.operand))
        if isinstance(expr, BetweenOp):
            return BetweenOp(
                self.rebind(expr.operand),
                self.rebind(expr.low),
                self.rebind(expr.high),
                expr.negated,
            )
        if isinstance(expr, InOp):
            return InOp(
                self.rebind(expr.operand),
                tuple(self.rebind(item) for item in expr.items),
                expr.negated,
            )
        if isinstance(expr, IsNullOp):
            return IsNullOp(self.rebind(expr.operand), expr.negated)
        if isinstance(expr, FuncCall):
            return FuncCall(
                expr.name,
                tuple(self.rebind(arg) for arg in expr.args),
                expr.star,
                expr.distinct,
            )
        return expr  # pragma: no cover - exhaustive over Expr


def _count_literals(expr: Expr, counts: Dict[int, int]) -> int:
    if isinstance(expr, Literal):
        total = 0 if expr.value is None else 1
    elif isinstance(expr, BinaryOp):
        total = _count_literals(expr.left, counts) + _count_literals(
            expr.right, counts
        )
    elif isinstance(expr, UnaryOp):
        total = _count_literals(expr.operand, counts)
    elif isinstance(expr, BetweenOp):
        total = (
            _count_literals(expr.operand, counts)
            + _count_literals(expr.low, counts)
            + _count_literals(expr.high, counts)
        )
    elif isinstance(expr, InOp):
        total = _count_literals(expr.operand, counts)
        for item in expr.items:
            total += _count_literals(item, counts)
    elif isinstance(expr, IsNullOp):
        total = _count_literals(expr.operand, counts)
    elif isinstance(expr, FuncCall):
        total = 0
        for arg in expr.args:
            total += _count_literals(arg, counts)
    else:
        total = 0
    counts[id(expr)] = total
    return total


# ----------------------------------------------------------------------
# Shape entries
# ----------------------------------------------------------------------


class _ShapeEntry:
    """One cached template: parsed statement, plan, and rebind metadata.

    ``facts`` is the template plan's own record, so what the shape's
    first query learns is what every later one reads.
    """

    __slots__ = (
        "statement",
        "plan",
        "facts",
        "counts",
        "conjunct_tags",
        "output_items",
        "bindable",
        "verified",
    )

    def __init__(self, statement: SelectStatement, plan: QueryPlan) -> None:
        self.statement = statement
        self.plan = plan
        self.facts: ShapeFacts = plan.facts
        self.counts: Dict[int, int] = {}
        total = 0
        for expr in _statement_exprs(statement):
            total += _count_literals(expr, self.counts)
        self.conjunct_tags = _tag_conjuncts(statement, plan)
        self.output_items = _map_outputs(statement, plan)
        self.bindable = True
        self.verified = False

    def literal_values(self) -> List[Any]:
        return statement_literals(self.statement)

    def bind(self, values: List[Any]) -> QueryPlan:
        """Instantiate the template with ``values`` (text order)."""
        rebinder = _Rebinder(self.counts)
        rebinder.values = values
        statement = self._bind_statement(rebinder)
        return self._bind_plan(statement)

    def _bind_statement(self, rebinder: _Rebinder) -> SelectStatement:
        counts = self.counts
        st = self.statement
        items = tuple(
            item
            if item.expr is None or not counts.get(id(item.expr), 0)
            else replace(item, expr=rebinder.rebind(item.expr))
            for item in st.items
        )
        joins = tuple(
            join
            if not counts.get(id(join.condition), 0)
            else replace(join, condition=rebinder.rebind(join.condition))
            for join in st.joins
        )
        where = (
            None
            if st.where is None
            else rebinder.rebind(st.where)
        )
        group_by = tuple(rebinder.rebind(expr) for expr in st.group_by)
        having = (
            None
            if st.having is None
            else rebinder.rebind(st.having)
        )
        order_by = tuple(
            item
            if not counts.get(id(item.expr), 0)
            else replace(item, expr=rebinder.rebind(item.expr))
            for item in st.order_by
        )
        return replace(
            st,
            items=items,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
        )

    def _bind_plan(self, statement: SelectStatement) -> QueryPlan:
        template = self.plan
        num_tables = len(statement.tables)
        scope = [
            entry
            if entry.join_condition is None
            else replace(
                entry,
                join_condition=statement.joins[
                    index - num_tables
                ].condition,
            )
            for index, entry in enumerate(template.scope)
        ]

        conjuncts: List[Expr] = list(split_conjuncts(statement.where))
        for join in statement.joins:
            if join.kind == "inner":
                conjuncts.extend(split_conjuncts(join.condition))
        local: Dict[str, List[Expr]] = {
            entry.binding: [] for entry in scope
        }
        residual: List[Expr] = []
        for conjunct, tag in zip(conjuncts, self.conjunct_tags):
            if tag[0] == "local":
                local[tag[1]].append(conjunct)
            elif tag[0] == "residual":
                residual.append(conjunct)
            # Join edges carry no literals; the template's are reused.

        items = statement.items
        outputs = [
            out
            if item_index is None
            or items[item_index].expr is out.expr
            else replace(out, expr=items[item_index].expr)
            for out, item_index in zip(template.outputs, self.output_items)
        ]
        return QueryPlan(
            statement=statement,
            scope=scope,
            local_predicates=local,
            join_edges=list(template.join_edges),
            residual_predicates=residual,
            outputs=outputs,
            has_aggregates=template.has_aggregates,
            group_by=statement.group_by,
        )


def _aligned(template_values: List[Any], text_values: List[Any]) -> bool:
    """Positional, *type-strict* value equality (``5 != 5.0`` here)."""
    return len(template_values) == len(text_values) and all(
        type(a) is type(b) and a == b
        for a, b in zip(template_values, text_values)
    )


def _tag_conjuncts(
    statement: SelectStatement, plan: QueryPlan
) -> List[Tuple[str, str]]:
    """Where each WHERE/ON conjunct landed, by position.

    The planner appends the *same* expression objects into its buckets,
    so identity lookup recovers the classification without re-running
    it.  Classification depends only on column references — never on
    literal values — so the tags hold for every instantiation of the
    shape.
    """
    conjuncts: List[Expr] = list(split_conjuncts(statement.where))
    for join in statement.joins:
        if join.kind == "inner":
            conjuncts.extend(split_conjuncts(join.condition))
    local_ids = {
        id(expr): binding
        for binding, exprs in plan.local_predicates.items()
        for expr in exprs
    }
    residual_ids = {id(expr) for expr in plan.residual_predicates}
    tags: List[Tuple[str, str]] = []
    for conjunct in conjuncts:
        binding = local_ids.get(id(conjunct))
        if binding is not None:
            tags.append(("local", binding))
        elif id(conjunct) in residual_ids:
            tags.append(("residual", ""))
        else:
            tags.append(("edge", ""))
    return tags


def _map_outputs(
    statement: SelectStatement, plan: QueryPlan
) -> List[Optional[int]]:
    """For each plan output, the select-item index whose expression it
    carries (``None`` for star-expanded columns, which hold no literals)."""
    item_for_expr = {
        id(item.expr): index
        for index, item in enumerate(statement.items)
        if item.expr is not None
    }
    return [item_for_expr.get(id(out.expr)) for out in plan.outputs]


# ----------------------------------------------------------------------
# The planner front-end
# ----------------------------------------------------------------------


class ShapePlanner:
    """Plans SQL through a bounded LRU cache of query shapes.

    Drop-in replacement for ``plan_select(parse(sql), lookup)`` — same
    results (enforced by per-shape verification), sublinear work on
    template-heavy workloads.

    Attributes:
        shape_hits: Queries served from a cached template.
        shape_misses: Queries that built a new template.
        fallbacks: Queries planned the slow way because their shape is
            unbindable (literal order could not be aligned, or a rebind
            verification failed).
        tree_builds: Shape hits whose trees were rebound — each shape's
            first-rebind verification, plus every hit something later
            read a tree field of.  A statistics-priced replay stays at
            one per shape, and so does an executing one whose shapes'
            count programs answer; without numpy it reaches
            ``shape_hits``.
    """

    def __init__(
        self,
        lookup: SchemaLookup,
        max_shapes: int = DEFAULT_MAX_SHAPES,
    ) -> None:
        if max_shapes <= 0:
            raise ValueError("max_shapes must be positive")
        self._lookup = lookup
        self._max_shapes = max_shapes
        self._shapes: "OrderedDict[str, Optional[_ShapeEntry]]" = (
            OrderedDict()
        )
        self.shape_hits = 0
        self.shape_misses = 0
        self.fallbacks = 0
        self.tree_builds = 0

    def _plan_fresh(self, sql: str) -> QueryPlan:
        return plan_select(parse(sql), self._lookup)

    def _bind_trees(self, entry: _ShapeEntry, values: List[Any]) -> QueryPlan:
        self.tree_builds += 1
        return entry.bind(values)

    def plan(self, sql: str) -> QueryPlan:
        """Parse-and-plan ``sql``, reusing the shape template if one
        exists."""
        shape, values = query_shape(sql)
        entry = self._shapes.get(shape)
        if entry is None and shape not in self._shapes:
            return self._build_template(shape, values, sql)
        self._shapes.move_to_end(shape)
        if entry is None or not entry.bindable:
            self.fallbacks += 1
            return self._plan_fresh(sql)
        self.shape_hits += 1
        bound = QueryPlan.deferred(
            entry.facts, values, partial(self._bind_trees, entry)
        )
        if not entry.verified:
            # First rebind of this shape: check the fast path — the
            # rebound trees and whatever the shared record already
            # holds — against the full parse+plan once, then trust it.
            fresh = self._plan_fresh(sql)
            if bound != fresh or not entry.facts.confirmed_by(
                fresh, plan_literals(fresh), values
            ):
                entry.bindable = False
                self.fallbacks += 1
                self.shape_hits -= 1
                self.tree_builds -= 1
                return fresh
            entry.verified = True
        return bound

    def _build_template(
        self, shape: str, values: List[Any], sql: str
    ) -> QueryPlan:
        self.shape_misses += 1
        plan = self._plan_fresh(sql)
        entry: Optional[_ShapeEntry] = _ShapeEntry(plan.statement, plan)
        # The template is usable only if its AST literal slots line up
        # one-for-one with the text-extracted values; a mismatch (a
        # comment containing digits, a folded literal) makes the shape
        # unbindable, never wrong.
        if entry is not None and not _aligned(entry.literal_values(), values):
            entry = None
        self._shapes[shape] = entry
        if len(self._shapes) > self._max_shapes:
            self._shapes.popitem(last=False)
        return plan

    @property
    def cached_shapes(self) -> int:
        return len(self._shapes)
