"""RPR001 — raw-byte / weighted-cost unit mixing.

The decision pipeline trades in two currencies: raw bytes (sizes,
ledger byte totals, yields) and link-weighted costs (bytes × link
weight; eq. 1's ``f`` factor).  Combining the two without an explicit
conversion is exactly the PR-1 proxy bug: link-weighted fetch costs
paired with raw-byte yields invert BYHR cache preference on weighted
links while every test stays green.

Units come from the flow facts (:mod:`repro.analysis.flow`): names and
attributes carry the unit their spelling implies (``*_bytes``/``size``
raw, ``*_cost`` weighted, ``*_weight`` a link weight), ``RawBytes`` /
``WeightedCost`` / ``Yield`` annotations declare theirs, assignments
propagate, branches merge, bytes × weight = cost and cost / bytes =
weight are the sanctioned conversion shapes, and a call returns what
its callee's summary says it returns — so a ``WeightedCost`` produced
three helpers away is still a weighted cost here.

Three constructs are flagged, in one function or through any helper
chain:

1. ``Add``/``Sub``/comparison (and the augmented forms) whose operands
   are in different currencies;
2. an argument whose unit conflicts with the unit the callee's
   parameter declares;
3. a call that passes both ``fetch_cost=`` and ``yield_bytes=`` in
   different currencies — a weighted fetch cost next to a yield that is
   not weighted (or a raw one next to a weighted yield).  The two must
   be quoted in the same currency for a policy's load-vs-savings
   comparison to make sense; this is the AST shape of the PR-1 bug.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.analysis.flow.extract import FunctionFacts
from repro.analysis.flow.lattice import (
    RAW_LIKE,
    AbstractUnit,
    UExpr,
    mixes,
)
from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)


@register_rule
class UnitMixingRule(Rule):
    """Flag raw-byte / weighted-cost arithmetic without conversion."""

    rule_id = "RPR001"
    summary = (
        "raw-byte and weighted-cost values must not mix — in one "
        "function or through a helper chain — without an explicit "
        "weigh()/unweigh() conversion"
    )

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        for facts in context.project.functions_in(context.module):
            yield from self._check_mix_sites(context, facts)
            yield from self._check_pair_sites(context, facts)
            yield from self._check_arguments(context, facts)

    def _check_mix_sites(
        self, context: FileContext, facts: FunctionFacts
    ) -> Iterator[LintViolation]:
        project = context.project
        for mix in facts.mixes:
            left = project.eval_expr(facts.qualname, mix.left)
            right = project.eval_expr(facts.qualname, mix.right)
            if not mixes(left, right):
                continue
            via = project.unit_provenance(
                facts.qualname, mix.left
            ) or project.unit_provenance(facts.qualname, mix.right)
            chain = f" (unit established by {via})" if via else ""
            yield LintViolation(
                rule_id=self.rule_id,
                path=str(context.path),
                line=mix.line,
                col=mix.col,
                message=(
                    f"{left.value} {mix.verb} with {right.value}"
                    f"{chain}; convert with weigh()/unweigh() first"
                ),
            )

    def _check_pair_sites(
        self, context: FileContext, facts: FunctionFacts
    ) -> Iterator[LintViolation]:
        project = context.project
        for pair in facts.pairs:
            cost = project.eval_expr(facts.qualname, pair.cost)
            yield_unit = project.eval_expr(
                facts.qualname, pair.yield_bytes
            )
            mismatched = (
                cost is AbstractUnit.WEIGHTED
                and yield_unit is not AbstractUnit.WEIGHTED
            ) or (
                cost in RAW_LIKE and yield_unit is AbstractUnit.WEIGHTED
            )
            if not mismatched:
                continue
            yield LintViolation(
                rule_id=self.rule_id,
                path=str(context.path),
                line=pair.line,
                col=pair.col,
                message=(
                    f"fetch_cost= is {cost.value} but yield_bytes= is "
                    f"{yield_unit.value}; quote both in the same "
                    f"currency (weigh() the yield for the cost view)"
                ),
            )

    def _check_arguments(
        self, context: FileContext, facts: FunctionFacts
    ) -> Iterator[LintViolation]:
        project = context.project
        for index, site in enumerate(facts.calls):
            callee = project.callee_of(facts.qualname, index)
            if callee is None:
                continue
            callee_facts = project.graph.functions[callee]
            bindings: List[Tuple[int, UExpr]] = list(enumerate(site.args))
            for keyword, expr in sorted(site.kwargs.items()):
                position = callee_facts.param_index(keyword)
                if position is not None:
                    bindings.append((position, expr))
            for position, expr in bindings:
                if position >= len(callee_facts.params):
                    continue
                expected = callee_facts.param_unit(position)
                actual = project.eval_expr(facts.qualname, expr)
                if not mixes(actual, expected):
                    continue
                yield LintViolation(
                    rule_id=self.rule_id,
                    path=str(context.path),
                    line=site.line,
                    col=site.col,
                    message=(
                        f"argument for parameter "
                        f"{callee_facts.params[position]!r} of {callee} "
                        f"carries {actual.value} but the parameter "
                        f"expects {expected.value}"
                    ),
                )
