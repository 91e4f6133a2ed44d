"""RPR004 — contract-registered state has sanctioned mutators.

The paper's headline numbers (D_S bypass bytes, D_L load bytes, the
weighted WAN cost) are aggregated in exactly one place per layer, and
the shared policy/cache/ledger state the multi-tenant mediator locks
around must change only where a lock (or a single-writer loop) can
guard it.  The effect-contract registry
(:mod:`repro.analysis.flow.contracts`) declares both: which attributes
are owned state, and which methods of the owner may write them.  PR 1's
audit found drift bugs caused by ad-hoc ``result.load_bytes += …``
writes scattered across call sites; this rule flags every attribute
write the registry does not sanction.

Three write shapes are policed:

* **inside an owning class** — ``self.<attr> = …`` from a method the
  contract does not sanction (``__init__`` is always allowed: an
  object under construction is not yet shared);
* **from outside** — ``obj.<attr> += …`` reaching into another
  object's contract-owned state, unless the writer is itself a
  sanctioned mutator of that state's owner (restore-style methods
  operating on a sibling instance);
* **a WAN accounting field on a class that owns none** —
  ``self.wan_cost = …`` in a driver: the accounting vocabulary
  (:data:`~repro.analysis.flow.contracts.ACCOUNTING_FIELDS`) is
  reserved for the accounting classes, whoever the holder is.

Call sites go through the sanctioned mutators
(``TrafficLedger.record_load``, ``TrafficLedger.restore``,
``SimulationResult.charge``, ``ShapeFacts.fill``, …) instead.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.flow import contracts
from repro.analysis.flow.extract import FunctionFacts, SharedWrite
from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)


@register_rule
class SharedStateRule(Rule):
    """Forbid writes to contract-owned state outside its mutators."""

    rule_id = "RPR004"
    summary = (
        "contract-registered state (WAN accounting fields included) is "
        "written only through its owner's sanctioned mutators"
    )

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        for facts in context.project.functions_in(context.module):
            for write in facts.writes:
                message = self._unsanctioned(context, facts, write)
                if message is not None:
                    yield LintViolation(
                        rule_id=self.rule_id,
                        path=str(context.path),
                        line=write.line,
                        col=write.col,
                        message=message,
                    )

    @staticmethod
    def _unsanctioned(
        context: FileContext, facts: FunctionFacts, write: SharedWrite
    ) -> Optional[str]:
        """Why ``write`` breaks its contract, or None when it is fine."""
        if write.is_self:
            contract = context.project.owning_contract(
                context.module, facts.class_name, write.attr
            )
            if contract is not None:
                if contract.sanctions(facts.name):
                    return None
                mutators = ", ".join(sorted(contract.mutators)) or "(none)"
                return (
                    f"{facts.qualname} writes contract-owned attribute "
                    f"{write.attr!r} of {contract.owner} outside its "
                    f"sanctioned mutators ({mutators})"
                )
            if write.attr not in contracts.ACCOUNTING_FIELDS:
                return None
        elif write.attr not in contracts.strict_attrs():
            return None
        owners = contracts.owners_of_attr(write.attr)
        if any(
            contract.owner == facts.class_name
            and contract.sanctions(facts.name)
            for contract in owners
        ):
            return None  # a sanctioned mutator touching a sibling
        owner_names = "/".join(contract.owner for contract in owners)
        return (
            f"{facts.qualname} reaches into shared attribute "
            f"{write.attr!r} (contract-owned by {owner_names}); "
            f"route the write through a sanctioned mutator"
        )
