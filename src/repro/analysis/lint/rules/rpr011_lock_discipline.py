"""RPR011: service code calls lock-guarded mutators only via the gate.

The mediator service's concurrency discipline (DESIGN.md §15) is that
the PR-4 policy state — the Landlord victim heaps and global credit
offset (``BypassObjectCache``/``VictimHeap``) and the federation
``TrafficLedger`` — mutates only under the per-federation decision
lock, and the only sanctioned lock holders are
:meth:`repro.service.session.DecisionGate.locked_resolve` (one query)
and :meth:`repro.service.session.DecisionGate.locked_resolve_run` (a
drained run of queries under one acquisition).

This rule polices serving code (any module with a ``service`` package
segment) for calls around that seam: invoking a lock-guarded owner's
mutator (``record_load``, ``pop_min``, ``_make_room``, …) from a
non-holder function.  Calls are matched through the resolved call
graph when it lands on a guarded owner, plus a distinctive-name
fallback (generic names like ``set``/``request`` are never matched by
name alone — asyncio and http.client own those too).

Direct *writes* to guarded attributes are RPR004's: no code outside an
owner's sanctioned mutators may write its state, service or not.
Non-service callers are out of scope here: single-threaded replay
drivers (simulator, proxy, fleet) need no lock.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional

from repro.analysis.flow import contracts
from repro.analysis.flow.extract import CallSite, FunctionFacts
from repro.analysis.flow.symbols import Ref
from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)


def _call_method_name(ref: Ref) -> Optional[str]:
    """The bare method name a call reference targets, if any."""
    tag = ref[0]
    if tag == "q":
        return str(ref[1]).rsplit(".", 1)[-1]
    if tag == "s":
        return str(ref[2])
    if tag == "m":
        return str(ref[1])
    return None


@register_rule
class LockDisciplineRule(Rule):
    rule_id = "RPR011"
    summary = (
        "service code reaches decision-lock-guarded state only "
        "through the DecisionGate locked_* seam"
    )

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        if not contracts.in_service_scope(context.module):
            return
        guarded_names = contracts.lock_guarded_mutator_names()
        for facts in context.project.functions_in(context.module):
            if contracts.is_lock_holder(facts.name, facts.qualname):
                continue
            for index, site in enumerate(facts.calls):
                violation = self._check_call(
                    context, facts, index, site, guarded_names
                )
                if violation is not None:
                    yield violation

    def _check_call(
        self,
        context: FileContext,
        facts: FunctionFacts,
        index: int,
        site: CallSite,
        guarded_names: FrozenSet[str],
    ) -> Optional[LintViolation]:
        project = context.project
        owner: Optional[str] = None
        method = _call_method_name(site.ref)
        callee = project.callee_of(facts.qualname, index)
        if callee is not None:
            callee_facts = project.facts(callee)
            if (
                callee_facts is not None
                and callee_facts.class_name
                in contracts.LOCK_GUARDED_OWNERS
            ):
                contract = contracts.contract_for(
                    callee_facts.class_name
                )
                if (
                    contract is not None
                    and callee_facts.name in contract.mutators
                    and callee_facts.name in guarded_names
                ):
                    owner = callee_facts.class_name
                    method = callee_facts.name
        if owner is None:
            if method not in guarded_names:
                return None
            owners = [
                contract.owner
                for contract in contracts.lock_guarded_contracts()
                if method in contract.mutators
            ]
            owner = "/".join(owners) or "a lock-guarded owner"
        return LintViolation(
            rule_id=self.rule_id,
            path=str(context.path),
            line=site.line,
            col=site.col,
            message=(
                f"{facts.qualname} calls {owner}.{method}() from "
                f"service code outside the decision-lock holder seam "
                f"(DecisionGate.locked_resolve); lock-guarded state "
                f"must not mutate off the lock"
            ),
        )
