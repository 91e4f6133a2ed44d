"""Interprocedural summaries: the bottom-up fixpoint over the graph.

Each project function gets a :class:`FunctionSummary` holding

* the abstract unit of its return value (evaluated from the symbolic
  return expressions its extraction recorded, against its callees'
  summaries);
* its nondeterminism taint — either a direct hazard site or the call
  edge through which a tainted callee is reached (sanctioned seams
  absorb taint);
* whether it (transitively) mutates contract-registered shared state.

Summaries are computed callee-first over the call graph's strongly
connected components; cycles iterate to a bounded fixpoint.  The
:class:`ProjectAnalysis` facade bundles the graph, the summaries, and
the query API the project-aware lint rules consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow import contracts
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.extract import FunctionFacts, ModuleSummary
from repro.analysis.flow.lattice import (
    CALL_RESULT_UNITS,
    AbstractUnit,
    UExpr,
    classify_name,
    divide,
    merge,
    multiply,
)

_MAX_EVAL_DEPTH = 12
_MAX_SCC_ROUNDS = 8


@dataclass
class Taint:
    """Why a function is nondeterministic, and through what."""

    reason: str
    line: int
    #: Callee qualname when the taint is transitive; None when the
    #: hazard is a direct site inside the function itself.
    via: Optional[str] = None


@dataclass
class FunctionSummary:
    """The interprocedural facts of one project function."""

    qualname: str
    return_unit: AbstractUnit = AbstractUnit.UNKNOWN
    taint: Optional[Taint] = None
    mutates_shared: bool = False


def _direct_taint(facts: FunctionFacts) -> Optional[Taint]:
    if not facts.nondet:
        return None
    site = min(facts.nondet, key=lambda s: (s.line, s.col))
    return Taint(reason=site.reason, line=site.line, via=None)


def _direct_mutation(facts: FunctionFacts, graph: CallGraph,
                     module: str) -> bool:
    for write in facts.writes:
        if write.is_self:
            contract = _owning_contract(
                graph, module, facts.class_name, write.attr
            )
            if contract is not None:
                return True
        elif write.attr in contracts.strict_attrs():
            return True
    return False


def _owning_contract(
    graph: CallGraph,
    module: str,
    class_name: Optional[str],
    attr: str,
) -> Optional[contracts.EffectContract]:
    """Contract claiming ``attr`` on a class or its project bases."""
    if class_name is None:
        return None
    contract = contracts.contract_for(class_name)
    if contract is not None and attr in contract.attrs:
        return contract
    for _, base_name in graph.mro_bases(module, class_name):
        contract = contracts.contract_for(base_name)
        if contract is not None and attr in contract.attrs:
            return contract
    return None


class ProjectAnalysis:
    """Query surface over the call graph and function summaries."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.modules = summaries
        self.graph = CallGraph(summaries)
        #: (caller qualname, call-site index) -> callee qualname.
        self._callee: Dict[Tuple[str, int], str] = {}
        for caller, pairs in self.graph.edges.items():
            for site_index, callee in pairs:
                self._callee[(caller, site_index)] = callee
        self.summaries: Dict[str, FunctionSummary] = {
            qualname: FunctionSummary(qualname=qualname)
            for qualname in self.graph.functions
        }
        #: What ``repro-lint --stats`` prints about the run.
        self.stats: Dict[str, int] = {
            "modules": len(summaries),
            "functions": len(self.graph.functions),
        }
        self._run_fixpoint()

    # -- fixpoint --------------------------------------------------------

    def _run_fixpoint(self) -> None:
        for component in self.graph.sccs():
            members = sorted(component)
            for _ in range(_MAX_SCC_ROUNDS):
                changed = False
                for qualname in members:
                    if self._update(qualname):
                        changed = True
                if not changed:
                    break

    def _update(self, qualname: str) -> bool:
        facts = self.graph.functions[qualname]
        module = self.graph.function_module[qualname]
        summary = self.summaries[qualname]
        changed = False

        return_unit = self._compute_return_unit(qualname, facts)
        if return_unit is not summary.return_unit:
            summary.return_unit = return_unit
            changed = True

        taint = self._compute_taint(qualname, facts)
        if (taint is None) != (summary.taint is None) or (
            taint is not None
            and summary.taint is not None
            and (taint.reason, taint.line, taint.via)
            != (
                summary.taint.reason,
                summary.taint.line,
                summary.taint.via,
            )
        ):
            summary.taint = taint
            changed = True

        mutates = _direct_mutation(facts, self.graph, module)
        if not mutates:
            for _, callee in self.graph.edges.get(qualname, []):
                if self.summaries[callee].mutates_shared:
                    mutates = True
                    break
        if mutates != summary.mutates_shared:
            summary.mutates_shared = mutates
            changed = True
        return changed

    def _compute_return_unit(
        self, qualname: str, facts: FunctionFacts
    ) -> AbstractUnit:
        if facts.return_annotation_unit is not None:
            return facts.return_annotation_unit
        unit = AbstractUnit.UNKNOWN
        for expr in facts.returns:
            unit = merge(unit, self.eval_expr(qualname, expr))
        return unit

    def _compute_taint(
        self, qualname: str, facts: FunctionFacts
    ) -> Optional[Taint]:
        direct = _direct_taint(facts)
        if direct is not None:
            return direct
        if contracts.is_seam(qualname):
            return None
        best: Optional[Taint] = None
        for site_index, callee in self.graph.edges.get(qualname, []):
            if contracts.is_seam(callee):
                continue
            callee_taint = self.summaries[callee].taint
            if callee_taint is None:
                continue
            site = facts.calls[site_index]
            candidate = Taint(
                reason=callee_taint.reason, line=site.line, via=callee
            )
            if best is None or candidate.line < best.line:
                best = candidate
        return best

    # -- query API -------------------------------------------------------

    def functions_in(self, module: str) -> List[FunctionFacts]:
        summary = self.modules.get(module)
        if summary is None:
            return []
        return [
            summary.functions[qualname]
            for qualname in sorted(summary.functions)
        ]

    def facts(self, qualname: str) -> Optional[FunctionFacts]:
        return self.graph.functions.get(qualname)

    def summary(self, qualname: str) -> Optional[FunctionSummary]:
        return self.summaries.get(qualname)

    def callee_of(
        self, qualname: str, call_index: int
    ) -> Optional[str]:
        return self._callee.get((qualname, call_index))

    def resolve_dotted_call(
        self, module: str, dotted: str
    ) -> Optional[str]:
        """Resolve ``a.b.c`` as seen from ``module`` to a qualname."""
        from repro.analysis.flow.symbols import resolve_dotted

        summary = self.modules.get(module)
        if summary is None:
            return None
        ref = resolve_dotted(summary.symbols, dotted)
        if ref[0] == "q":
            return self.graph.resolve_name(ref[1])
        return None

    def call_result_unit(
        self, qualname: str, call_index: int
    ) -> AbstractUnit:
        """Abstract unit of a call site's result.

        Precedence: the resolved callee's computed summary, then the
        declared unit types and converters, then the naming
        conventions.
        """
        callee = self._callee.get((qualname, call_index))
        if callee is not None:
            unit = self.summaries[callee].return_unit
            if unit is not AbstractUnit.UNKNOWN:
                return unit
        facts = self.graph.functions[qualname]
        name = facts.calls[call_index].ref[-1].rsplit(".", 1)[-1]
        return CALL_RESULT_UNITS.get(name) or classify_name(name)

    def eval_expr(
        self, qualname: str, expr: UExpr, depth: int = 0
    ) -> AbstractUnit:
        """Evaluate a symbolic unit expression with project knowledge."""
        if depth > _MAX_EVAL_DEPTH or not expr:
            return AbstractUnit.UNKNOWN
        tag = expr[0]
        if tag == "k":
            return AbstractUnit[str(expr[1])]
        if tag == "p":
            facts = self.graph.functions[qualname]
            return facts.param_unit(int(expr[1]))
        if tag == "c":
            return self.call_result_unit(qualname, int(expr[1]))
        if tag == "mul":
            return multiply(
                self.eval_expr(qualname, expr[1], depth + 1),
                self.eval_expr(qualname, expr[2], depth + 1),
            )
        if tag == "div":
            return divide(
                self.eval_expr(qualname, expr[1], depth + 1),
                self.eval_expr(qualname, expr[2], depth + 1),
            )
        if tag == "merge":
            return merge(
                self.eval_expr(qualname, expr[1], depth + 1),
                self.eval_expr(qualname, expr[2], depth + 1),
            )
        return AbstractUnit.UNKNOWN

    def unit_provenance(
        self, qualname: str, expr: UExpr
    ) -> Optional[str]:
        """First resolved callee whose summary decides ``expr``'s unit."""
        if not expr:
            return None
        tag = expr[0]
        if tag == "c":
            callee = self._callee.get((qualname, int(expr[1])))
            if callee is not None and (
                self.summaries[callee].return_unit
                is not AbstractUnit.UNKNOWN
            ):
                return callee
            return None
        if tag in ("mul", "div", "merge"):
            for child in expr[1:]:
                found = self.unit_provenance(qualname, child)
                if found is not None:
                    return found
        return None

    def taint_chain(self, qualname: str) -> List[Tuple[str, int]]:
        """Hops from ``qualname`` to the hazard: [(qualname, line)…].

        The first entry is the function itself with the line of the
        call (or direct site) introducing the taint; subsequent
        entries follow the ``via`` links down to the function holding
        the direct hazard.
        """
        chain: List[Tuple[str, int]] = []
        seen: Set[str] = set()
        current: Optional[str] = qualname
        while current is not None and current not in seen:
            seen.add(current)
            summary = self.summaries.get(current)
            if summary is None or summary.taint is None:
                break
            chain.append((current, summary.taint.line))
            current = summary.taint.via
        return chain

    def owning_contract(
        self, module: str, class_name: Optional[str], attr: str
    ) -> Optional[contracts.EffectContract]:
        return _owning_contract(self.graph, module, class_name, attr)

    def mutates_shared(self, qualname: str) -> bool:
        summary = self.summaries.get(qualname)
        return summary is not None and summary.mutates_shared

    def generator_functions(self) -> Set[str]:
        """Bare names of project functions that are generators."""
        return {
            facts.name
            for facts in self.graph.functions.values()
            if facts.is_generator
        }
