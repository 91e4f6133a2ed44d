"""RPR005 — no full-cache scans on the per-query decision path.

The decision hot path was made sublinear on purpose: victim selection
goes through :class:`~repro.core.victimheap.VictimHeap`, Landlord aging
through the global-offset trick, and rate-profile candidate ranking
through a once-per-epoch cursor.  A full scan of the resident set —
``store.object_ids()``, a ``sorted(...)`` over cache state, or a
``min()``/``max()`` sweep over a comprehension — silently reverts a
policy to O(n) per query, which benchmarks only catch at scale.

For modules under ``core/policies`` or the ``core`` object-cache layer,
this rule flags those scan constructs inside the per-query decision
methods (``decide``, ``process``, ``request``, ``_choose_victim``,
``_plan_load``, ``_make_room``) and inside every private helper of the
same classes (hot methods delegate to private helpers; public
introspection methods such as ``describe`` are presumed cold).

Sanctioned scans — amortized work that runs once per epoch or per
prune batch, not per query — carry a line pragma stating so::

    entries = sorted(...)  # repro-lint: allow[RPR005]

The scan constructs are recorded by the flow extraction
(``FunctionFacts.scan_sites``), so a hot method is also flagged at the
call that reaches a scan through plain helper functions (up to three
hops).  A scan hidden behind a temporary variable still escapes: the
rule exists to stop the *easy* regression — pasting a full scan back
into a decision method — not to prove asymptotics.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.analysis.flow.extract import FunctionFacts
from repro.analysis.flow.summaries import ProjectAnalysis
from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)

#: Methods on the per-query decision path.  Private helpers (leading
#: underscore, non-dunder) are checked as well — decision methods
#: delegate the actual victim selection to them.
_HOT_METHODS = {
    "decide",
    "process",
    "request",
    "_choose_victim",
    "_plan_load",
    "_make_room",
}


def _is_private_helper(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@register_rule
class DecisionPathScanRule(Rule):
    """Keep the per-query decision path free of O(n) cache scans."""

    rule_id = "RPR005"
    summary = (
        "per-query decision methods (and their private helpers) must "
        "not scan the full cache — no store.object_ids(), sorted(), "
        "or min/max comprehension sweeps; use the victim heap or an "
        "amortized pragma-sanctioned site"
    )

    def applies_to(self, context: FileContext) -> bool:
        return context.has_segments("core", "policies") or (
            context.has_segments("core")
            and context.path.name == "object_cache.py"
        )

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        for facts in context.project.functions_in(context.module):
            if facts.class_name is None:
                continue
            hot = facts.name in _HOT_METHODS
            if not (hot or _is_private_helper(facts.name)):
                continue
            method = f"{facts.class_name}.{facts.name}()"
            for described, line, col in facts.scan_sites:
                yield LintViolation(
                    rule_id=self.rule_id,
                    path=str(context.path),
                    line=line,
                    col=col,
                    message=(
                        f"{method} scans the cache: {described}; "
                        f"per-query work must stay sublinear — use the "
                        f"victim heap, or mark an amortized site with "
                        f"'# repro-lint: allow[RPR005] <reason>'"
                    ),
                )
            if hot:
                yield from self._check_helper_chain(context, facts, method)

    def _check_helper_chain(
        self, context: FileContext, facts: FunctionFacts, method: str
    ) -> Iterator[LintViolation]:
        """Scans hidden behind module-level helpers.

        A hot method calling a plain function that (up to three hops
        away) runs ``sorted(...)``/``.object_ids()`` is the same O(n)
        regression and gets flagged at the call site.
        """
        project = context.project
        for index, site in enumerate(facts.calls):
            callee = project.callee_of(facts.qualname, index)
            if callee is None:
                continue
            found = self._find_scan(project, callee, 0, set())
            if found is None:
                continue
            scan_holder, described = found
            via = (
                f" (reached through {callee})"
                if scan_holder != callee
                else ""
            )
            yield LintViolation(
                rule_id=self.rule_id,
                path=str(context.path),
                line=site.line,
                col=site.col,
                message=(
                    f"{method} calls {scan_holder} which scans the "
                    f"cache: {described}{via}; per-query work must stay "
                    f"sublinear — or mark an amortized site with "
                    f"'# repro-lint: allow[RPR005] <reason>'"
                ),
            )

    def _find_scan(
        self,
        project: ProjectAnalysis,
        qualname: str,
        depth: int,
        seen: Set[str],
    ) -> Optional[Tuple[str, str]]:
        """(function, description) of the first scan reachable through
        plain module-level functions, up to three hops deep."""
        if depth > 3 or qualname in seen:
            return None
        seen.add(qualname)
        facts = project.facts(qualname)
        if facts is None or facts.class_name is not None:
            # Methods of other classes are checked where they are
            # defined (or presumed cold); only chase helpers.
            return None
        if facts.scan_sites:
            return qualname, facts.scan_sites[0][0]
        for index in range(len(facts.calls)):
            callee = project.callee_of(qualname, index)
            if callee is None:
                continue
            found = self._find_scan(project, callee, depth + 1, seen)
            if found is not None:
                return found
        return None
