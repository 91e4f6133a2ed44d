"""Whole-project semantic analysis under the ``repro-lint`` engine.

:func:`analyze_modules` is the entry point: extract every loaded
module's local facts, link them into a call graph, and run the
interprocedural fixpoint.  Every lint run goes through it — a lone
file is a one-module project — and the resulting
:class:`ProjectAnalysis` is what the rules read.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.extract import (
    ModuleSummary,
    SuppressionCheck,
    extract_module,
)
from repro.analysis.flow.loader import ModuleInfo
from repro.analysis.flow.summaries import (
    FunctionSummary,
    ProjectAnalysis,
    Taint,
)

__all__ = [
    "CallGraph",
    "FunctionSummary",
    "ModuleInfo",
    "ModuleSummary",
    "ProjectAnalysis",
    "Taint",
    "analyze_modules",
]


def _suppression_for(info: ModuleInfo) -> SuppressionCheck:
    """Pragma-aware suppression predicate for extraction-time sites.

    Nondeterminism sites are filtered while extracting (the hazard line
    may live in a different file than the eventually-flagged caller),
    so the extractor honors the same ``allow`` / ``allow-file`` pragmas
    the engine applies to ordinary violations.
    """
    from repro.analysis.lint.engine import (
        file_allowed_rules,
        line_allows,
    )

    file_allowed = file_allowed_rules(info.lines)

    def suppressed(line: int, rule_id: str) -> bool:
        if rule_id in file_allowed:
            return True
        return line_allows(info.lines, line, rule_id)

    return suppressed


def analyze_modules(modules: Dict[str, ModuleInfo]) -> ProjectAnalysis:
    """Analyze the loaded (and parseable) ``modules`` as one project."""
    return ProjectAnalysis(
        {
            name: extract_module(
                module=name,
                tree=info.tree,
                suppressed=_suppression_for(info),
            )
            for name, info in sorted(modules.items())
        }
    )
