"""``repro-lint`` — domain-aware static analysis for the reproduction.

Public API re-exported from :mod:`repro.analysis.lint.engine`; the CLI
lives in :mod:`repro.analysis.lint.cli` and is installed as the
``repro-lint`` console script.
"""

from __future__ import annotations

from repro.analysis.lint.engine import (
    RULE_REGISTRY,
    FileContext,
    LintViolation,
    Rule,
    lint_modules,
    lint_paths,
    register_rule,
)

__all__ = [
    "RULE_REGISTRY",
    "FileContext",
    "LintViolation",
    "Rule",
    "lint_modules",
    "lint_paths",
    "register_rule",
]
