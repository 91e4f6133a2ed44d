"""Static-analysis tooling for the reproduction codebase.

* :mod:`repro.analysis.lint` — ``repro-lint``: a domain-aware linter
  enforcing the invariants the decision pipeline's correctness rests
  on (typed byte/cost units, simulator determinism, policy
  conformance, accounting discipline);
* :mod:`repro.analysis.flow` — the whole-project analysis (call graph,
  function summaries, effect contracts) every lint run is built on.
"""

from repro.analysis.lint import (
    RULE_REGISTRY,
    LintViolation,
    Rule,
    lint_modules,
    lint_paths,
    register_rule,
)

__all__ = [
    "RULE_REGISTRY",
    "LintViolation",
    "Rule",
    "lint_modules",
    "lint_paths",
    "register_rule",
]
