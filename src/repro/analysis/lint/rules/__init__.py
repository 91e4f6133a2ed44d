"""Built-in ``repro-lint`` rules, one per property.

Importing this package registers every rule module below into
:data:`repro.analysis.lint.engine.RULE_REGISTRY`; third-party rules
can do the same with the :func:`register_rule` decorator.
"""

from __future__ import annotations

from repro.analysis.lint.rules import (  # noqa: F401
    rpr001_units,
    rpr002_determinism,
    rpr003_policies,
    rpr004_shared_state,
    rpr005_scans,
    rpr006_swallowed,
    rpr007_streaming,
    rpr011_lock_discipline,
)

__all__ = [
    "rpr001_units",
    "rpr002_determinism",
    "rpr003_policies",
    "rpr004_shared_state",
    "rpr005_scans",
    "rpr006_swallowed",
    "rpr007_streaming",
    "rpr011_lock_discipline",
]
