"""What the analysis tests ask of the linter: violations only."""

from pathlib import Path

from repro.analysis.flow.loader import ModuleInfo
from repro.analysis.lint import lint_modules, lint_paths


def lint(path, select=None):
    """Violations of one file or directory, analysed whole."""
    violations, _ = lint_paths([Path(path)], select)
    return violations


def lint_source(source, path, select=None):
    """Violations of ``source`` as if saved at ``path``: a one-module
    project, like any lone file."""
    info = ModuleInfo.from_source(source, Path(path))
    violations, _ = lint_modules({info.name: info}, select)
    return violations
