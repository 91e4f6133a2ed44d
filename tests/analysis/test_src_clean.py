"""The repo's own source must be repro-lint clean (CI runs the same
check via the console script)."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths

SRC = Path(__file__).parent.parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def run():
    """One lint run of ``src/repro``: (violations, analysis)."""
    return lint_paths([SRC])


def test_src_tree_exists():
    assert SRC.is_dir()


def test_src_is_lint_clean(run):
    violations, _ = run
    rendered = "\n".join(v.render() for v in violations)
    assert violations == [], f"repro-lint violations in src:\n{rendered}"


def test_src_is_project_lint_clean(run):
    """The clean run above really was the whole project: every module
    loaded, the call graph populated."""
    _, analysis = run
    assert analysis.stats["modules"] > 100
    assert analysis.stats["functions"] > 1000


def test_checked_in_baseline_is_empty():
    baseline = SRC.parent.parent / "repro-lint-baseline.json"
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert payload["findings"] == []
