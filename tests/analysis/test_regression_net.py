"""Nothing was lost when the two lint modes became one pass.

``parent_fixture_findings.json`` records, from the last commit that had
a per-file mode and a ``--project`` mode, every ``fixture path:line``
either mode flagged over the corpus (the value lists which mode and
rule did).  The single pass must flag exactly those lines — under
whichever rule id now owns the property, once where two parent rules
overlapped — and nothing in a ``good`` twin.

Two parent findings sat *in* good twins, each an artefact of the
seam between a rule and its twin, and are expected to be gone:
``rpr001/good.py:19`` (RPR008 flagged a weighted yield next to a
weighted cost, the very pairing RPR001 teaches) and
``flow/rpr010_good/ledger.py:18`` (RPR004 flagged the sibling
``restore`` write that RPR010's contract sanctions).
"""

import json
from pathlib import Path

from tests.analysis.lintkit import lint

FIXTURES = Path(__file__).parent / "fixtures"
PARENT = json.loads(
    (Path(__file__).parent / "parent_fixture_findings.json").read_text()
)

#: Each fixture project: the flow mini-packages and the per-rule dirs.
ROOTS = sorted(
    path
    for parent in (FIXTURES, FIXTURES / "flow")
    for path in parent.iterdir()
    if path.is_dir() and path.name != "flow"
)

#: Files whose findings need a sibling module's summaries.
CROSS_MODULE = {"flow/rpr008_bad/proxy.py", "flow/rpr009_bad/sim/replay.py"}


def is_good_twin(relative: str) -> bool:
    return relative.rsplit(":", 1)[0].endswith("good.py") or "_good/" in relative


def findings(path):
    """``{"relative/path.py:line": [(rule, message), …]}`` under ``path``."""
    found = {}
    for v in lint(path):
        relative = Path(v.path).relative_to(FIXTURES).as_posix()
        found.setdefault(f"{relative}:{v.line}", []).append(
            (v.rule_id, v.message)
        )
    return found


def by_roots():
    found = {}
    for root in ROOTS:
        found.update(findings(root))
    return found


def comparable(found):
    """Messages quote the module's dotted name.  Inside a package
    (``flow/*``) that is its import name wherever the run started; a
    loose file is named by its path below the start, so for those only
    the rule ids compare across runs."""
    return {
        key: value
        if key.startswith("flow/")
        else [rule_id for rule_id, _ in value]
        for key, value in found.items()
    }


def test_the_parent_set_is_flagged_in_full_and_nothing_else():
    expected = {key for key in PARENT if not is_good_twin(key)}
    assert len(expected) == 53
    assert set(by_roots()) == expected


def test_good_twins_are_silent():
    assert [key for key in by_roots() if is_good_twin(key)] == []


def test_lines_two_parent_rules_shared_yield_one_finding():
    found = by_roots()
    shared = [
        key
        for key, sources in PARENT.items()
        if len({source.split(":")[1] for source in sources}) > 1
        and not is_good_twin(key)
    ]
    assert shared  # RPR004+RPR010, RPR010+RPR011 at the parent
    for key in shared:
        assert len(found[key]) == 1, key


def test_the_corpus_in_one_run_equals_root_by_root():
    # Module names come from the package chain, not from where the
    # run started, so analysing the corpus whole changes nothing.
    assert comparable(findings(FIXTURES)) == comparable(by_roots())


def test_a_lone_file_gets_the_findings_it_gets_inside_its_package():
    in_package = comparable(by_roots())
    for path in sorted(FIXTURES.rglob("*.py")):
        relative = path.relative_to(FIXTURES).as_posix()
        expected = {
            key: value
            for key, value in in_package.items()
            if key.rsplit(":", 1)[0] == relative
        }
        if relative in CROSS_MODULE:
            assert expected and findings(path) == {}, relative
        else:
            assert comparable(findings(path)) == expected, relative
