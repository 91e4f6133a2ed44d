"""Tests for the repro-lint engine: registry, pragmas, CLI, errors."""

from pathlib import Path

import pytest

from repro.analysis.flow.loader import iter_python_files
from repro.analysis.lint import RULE_REGISTRY, LintViolation
from repro.analysis.lint.cli import main
from repro.errors import AnalysisError

from tests.analysis.lintkit import lint, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def registered_rules():
    import repro.analysis.lint.rules  # noqa: F401 - triggers registration

    return dict(RULE_REGISTRY)


class TestRegistry:
    def test_all_four_rules_register(self):
        rules = registered_rules()
        assert set(rules) >= {"RPR001", "RPR002", "RPR003", "RPR004"}

    def test_every_rule_has_a_summary(self):
        for rule_class in registered_rules().values():
            assert rule_class.summary

    def test_bad_rule_id_rejected(self):
        from repro.analysis.lint.engine import Rule, register_rule

        with pytest.raises(AnalysisError):

            @register_rule
            class BadIdRule(Rule):
                rule_id = "XYZ1"

                def check(self, context):
                    return iter(())

    def test_duplicate_registration_rejected(self):
        from repro.analysis.lint.engine import Rule, register_rule

        with pytest.raises(AnalysisError):

            @register_rule
            class ImposterRule(Rule):
                rule_id = "RPR001"

                def check(self, context):
                    return iter(())


class TestPragmas:
    def test_targeted_pragma_suppresses_named_rule(self):
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost"
            "  # repro-lint: allow[RPR001] why\n"
        )
        assert lint_source(source, Path("x.py"), select=["RPR001"]) == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost"
            "  # repro-lint: allow[RPR002]\n"
        )
        violations = lint_source(source, Path("x.py"), select=["RPR001"])
        assert [v.rule_id for v in violations] == ["RPR001"]

    def test_bare_allow_suppresses_everything(self):
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost  # repro-lint: allow\n"
        )
        assert lint_source(source, Path("x.py"), select=["RPR001"]) == []

    def test_comma_list_suppresses_each_named_rule(self):
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost"
            "  # repro-lint: allow[RPR001,RPR004] both rules\n"
        )
        assert (
            lint_source(
                source, Path("x.py"), select=["RPR001", "RPR004"]
            )
            == []
        )

    def test_comma_list_spacing_is_flexible(self):
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost"
            "  # repro-lint: allow[RPR001 , RPR002]\n"
        )
        assert lint_source(source, Path("x.py"), select=["RPR001"]) == []

    def test_comma_list_excludes_unlisted_rules(self):
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost"
            "  # repro-lint: allow[RPR002,RPR004]\n"
        )
        violations = lint_source(source, Path("x.py"), select=["RPR001"])
        assert [v.rule_id for v in violations] == ["RPR001"]

    def test_pragma_naming_no_rule_is_reported(self):
        # A retired id suppresses nothing and must not rot in place.
        source = (
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost"
            "  # repro-lint: allow[RPR001, RPR008] stale\n"
        )
        (violation,) = lint_source(source, Path("x.py"))
        assert (violation.rule_id, violation.line) == ("RPR000", 2)
        assert "'RPR008'" in violation.message

    def test_file_pragma_naming_no_rule_is_reported(self):
        source = "# repro-lint: allow-file[RPR010] retired id\nX = 1\n"
        (violation,) = lint_source(source, Path("x.py"), ["RPR004"])
        assert (violation.rule_id, violation.line) == ("RPR000", 1)
        assert "'RPR010'" in violation.message


class TestLineAllows:
    """The pragma matcher itself: every pragma on a line counts."""

    def test_comma_list(self):
        from repro.analysis.lint.engine import line_allows

        lines = ["x = 1  # repro-lint: allow[RPR001, RPR004]"]
        assert line_allows(lines, 1, "RPR001")
        assert line_allows(lines, 1, "RPR004")
        assert not line_allows(lines, 1, "RPR002")

    def test_multiple_pragmas_on_one_line(self):
        from repro.analysis.lint.engine import line_allows

        lines = [
            "x = 1  # repro-lint: allow[RPR001] units"
            "  # repro-lint: allow[RPR004] accounting"
        ]
        assert line_allows(lines, 1, "RPR001")
        assert line_allows(lines, 1, "RPR004")
        assert not line_allows(lines, 1, "RPR002")

    def test_out_of_range_lines_never_allow(self):
        from repro.analysis.lint.engine import line_allows

        assert not line_allows([], 1, "RPR001")
        assert not line_allows(["# repro-lint: allow"], 2, "RPR001")


class TestFilePragma:
    CLOCKY = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    )

    def test_allow_file_suppresses_named_rule_module_wide(self):
        source = (
            "# repro-lint: allow-file[RPR002] CLI-edge timestamps\n"
            + self.CLOCKY
        )
        path = Path("src/repro/obs/manifest.py")
        assert lint_source(source, path, select=["RPR002"]) == []

    def test_without_file_pragma_rule_fires(self):
        path = Path("src/repro/obs/manifest.py")
        violations = lint_source(self.CLOCKY, path, select=["RPR002"])
        assert [v.rule_id for v in violations] == ["RPR002"]

    def test_allow_file_requires_explicit_rule_list(self):
        # A bare allow-file (no brackets) is not a valid spelling and
        # must not suppress anything.
        source = "# repro-lint: allow-file whole module\n" + self.CLOCKY
        path = Path("src/repro/obs/manifest.py")
        violations = lint_source(source, path, select=["RPR002"])
        assert [v.rule_id for v in violations] == ["RPR002"]

    def test_allow_file_only_covers_listed_rules(self):
        source = (
            "# repro-lint: allow-file[RPR001] units only\n" + self.CLOCKY
        )
        path = Path("src/repro/obs/manifest.py")
        violations = lint_source(source, path, select=["RPR002"])
        assert [v.rule_id for v in violations] == ["RPR002"]

    def test_allow_file_trailing_code_ignored(self):
        # Only standalone comment lines count as file pragmas.
        source = (
            "X = 1  # repro-lint: allow-file[RPR002]\n" + self.CLOCKY
        )
        path = Path("src/repro/obs/manifest.py")
        violations = lint_source(source, path, select=["RPR002"])
        assert [v.rule_id for v in violations] == ["RPR002"]

    def test_allow_file_multiple_rules(self):
        source = (
            "# repro-lint: allow-file[RPR001, RPR002] both\n"
            "def f(load_bytes, load_cost):\n"
            "    return load_bytes + load_cost\n"
        )
        path = Path("src/repro/core/x.py")
        assert lint_source(
            source, path, select=["RPR001", "RPR002"]
        ) == []

    def test_obs_paths_now_in_rpr002_scope(self):
        path = Path("src/repro/obs/metrics.py")
        violations = lint_source(self.CLOCKY, path, select=["RPR002"])
        assert [v.rule_id for v in violations] == ["RPR002"]


class TestEngineMechanics:
    def test_syntax_error_becomes_rpr000(self):
        violations = lint_source("def broken(:\n", Path("x.py"))
        assert len(violations) == 1
        assert violations[0].rule_id == "RPR000"

    def test_unknown_select_raises(self):
        with pytest.raises(AnalysisError):
            lint_source("x = 1\n", Path("x.py"), select=["RPR999"])

    def test_render_format(self):
        violation = LintViolation(
            rule_id="RPR001", path="a/b.py", line=3, col=4, message="boom"
        )
        assert violation.render() == "a/b.py:3:4: RPR001 boom"

    def test_iter_python_files_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            list(iter_python_files([Path("definitely/not/here")]))

    def test_lint_paths_sorts_deterministically(self):
        violations = lint(FIXTURES, select=["RPR001"])
        keys = [(v.path, v.line, v.col, v.rule_id) for v in violations]
        assert keys == sorted(keys)

    def test_violations_carry_fixture_paths(self):
        violations = lint(
            FIXTURES / "rpr001" / "bad.py", select=["RPR001"]
        )
        assert violations
        assert all("bad.py" in v.path for v in violations)


class TestCli:
    def test_clean_file_exits_zero(self, capsys):
        exit_code = main([str(FIXTURES / "rpr004" / "good.py")])
        assert exit_code == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one_and_print(self, capsys):
        exit_code = main(
            [str(FIXTURES / "rpr001" / "bad.py"), "--select", "RPR001"]
        )
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "violation" in out

    def test_missing_path_exits_two(self, capsys):
        exit_code = main(["definitely/not/here"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        exit_code = main(
            [str(FIXTURES / "rpr001" / "good.py"), "--select", "NOPE"]
        )
        assert exit_code == 2

    def test_mode_and_cache_options_are_gone(self, capsys):
        for option in ("--project", "--cache"):
            with pytest.raises(SystemExit) as excinfo:
                main([option, str(FIXTURES / "rpr001"), "--list-rules"])
            assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        exit_code = main(["--list-rules"])
        assert exit_code == 0
        out = capsys.readouterr().out
        # One rule per property: a re-split shows up here.
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR011",
        ]
