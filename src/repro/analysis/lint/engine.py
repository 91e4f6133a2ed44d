"""The ``repro-lint`` rule engine.

A rule is a class with an ``id`` (``RPR<nnn>``), a one-line ``summary``,
an ``applies_to`` path predicate, and a ``check`` generator yielding
:class:`LintViolation` records from a parsed module.  Rules register
themselves into :data:`RULE_REGISTRY` via the :func:`register_rule`
decorator at import time, so adding a rule is one new module under
:mod:`repro.analysis.lint.rules`.

Violations can be suppressed per line with a pragma comment::

    start = time.perf_counter()  # repro-lint: allow[RPR002] timers only

The pragma names the rule it silences (``allow[RPR002]``) or silences
every rule on the line (bare ``allow``); an optional trailing reason is
encouraged.  Modules whose entire purpose is exempt from a rule (e.g.
:mod:`repro.obs.spans`, which measures per-span wall time by design)
declare it once with a **file pragma** on a standalone comment line::

    # repro-lint: allow-file[RPR002] wall-clock reads here are observability

Unlike the line pragma, ``allow-file`` *requires* an explicit rule list —
there is no spelling that exempts a whole module from every rule.  A
pragma naming an id that is not a registered rule suppresses nothing
and is itself reported (``RPR000``), so a stale id cannot rot in place.

There is one pass: :func:`lint_modules` analyses the loaded modules as
one project (call graph + function summaries, see
:mod:`repro.analysis.flow`) and runs every rule on every module with
that analysis in hand.  A lone file, or a source string in a test, is a
one-module project.  The engine only parses files — fixture corpora
with deliberate violations are safe to lint because nothing is
executed.
"""

from __future__ import annotations

import abc
import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.analysis.flow import ProjectAnalysis, analyze_modules
from repro.analysis.flow.loader import ModuleInfo, load_paths
from repro.errors import AnalysisError

#: Pragma grammar: ``# repro-lint: allow[RPR001]`` or ``# repro-lint: allow``.
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*allow(?!-file)(?:\[(?P<rules>[A-Z0-9, ]+)\])?"
)

#: Module-level pragma: ``# repro-lint: allow-file[RPR002] reason`` on a
#: standalone comment line.  The rule list is mandatory.
_FILE_PRAGMA = re.compile(
    r"^\s*#\s*repro-lint:\s*allow-file\[(?P<rules>[A-Z0-9, ]+)\]"
)


def _pragma_ids(match: "re.Match[str]") -> List[str]:
    """The rule ids a pragma match lists (none for a bare ``allow``)."""
    rules = match.group("rules") or ""
    return [part.strip() for part in rules.split(",") if part.strip()]


def file_allowed_rules(lines: Sequence[str]) -> frozenset:
    """Rule ids exempted for the whole module via ``allow-file`` pragmas.

    Only standalone comment lines count — an ``allow-file`` trailing
    code would read as a line pragma gone wrong, so it is ignored.
    """
    allowed = set()
    for line in lines:
        match = _FILE_PRAGMA.match(line)
        if match is not None:
            allowed.update(_pragma_ids(match))
    return frozenset(allowed)


def line_allows(
    lines: Sequence[str], line: int, rule_id: str
) -> bool:
    """Whether a line pragma on ``line`` (1-based) silences ``rule_id``.

    Every pragma on the line is consulted, so two suppressions can sit
    on one line (``# repro-lint: allow[RPR001] … allow[RPR004] …``) and
    comma lists work in either spelling (``allow[RPR001,RPR004]``).
    """
    if not 1 <= line <= len(lines):
        return False
    for match in _PRAGMA.finditer(lines[line - 1]):
        if match.group("rules") is None or rule_id in _pragma_ids(match):
            return True
    return False


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The ``path:line:col: RULE message`` display form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )


@dataclass
class FileContext:
    """Everything a rule needs to know about one module under lint."""

    path: Path
    source: str
    tree: ast.Module
    lines: List[str]
    #: The analysis of the project this module was linted in.
    project: ProjectAnalysis
    #: Dotted module name within that project.
    module: str

    @property
    def posix(self) -> str:
        """Forward-slash path string used for scope predicates."""
        return self.path.as_posix()

    def has_segments(self, *segments: str) -> bool:
        """True when ``segments`` appear consecutively in the path."""
        parts = self.path.parts
        window = len(segments)
        return any(
            parts[i : i + window] == segments
            for i in range(len(parts) - window + 1)
        )


class Rule(abc.ABC):
    """Base class for every ``repro-lint`` rule."""

    #: Stable identifier, ``RPR`` + three digits.
    rule_id: str = "RPR000"
    #: One-line description shown by ``repro-lint --list-rules``.
    summary: str = ""

    def applies_to(self, context: FileContext) -> bool:
        """Whether this rule should run on ``context`` (default: yes)."""
        return True

    @abc.abstractmethod
    def check(self, context: FileContext) -> Iterator[LintViolation]:
        """Yield violations found in the module."""

    def violation(
        self, context: FileContext, node: ast.AST, message: str
    ) -> LintViolation:
        """Build a violation anchored at ``node``."""
        return LintViolation(
            rule_id=self.rule_id,
            path=str(context.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule_id -> rule class; populated by :func:`register_rule`.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    rule_id = rule_class.rule_id
    if not re.fullmatch(r"RPR\d{3}", rule_id):
        raise AnalysisError(
            f"rule id must match RPR<nnn>, got {rule_id!r}"
        )
    existing = RULE_REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise AnalysisError(
            f"duplicate registration for {rule_id}: "
            f"{existing.__name__} vs {rule_class.__name__}"
        )
    RULE_REGISTRY[rule_id] = rule_class
    return rule_class


def _load_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    # Importing the rules package triggers registration; deferred so the
    # engine module stays importable from rule modules without a cycle.
    import repro.analysis.lint.rules  # noqa: F401

    if select is None:
        chosen = sorted(RULE_REGISTRY)
    else:
        chosen = []
        for rule_id in select:
            rule_id = rule_id.strip().upper()
            if rule_id not in RULE_REGISTRY:
                raise AnalysisError(
                    f"unknown rule {rule_id!r}; known: "
                    f"{', '.join(sorted(RULE_REGISTRY))}"
                )
            chosen.append(rule_id)
    return [RULE_REGISTRY[rule_id]() for rule_id in chosen]


def _syntax_violation(path: Path, exc: SyntaxError) -> LintViolation:
    return LintViolation(
        rule_id="RPR000",
        path=str(path),
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"syntax error: {exc.msg}",
    )


def _unknown_pragma_ids(context: FileContext) -> Iterator[LintViolation]:
    """``RPR000`` for every pragma id that names no registered rule."""
    for number, line in enumerate(context.lines, start=1):
        if "repro-lint:" not in line:
            continue
        matches = list(_PRAGMA.finditer(line))
        file_match = _FILE_PRAGMA.match(line)
        if file_match is not None:
            matches.append(file_match)
        for match in matches:
            for rule_id in _pragma_ids(match):
                if rule_id not in RULE_REGISTRY:
                    yield LintViolation(
                        rule_id="RPR000",
                        path=str(context.path),
                        line=number,
                        col=match.start(),
                        message=(
                            f"pragma names unknown rule {rule_id!r} and "
                            f"suppresses nothing; known: "
                            f"{', '.join(sorted(RULE_REGISTRY))}"
                        ),
                    )


def _check_context(
    context: FileContext, rules: Sequence[Rule]
) -> List[LintViolation]:
    file_allowed = file_allowed_rules(context.lines)
    violations = list(_unknown_pragma_ids(context))
    for rule in rules:
        if rule.rule_id in file_allowed:
            continue
        if not rule.applies_to(context):
            continue
        for violation in rule.check(context):
            if not line_allows(
                context.lines, violation.line, violation.rule_id
            ):
                violations.append(violation)
    return violations


def lint_modules(
    modules: Dict[str, ModuleInfo],
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[LintViolation], ProjectAnalysis]:
    """Lint loaded modules as one project: the engine's one entry.

    Modules that parse feed the interprocedural analysis, then every
    selected rule runs on each of them with that analysis as
    :attr:`FileContext.project`.  Modules that do not parse surface as
    ``RPR000`` and stay out of the call graph.
    """
    rules = _load_rules(select)
    violations: List[LintViolation] = []
    parsed: Dict[str, ModuleInfo] = {}
    for name, info in sorted(modules.items()):
        try:
            info.tree
        except SyntaxError as exc:
            violations.append(_syntax_violation(info.path, exc))
        else:
            parsed[name] = info
    analysis = analyze_modules(parsed)
    for name, info in parsed.items():
        context = FileContext(
            path=info.path,
            source=info.source,
            tree=info.tree,
            lines=info.lines,
            project=analysis,
            module=name,
        )
        violations.extend(_check_context(context, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, analysis


def lint_paths(
    paths: Iterable[Path], select: Optional[Sequence[str]] = None
) -> Tuple[List[LintViolation], ProjectAnalysis]:
    """:func:`lint_modules` over every ``.py`` file under ``paths``."""
    return lint_modules(load_paths(paths), select)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

#: Baseline key: (rule id, posix path, message) — line numbers are
#: deliberately excluded so unrelated edits do not churn the file.
BaselineKey = Tuple[str, str, str]


def _baseline_key(violation: LintViolation) -> BaselineKey:
    return (
        violation.rule_id,
        Path(violation.path).as_posix(),
        violation.message,
    )


def load_baseline(path: Path) -> Set[BaselineKey]:
    """Parse a baseline file into its suppression keys."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}")
    except ValueError as exc:
        raise AnalysisError(f"malformed baseline {path}: {exc}")
    findings = payload.get("findings", [])
    keys: Set[BaselineKey] = set()
    for finding in findings:
        keys.add(
            (
                str(finding["rule"]),
                str(finding["path"]),
                str(finding["message"]),
            )
        )
    return keys


def apply_baseline(
    violations: Sequence[LintViolation], baseline: Set[BaselineKey]
) -> Tuple[List[LintViolation], int]:
    """Split out baselined findings; returns (fresh, matched-count)."""
    fresh: List[LintViolation] = []
    matched = 0
    for violation in violations:
        if _baseline_key(violation) in baseline:
            matched += 1
        else:
            fresh.append(violation)
    return fresh, matched


def baseline_payload(
    violations: Sequence[LintViolation],
    justifications: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """JSON document for ``--update-baseline``.

    ``justifications`` maps a rule id to a one-line reason recorded
    alongside its findings; unexplained entries get a placeholder so
    review can demand a reason.
    """
    justifications = justifications or {}
    findings = []
    for violation in sorted(
        violations, key=lambda v: (v.path, v.line, v.col, v.rule_id)
    ):
        rule_id, path, message = _baseline_key(violation)
        findings.append(
            {
                "rule": rule_id,
                "path": path,
                "message": message,
                "justification": justifications.get(
                    rule_id, "TODO: justify or fix"
                ),
            }
        )
    return {"version": 1, "findings": findings}
