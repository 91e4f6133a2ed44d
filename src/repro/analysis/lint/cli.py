"""Command-line front end for ``repro-lint``.

``repro-lint PATH...`` loads every ``.py`` file under the paths (files
or directories; ``src/repro`` in CI) as one project, builds the call
graph and function summaries, and runs every rule with that analysis
in hand.  There is no per-file mode: a lone file is a one-module
project.

Exit codes follow the usual linter convention:

* ``0`` — no violations (baselined findings do not count);
* ``1`` — violations found (each printed as ``path:line:col: RULE …``);
* ``2`` — tooling error (unknown rule, missing path, bad baseline, …).

Output formats (``--format``): ``text`` (default), ``json`` (one
machine-readable document, for CI artifacts), and ``github`` (GitHub
Actions ``::error`` workflow annotations).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.lint.engine import (
    RULE_REGISTRY,
    LintViolation,
    apply_baseline,
    baseline_payload,
    lint_paths,
    load_baseline,
)
from repro.errors import AnalysisError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain-aware static analysis for the bypass-caching "
            "reproduction: typed byte/cost units, deterministic replay, "
            "policy conformance, and WAN accounting discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=(
            "files or directories to lint, analysed together as one "
            "project (default: src)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to drop from the results",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        type=Path,
        help=(
            "suppress findings recorded in FILE (rule+path+message "
            "keyed, so line drift does not churn it)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite --baseline FILE with the current findings and "
            "exit 0"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analysis statistics to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> int:
    # Ensure built-in rules are registered before listing.
    import repro.analysis.lint.rules  # noqa: F401

    for rule_id in sorted(RULE_REGISTRY):
        print(f"{rule_id}  {RULE_REGISTRY[rule_id].summary}")
    return 0


def _rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def _validate_ignore(ignore: Sequence[str]) -> Set[str]:
    import repro.analysis.lint.rules  # noqa: F401

    unknown = [
        rule_id for rule_id in ignore if rule_id not in RULE_REGISTRY
    ]
    # RPR000 (syntax error) is engine-level, not registered.
    unknown = [r for r in unknown if r != "RPR000"]
    if unknown:
        raise AnalysisError(
            f"unknown rule(s) in --ignore: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULE_REGISTRY))}"
        )
    return set(ignore)


def _emit_text(
    violations: Sequence[LintViolation], baselined: int
) -> None:
    for violation in violations:
        print(violation.render())
    if baselined:
        plural = "" if baselined == 1 else "s"
        print(
            f"repro-lint: {baselined} baselined finding{plural} "
            f"suppressed"
        )
    if violations:
        count = len(violations)
        plural = "" if count == 1 else "s"
        print(f"repro-lint: {count} violation{plural}")


def _emit_json(
    violations: Sequence[LintViolation],
    baselined: int,
    stats: Dict[str, object],
) -> None:
    document = {
        "violations": [
            {
                "rule": v.rule_id,
                "path": Path(v.path).as_posix(),
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in violations
        ],
        "count": len(violations),
        "baselined": baselined,
        "stats": stats,
    }
    print(json.dumps(document, indent=2, sort_keys=True))


def _emit_github(violations: Sequence[LintViolation]) -> None:
    for v in violations:
        # Workflow-annotation messages must stay single-line; the
        # format's own escaping covers %, CR and LF.
        message = (
            v.message.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        print(
            f"::error file={Path(v.path).as_posix()},line={v.line},"
            f"col={v.col},title={v.rule_id}::{message}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        return _list_rules()

    if options.update_baseline and options.baseline is None:
        print(
            "repro-lint: error: --update-baseline requires --baseline",
            file=sys.stderr,
        )
        return 2

    select = _rule_list(options.select)
    ignore = _rule_list(options.ignore) or []

    started = time.perf_counter()
    try:
        ignored = _validate_ignore(ignore)
        violations, analysis = lint_paths(
            options.paths or [Path("src")], select=select
        )
        if ignored:
            violations = [
                v for v in violations if v.rule_id not in ignored
            ]
        baselined = 0
        if options.baseline is not None and not options.update_baseline:
            baseline = load_baseline(options.baseline)
            violations, baselined = apply_baseline(
                violations, baseline
            )
    except AnalysisError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    stats: Dict[str, object] = {
        **analysis.stats,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }

    if options.update_baseline:
        assert options.baseline is not None
        payload = baseline_payload(violations)
        options.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        count = len(payload["findings"])
        print(
            f"repro-lint: baseline updated with {count} finding(s) "
            f"at {options.baseline}"
        )
        return 0

    if options.stats:
        print(f"repro-lint: stats: {stats}", file=sys.stderr)

    if options.format == "json":
        _emit_json(violations, baselined, stats)
    elif options.format == "github":
        _emit_github(violations)
    else:
        _emit_text(violations, baselined)
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
