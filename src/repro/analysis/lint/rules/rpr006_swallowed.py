"""RPR006 — no swallowed errors on federation/fault retry paths.

The resilience layer's contract is that every failed transfer is either
*surfaced* (re-raised, usually as :class:`BackendUnavailable`, so the
decision pipeline can degrade the query) or *recorded* (retry waste
charged through a sanctioned ledger mutator, a counter incremented, a
rollback performed).  A handler that quietly eats the exception breaks
both halves at once: the WAN totals under-count real traffic and the
availability accounting over-counts successes — exactly the silent
drift the fault engine exists to prevent.

For modules under ``repro.federation`` and ``repro.faults`` this rule
flags:

* bare ``except:`` and ``except Exception:`` / ``except BaseException:``
  handlers (alone or inside a tuple) — retry paths must catch the
  *typed* failures they can actually handle;
* any handler — typed or not — whose body neither re-raises nor records
  the failure.  "Records" is syntactic: a ``raise``, a call to a
  ``record_*`` ledger mutator, a counter (``count``/``_count``/``inc``),
  a rollback (``invalidate``), an appended failure list, or a logging
  call anywhere in the handler body qualifies.

Deliberate exceptions carry the usual pragma, stating why::

    except ValueError:  # repro-lint: allow[RPR006] best-effort probe
        pass
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.flow.symbols import dotted_name
from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)

#: Catching these names is a broad catch-all, not a typed retry path.
_BROAD_NAMES = {"Exception", "BaseException"}

#: Call names (function or attribute) whose presence in a handler body
#: counts as recording the failure.
_RECORDING_CALLS = {
    "count",
    "_count",
    "inc",
    "invalidate",
    "append",
    "add",
    "record_failure",
    "log",
    "debug",
    "info",
    "warning",
    "error",
    "exception",
}


def _exception_names(handler: ast.ExceptHandler) -> List[str]:
    """Plain names of the exception types a handler catches."""
    node = handler.type
    if node is None:
        return []
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for item in nodes:
        if isinstance(item, ast.Name):
            names.append(item.id)
        elif isinstance(item, ast.Attribute):
            names.append(item.attr)
    return names


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _handles_failure(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises or records the failure."""
    for statement in handler.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name is not None and (
                    name in _RECORDING_CALLS
                    or name.startswith("record_")
                ):
                    return True
    return False


@register_rule
class SwallowedErrorRule(Rule):
    """Keep federation/fault error handlers loud: re-raise or record."""

    rule_id = "RPR006"
    summary = (
        "federation/faults except-handlers must not swallow errors: "
        "no bare except/except Exception, and every handler body must "
        "re-raise or record the failure (ledger mutator, counter, "
        "rollback, or log call)"
    )

    def applies_to(self, context: FileContext) -> bool:
        return context.has_segments("federation") or context.has_segments(
            "faults"
        )

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(context, node)

    @staticmethod
    def _project_handles(
        context: FileContext, handler: ast.ExceptHandler
    ) -> bool:
        """A call into a function whose summary mutates shared
        ledger/accounting state counts as recording the failure, even
        when its name says nothing (``_note_waste(...)``)."""
        project = context.project
        for statement in handler.body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                callee = project.resolve_dotted_call(
                    context.module, dotted
                )
                if callee is not None and project.mutates_shared(
                    callee
                ):
                    return True
        return False

    def _check_handler(
        self, context: FileContext, handler: ast.ExceptHandler
    ) -> Iterator[LintViolation]:
        names = _exception_names(handler)
        broad = [name for name in names if name in _BROAD_NAMES]
        if handler.type is None:
            yield self.violation(
                context,
                handler,
                "bare except: catches everything including typos and "
                "KeyboardInterrupt; catch the typed failure the retry "
                "path can actually handle",
            )
        elif broad:
            yield self.violation(
                context,
                handler,
                f"except {broad[0]}: is a catch-all on a retry path; "
                f"catch the typed failure (e.g. BackendUnavailable, "
                f"FaultError) instead",
            )
        if not _handles_failure(handler) and not self._project_handles(
            context, handler
        ):
            caught = ", ".join(names) if names else "everything"
            yield self.violation(
                context,
                handler,
                f"handler for {caught} swallows the error: the body "
                f"must re-raise or record it (ledger record_*, a "
                f"counter, policy.invalidate, or a log call) — silent "
                f"failure under-counts WAN traffic and fakes "
                f"availability",
            )
