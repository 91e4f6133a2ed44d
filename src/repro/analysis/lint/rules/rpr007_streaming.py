"""RPR007 — streaming paths must stay bounded.

The scale refactor made the replay loop constant-memory: traces are
generated and consumed as streams, the cumulative series goes through
an adaptive-stride :class:`~repro.sim.streaming.SampledSeries`, and
chunked traces are read line by line.  One careless
``results.append(...)`` inside a replay loop — or a ``list(stream)``
to "just look at" the queries — silently reintroduces O(trace) memory,
which nothing notices until a million-query run falls over.

For modules under ``repro/sim`` and ``repro/workload``, this rule
flags:

* ``list(...)`` / ``tuple(...)`` materialization of a stream-like
  value (an argument named like a stream, trace, or query sequence, or
  a call to one of the known stream constructors);
* ``.append(...)`` / ``.extend(...)`` accumulation inside a loop that
  iterates a stream-like iterable;
* dict/list entries keyed by the loop variable inside such a loop
  (``index[query.index] = ...`` grows once per streamed query).

Intentional sites — a small-trace opt-in that documents its growth, a
chunk manifest list bounded by chunk count — carry a line pragma::

    cumulative.append(total)  # repro-lint: allow[RPR007] explicit small-trace opt-in

The detector is syntactic, like RPR005: it cannot prove boundedness,
only stop the easy regression of materializing or accumulating a whole
trace on a path that was built to stream.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Iterator, Optional, Set

from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)

#: Names that smell like an unbounded query stream when iterated or
#: materialized wholesale.
_STREAMY_NAMES = {
    "stream",
    "streams",
    "queries",
    "records",
    "events",
    "trace",
    "compiled",
    "prepared",
}

#: Generator constructors whose output is an unbounded stream.
_STREAM_CALLS = {
    "iter_compiled",
    "iter_prepared",
    "iter_trace_records",
    "iter_queries",
}


def _mentions_stream(
    node: ast.AST, stream_calls: AbstractSet[str] = frozenset()
) -> bool:
    """True when ``node`` textually references a stream-like value.

    A *bare* ``self`` counts (the object itself is the stream, as in
    ``ChunkedTrace``'s ``list(self)``); ``self.some_attr`` does not —
    attributes are judged by their own names, else every bounded
    instance list would fire.  ``stream_calls`` extends the known
    generator constructors with every public generator function the
    analysis discovered.
    """
    all_stream_calls = _STREAM_CALLS | stream_calls
    if isinstance(node, ast.Name) and node.id == "self":
        return True
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in _STREAMY_NAMES:
            return True
        if (
            isinstance(child, ast.Attribute)
            and child.attr in (_STREAMY_NAMES | all_stream_calls)
        ):
            return True
        if isinstance(child, ast.Call):
            func = child.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in all_stream_calls:
                return True
    return False


def _materialization(
    node: ast.AST, stream_calls: AbstractSet[str] = frozenset()
) -> Optional[str]:
    """Describe ``node`` when it materializes a stream, else None."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and len(node.args) == 1
    ):
        return None
    if _mentions_stream(node.args[0], stream_calls):
        return (
            f"{node.func.id}(...) materializes a stream-like value in "
            f"full"
        )
    return None


def _accumulation(node: ast.AST) -> Optional[str]:
    """Describe ``node`` when it accumulates into a growing container."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("append", "extend")
    ):
        return (
            f".{node.func.attr}(...) accumulates once per streamed "
            f"query"
        )
    return None


def _keyed_entry(node: ast.AST, loop_targets: Set[str]) -> Optional[str]:
    """Describe ``node`` when it stores a dict/list entry keyed by the
    loop variable (one entry per streamed query), else None."""
    if not (isinstance(node, ast.Assign) and loop_targets):
        return None
    for target in node.targets:
        if not isinstance(target, ast.Subscript):
            continue
        mentions_target = any(
            isinstance(child, ast.Name) and child.id in loop_targets
            for child in ast.walk(target.slice)
        )
        if mentions_target:
            return "keyed entry assignment stores one item per streamed query"
    return None


@register_rule
class StreamingBoundednessRule(Rule):
    """Keep sim/workload streaming paths constant-memory."""

    rule_id = "RPR007"
    summary = (
        "sim/workload streaming paths must stay bounded: no "
        "list()/tuple() materialization of a stream, no per-query "
        ".append/.extend accumulation inside stream loops; use "
        "SampledSeries/chunked IO or a pragma-sanctioned opt-in"
    )

    def applies_to(self, context: FileContext) -> bool:
        return context.has_segments("sim") or context.has_segments(
            "workload"
        )

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        seen: Set[int] = set()
        # Every public generator function the analysis discovered is
        # a stream source, not just the hard-coded constructor names.
        stream_calls = {
            name
            for name in context.project.generator_functions()
            if not name.startswith("_")
        }
        for node in ast.walk(context.tree):
            described = _materialization(node, stream_calls)
            if described is not None and id(node) not in seen:
                seen.add(id(node))
                yield self.violation(
                    context,
                    node,
                    f"{described}; streaming paths read one query at a "
                    f"time — or mark an intentional small-trace site "
                    f"with '# repro-lint: allow[RPR007] <reason>'",
                )
            if isinstance(
                node, (ast.For, ast.AsyncFor)
            ) and _mentions_stream(node.iter, stream_calls):
                yield from self._check_loop(context, node, seen)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp)
            ) and any(
                _mentions_stream(gen.iter, stream_calls)
                for gen in node.generators
            ):
                if id(node) not in seen:
                    seen.add(id(node))
                    yield self.violation(
                        context,
                        node,
                        "comprehension over a stream-like iterable "
                        "materializes it in full; iterate instead — or "
                        "mark an intentional site with "
                        "'# repro-lint: allow[RPR007] <reason>'",
                    )

    def _check_loop(
        self,
        context: FileContext,
        loop: ast.AST,
        seen: Set[int],
    ) -> Iterator[LintViolation]:
        targets = {
            name.id
            for name in ast.walk(getattr(loop, "target", loop))
            if isinstance(name, ast.Name)
        }
        for node in ast.walk(loop):
            described = _accumulation(node)
            if described is None:
                described = _keyed_entry(node, targets)
            if described is None or id(node) in seen:
                continue
            seen.add(id(node))
            yield self.violation(
                context,
                node,
                f"{described} inside a stream loop, growing without "
                f"bound; use a SampledSeries or incremental "
                f"accounting — or mark an intentional site with "
                f"'# repro-lint: allow[RPR007] <reason>'",
            )
