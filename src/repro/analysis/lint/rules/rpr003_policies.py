"""RPR003 — cache-policy conformance.

Every algorithm under ``repro/core/policies`` plugs into the same
replay machinery; the simulator, the proxy, and the parallel runners
all assume the :class:`~repro.core.policies.base.CachePolicy` contract.
For modules on a ``core/policies`` path this rule enforces:

* every ``*Policy`` class is part of the policy hierarchy — it derives
  from another ``*Policy`` class, or is the abstract root (derives from
  ``abc.ABC``);
* every *direct* subclass of ``CachePolicy`` defines ``decide`` — the
  one method the template ``process`` dispatches to;
* no function takes a mutable default argument (``[]``, ``{}``,
  ``set()``, …) — policy instances are constructed per replay cell and
  shared defaults leak state across parallel runs;
* instance state (``self.x = …``, ``self.x[k] = …``) is only mutated
  inside the sanctioned mutation points — ``__init__``, ``decide``,
  ``process``, ``invalidate``, ``update``, or private helpers — never
  in public read/introspection methods, whose callers (reports, tests,
  sweep summaries) assume they are side-effect free.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)

_MUTATION_METHODS = {"__init__", "decide", "process", "invalidate", "update"}

_MUTABLE_DEFAULT_CALLS = {
    "list", "dict", "set", "defaultdict", "OrderedDict", "deque",
}


def _base_names(class_def: ast.ClassDef) -> List[str]:
    names = []
    for base in class_def.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_DEFAULT_CALLS
    return False


def _self_mutation_target(target: ast.expr) -> Optional[str]:
    """Attribute name when ``target`` writes ``self.<attr>`` state."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@register_rule
class PolicyConformanceRule(Rule):
    """Enforce the CachePolicy contract across core/policies."""

    rule_id = "RPR003"
    summary = (
        "policy classes must join the CachePolicy hierarchy, define "
        "decide, avoid mutable defaults, and mutate state only in "
        "sanctioned methods"
    )

    def applies_to(self, context: FileContext) -> bool:
        return context.has_segments("core", "policies")

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(context, node)
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    def _check_defaults(
        self, context: FileContext, function: ast.AST
    ) -> Iterator[LintViolation]:
        defaults = list(function.args.defaults)
        defaults.extend(
            default
            for default in function.args.kw_defaults
            if default is not None
        )
        for default in defaults:
            if _is_mutable_default(default):
                yield self.violation(
                    context,
                    default,
                    f"mutable default argument in {function.name}(); "
                    f"policies are built per replay cell — default to "
                    f"None and construct inside the body",
                )

    def _check_class(
        self, context: FileContext, class_def: ast.ClassDef
    ) -> Iterator[LintViolation]:
        bases = _base_names(class_def)
        is_policy = class_def.name.endswith("Policy")
        has_policy_base = any(base.endswith("Policy") for base in bases)
        is_abstract_root = "ABC" in bases or "ABCMeta" in bases

        if is_policy and not has_policy_base and not is_abstract_root:
            yield self.violation(
                context,
                class_def,
                f"{class_def.name} does not derive from the CachePolicy "
                f"hierarchy (or abc.ABC for the interface root)",
            )

        methods = {
            node.name: node
            for node in class_def.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "CachePolicy" in bases and "decide" not in methods:
            yield self.violation(
                context,
                class_def,
                f"{class_def.name} subclasses CachePolicy but does not "
                f"implement decide()",
            )
        elif "CachePolicy" not in bases and not is_abstract_root:
            # The call graph sees through intermediate bases: an
            # indirect CachePolicy subclass must resolve decide()
            # somewhere in its hierarchy even when no single file
            # shows the chain.
            graph = context.project.graph
            ancestors = graph.mro_bases(context.module, class_def.name)
            if any(name == "CachePolicy" for _, name in ancestors):
                resolved = graph.method_of(
                    context.module, class_def.name, "decide"
                )
                if resolved is None or resolved.endswith(
                    ".CachePolicy.decide"
                ):
                    chain = " -> ".join(
                        name for _, name in ancestors
                    )
                    yield self.violation(
                        context,
                        class_def,
                        f"{class_def.name} reaches CachePolicy through "
                        f"{chain} but no class on the chain implements "
                        f"decide()",
                    )

        if not (is_policy and (has_policy_base or is_abstract_root)):
            return
        for name, method in methods.items():
            if name in _MUTATION_METHODS or name.startswith("_"):
                continue
            for statement in ast.walk(method):
                targets: List[ast.expr] = []
                if isinstance(statement, ast.Assign):
                    targets = list(statement.targets)
                elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                    targets = [statement.target]
                for target in targets:
                    attr = _self_mutation_target(target)
                    if attr is not None:
                        yield self.violation(
                            context,
                            statement,
                            f"{class_def.name}.{name}() mutates "
                            f"self.{attr}; policy state may only change "
                            f"in {sorted(_MUTATION_METHODS)} or private "
                            f"helpers",
                        )
