"""Per-module symbol tables and cross-module reference resolution.

Each module gets a :class:`ModuleSymbols` record mapping local names to
what they denote — an import alias, a module-level function, or a class
with its methods.  The tables are combined into a project-wide index
by :mod:`repro.analysis.flow.callgraph`.

Call references produced by the extractor are small tagged tuples:

* ``("q", "a.b.c")`` — a resolved dotted target (project function,
  imported symbol, or an external like ``time.monotonic``);
* ``("s", "ClassName", "method")`` — a ``self.method()`` call inside a
  class body, resolved against the class (and later its bases);
* ``("m", "method")`` — an attribute call on an unknown object,
  resolvable only if exactly one project class defines the method;
* ``("u", "name")`` — unresolvable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: A tagged call reference (see the module docstring).
Ref = Tuple[str, ...]


@dataclass
class ClassSymbols:
    """One class: its methods and base-class references."""

    name: str
    lineno: int
    methods: Dict[str, int] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleSymbols:
    """Name bindings visible at a module's top level."""

    module: str
    #: local alias -> dotted target (``import a.b as c`` => c: "a.b";
    #: ``from a.b import f`` => f: "a.b.f").
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level function name -> lineno.
    functions: Dict[str, int] = field(default_factory=dict)
    #: class name -> class symbols.
    classes: Dict[str, ClassSymbols] = field(default_factory=dict)


def _resolve_relative(module: str, level: int, target: str) -> str:
    """Absolute dotted path of a ``from ...x import y`` target."""
    parts = module.split(".")
    # level 1 = the current package (strip the module's own leaf).
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def build_symbols(module: str, tree: ast.Module) -> ModuleSymbols:
    """Extract the symbol table of one parsed module."""
    symbols = ModuleSymbols(module=module)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                symbols.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = _resolve_relative(module, node.level, base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                symbols.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            class_symbols = ClassSymbols(
                name=node.name, lineno=node.lineno
            )
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    class_symbols.methods[item.name] = item.lineno
            for base_node in node.bases:
                dotted = dotted_name(base_node)
                if dotted is not None:
                    class_symbols.bases.append(dotted)
            symbols.classes[node.name] = class_symbols
    return symbols


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a simple attribute chain rooted at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_dotted(symbols: ModuleSymbols, dotted: str) -> Ref:
    """Resolve a dotted expression seen inside ``symbols``' module.

    The head segment is looked up in the module's bindings: a local
    function or class wins, then an import alias; an unbound head is
    returned untouched (builtins, externals named in full).
    """
    head, _, rest = dotted.partition(".")
    if head in symbols.functions or head in symbols.classes:
        target = f"{symbols.module}.{head}"
    elif head in symbols.imports:
        target = symbols.imports[head]
    else:
        return ("q", dotted) if rest else ("u", dotted)
    return ("q", f"{target}.{rest}" if rest else target)
