"""Per-module fact extraction (the local half of the analysis).

One pass over a module's AST produces a :class:`ModuleSummary`: for
every function and method — and for the module's own top-level
statements, kept as the pseudo-function ``<module>`` — the facts the
interprocedural phase and the lint rules read: parameter units,
symbolic return expressions, every call site with symbolic argument
units, unit-mixing candidate sites, direct nondeterminism sites,
full-scan constructs, and attribute writes.

Names carry units, assignments propagate them, branches merge; a call
becomes a ``["c", i]`` placeholder that the summary phase evaluates
against the real callee's summary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.flow import contracts
from repro.analysis.flow.lattice import (
    ANNOTATION_UNITS,
    AbstractUnit,
    UExpr,
    classify_name,
    u_call,
    u_const,
    u_merge,
    u_mul,
    u_div,
    u_param,
    u_unknown,
)
from repro.analysis.flow.symbols import (
    ModuleSymbols,
    Ref,
    build_symbols,
    dotted_name,
    resolve_dotted,
)

#: Builtins transparent to units (result = merged argument units).
_TRANSPARENT_CALLS = frozenset(
    {"float", "int", "abs", "round", "max", "min", "sum"}
)

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Name of the pseudo-function holding a module's import-time statements.
MODULE_LEVEL = "<module>"

#: ``line, rule_id -> suppressed`` predicate supplied by the engine.
SuppressionCheck = Callable[[int, str], bool]


@dataclass
class CallSite:
    """One call expression inside a function."""

    ref: Ref
    line: int
    col: int
    args: List[UExpr] = field(default_factory=list)
    kwargs: Dict[str, UExpr] = field(default_factory=dict)
    has_arguments: bool = False


@dataclass
class MixSite:
    """An add/sub/compare whose operand units may conflict."""

    line: int
    col: int
    verb: str
    left: UExpr
    right: UExpr


@dataclass
class PairSite:
    """A call quoting ``fetch_cost=`` and ``yield_bytes=`` together."""

    line: int
    col: int
    cost: UExpr
    yield_bytes: UExpr


@dataclass
class NondetSite:
    """A direct entropy/wall-clock/set-order hazard in a function."""

    reason: str
    line: int
    col: int


@dataclass
class SharedWrite:
    """An attribute write (``holder.attr = …`` / ``+=`` / ``del``)."""

    attr: str
    holder: str
    is_self: bool
    line: int
    col: int


@dataclass
class FunctionFacts:
    """Everything the project phases know about one function."""

    qualname: str
    name: str
    lineno: int
    class_name: Optional[str] = None
    params: List[str] = field(default_factory=list)
    param_units: List[AbstractUnit] = field(default_factory=list)
    return_annotation_unit: Optional[AbstractUnit] = None
    calls: List[CallSite] = field(default_factory=list)
    returns: List[UExpr] = field(default_factory=list)
    mixes: List[MixSite] = field(default_factory=list)
    pairs: List[PairSite] = field(default_factory=list)
    nondet: List[NondetSite] = field(default_factory=list)
    writes: List[SharedWrite] = field(default_factory=list)
    #: ``(description, line, col)`` of every full-scan construct
    #: (sorted()/min-max sweeps/.object_ids()), read by RPR005.
    scan_sites: List[Tuple[str, int, int]] = field(default_factory=list)
    is_generator: bool = False

    def param_unit(self, index: int) -> AbstractUnit:
        if 0 <= index < len(self.param_units):
            return self.param_units[index]
        return AbstractUnit.UNKNOWN

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ModuleSummary:
    """The per-module product of the extraction pass."""

    module: str
    symbols: ModuleSymbols
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)


def _annotation_unit(node: Optional[ast.expr]) -> Optional[AbstractUnit]:
    if isinstance(node, ast.Name):
        return ANNOTATION_UNITS.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ANNOTATION_UNITS.get(node.value)
    if isinstance(node, ast.Attribute):
        return ANNOTATION_UNITS.get(node.attr)
    return None


class _FunctionExtractor:
    """Builds the :class:`FunctionFacts` of one function body."""

    def __init__(
        self,
        facts: FunctionFacts,
        symbols: ModuleSymbols,
        suppressed: SuppressionCheck,
    ) -> None:
        self.facts = facts
        self.symbols = symbols
        self.suppressed = suppressed
        self.env: Dict[str, UExpr] = {
            name: u_param(index)
            for index, name in enumerate(facts.params)
        }
        self._recorded: Set[int] = set()

    # -- expression inference -------------------------------------------

    def infer(self, node: Optional[ast.AST]) -> UExpr:
        if node is None:
            return u_unknown()
        if isinstance(node, ast.Name):
            known = self.env.get(node.id)
            if known is not None:
                return known
            return u_const(classify_name(node.id))
        if isinstance(node, ast.Attribute):
            return u_const(classify_name(node.attr))
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            return u_merge(self.infer(node.body), self.infer(node.orelse))
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return u_unknown()
        if isinstance(node, ast.NamedExpr):
            value = self.infer(node.value)
            self.env[node.target.id] = value
            return value
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.infer(value)
            return u_unknown()
        return u_unknown()

    def _check_scan(self, node: ast.Call) -> None:
        func = node.func
        description = None
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                description = "sorted(...) ranks the full candidate set"
            elif func.id in ("min", "max") and any(
                isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                for arg in node.args
            ):
                description = (
                    f"{func.id}(...) sweeps a comprehension over the "
                    f"candidate set"
                )
        elif isinstance(func, ast.Attribute) and func.attr == "object_ids":
            description = (
                ".object_ids() enumerates every resident object"
            )
        if description is not None and not self.suppressed(
            node.lineno, "RPR005"
        ):
            self.facts.scan_sites.append(
                (description, node.lineno, node.col_offset)
            )

    def _infer_call(self, node: ast.Call) -> UExpr:
        self._recorded.add(id(node))
        self._check_scan(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id in _TRANSPARENT_CALLS:
            # Unit-transparent builtins: no call site, merged args.
            result = u_unknown()
            for arg in node.args:
                result = u_merge(result, self.infer(arg))
            for keyword in node.keywords:
                self.infer(keyword.value)
            return result
        ref = self._call_ref(func)
        args = [
            self.infer(arg)
            for arg in node.args
            if not isinstance(arg, ast.Starred)
        ]
        kwargs = {
            keyword.arg: self.infer(keyword.value)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        site = CallSite(
            ref=ref,
            line=node.lineno,
            col=node.col_offset,
            args=args,
            kwargs=kwargs,
            has_arguments=bool(node.args or node.keywords),
        )
        self.facts.calls.append(site)
        index = len(self.facts.calls) - 1
        self._check_nondet_call(site)
        if "fetch_cost" in kwargs and "yield_bytes" in kwargs:
            self.facts.pairs.append(
                PairSite(
                    line=node.lineno,
                    col=node.col_offset,
                    cost=kwargs["fetch_cost"],
                    yield_bytes=kwargs["yield_bytes"],
                )
            )
        return u_call(index)

    def _call_ref(self, func: ast.expr) -> Ref:
        dotted = dotted_name(func)
        if dotted is None:
            if isinstance(func, ast.Attribute):
                return ("m", func.attr)
            return ("u", "<dynamic>")
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and rest:
            parts = rest.split(".")
            if len(parts) == 1 and self.facts.class_name is not None:
                return ("s", self.facts.class_name, parts[0])
            return ("m", parts[-1])
        return resolve_dotted(self.symbols, dotted)

    def _infer_binop(self, node: ast.BinOp) -> UExpr:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._record_mix(node, left, right, "combined")
            return u_merge(left, right)
        if isinstance(node.op, ast.Mult):
            return u_mul(left, right)
        if isinstance(node.op, ast.Div):
            return u_div(left, right)
        return u_unknown()

    def _check_compare(self, node: ast.Compare) -> None:
        exprs = [self.infer(node.left)]
        exprs.extend(
            self.infer(comparator) for comparator in node.comparators
        )
        for index in range(len(exprs) - 1):
            self._record_mix(
                node, exprs[index], exprs[index + 1], "compared"
            )

    def _record_mix(
        self, node: ast.AST, left: UExpr, right: UExpr, verb: str
    ) -> None:
        self.facts.mixes.append(
            MixSite(
                line=getattr(node, "lineno", self.facts.lineno),
                col=getattr(node, "col_offset", 0),
                verb=verb,
                left=left,
                right=right,
            )
        )

    # -- effect sites ----------------------------------------------------

    def _check_nondet_call(self, site: CallSite) -> None:
        if site.ref[0] not in ("q", "u"):
            return
        reason = contracts.nondet_call_reason(
            site.ref[-1], site.has_arguments
        )
        if reason is None:
            return
        if self.suppressed(site.line, "RPR002"):
            return
        self.facts.nondet.append(
            NondetSite(reason=reason, line=site.line, col=site.col)
        )

    def _check_set_iteration(self, iterable: ast.expr) -> None:
        is_hazard = isinstance(iterable, ast.Set) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if not is_hazard:
            return
        line = iterable.lineno
        if self.suppressed(line, "RPR002"):
            return
        self.facts.nondet.append(
            NondetSite(
                reason="set iteration order",
                line=line,
                col=iterable.col_offset,
            )
        )

    def _record_write(self, target: ast.expr, node: ast.stmt) -> None:
        inner = target
        while isinstance(inner, ast.Subscript):
            inner = inner.value
        if not isinstance(inner, ast.Attribute):
            return
        holder = dotted_name(inner.value)
        if holder is None:
            holder = "<expr>"
        self.facts.writes.append(
            SharedWrite(
                attr=inner.attr,
                holder=holder,
                is_self=holder in ("self", "cls"),
                line=node.lineno,
                col=node.col_offset,
            )
        )

    # -- statement walk --------------------------------------------------

    def run(self, body: List[ast.stmt]) -> None:
        self._walk(body)

    def _walk(self, body: List[ast.stmt]) -> None:
        for statement in body:
            self._statement(statement)
            self._sweep_missed_effects(statement)

    def _statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, _FUNCTION_DEFS):
            self._closure(statement)
            return
        if isinstance(statement, ast.ClassDef):
            return  # effects collected by the sweep
        if isinstance(statement, ast.Assign):
            value = self.infer(statement.value)
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = value
                else:
                    self._record_write(target, statement)
        elif isinstance(statement, ast.AnnAssign):
            declared = _annotation_unit(statement.annotation)
            value = (
                u_const(declared)
                if declared is not None
                else self.infer(statement.value)
            )
            if isinstance(statement.target, ast.Name):
                self.env[statement.target.id] = value
            else:
                self._record_write(statement.target, statement)
        elif isinstance(statement, ast.AugAssign):
            target_expr = self.infer(statement.target)
            value_expr = self.infer(statement.value)
            if isinstance(statement.op, (ast.Add, ast.Sub)):
                self._record_mix(
                    statement, target_expr, value_expr, "combined"
                )
            if isinstance(statement.target, ast.Name):
                self.env[statement.target.id] = u_merge(
                    target_expr, value_expr
                )
            else:
                self._record_write(statement.target, statement)
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._record_write(target, statement)
        elif isinstance(statement, ast.If):
            self.infer(statement.test)
            self._branch(statement.body, statement.orelse)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self._check_set_iteration(statement.iter)
            self.infer(statement.iter)
            self._walk(statement.body)
            self._walk(statement.orelse)
        elif isinstance(statement, ast.While):
            self.infer(statement.test)
            self._walk(statement.body)
            self._walk(statement.orelse)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self.infer(item.context_expr)
            self._walk(statement.body)
        elif isinstance(statement, ast.Try):
            self._walk(statement.body)
            for handler in statement.handlers:
                self._walk(handler.body)
            self._walk(statement.orelse)
            self._walk(statement.finalbody)
        elif isinstance(statement, ast.Return):
            self.facts.returns.append(self.infer(statement.value))
        elif isinstance(statement, ast.Expr):
            self.infer(statement.value)
        elif isinstance(statement, ast.Assert):
            self.infer(statement.test)
        elif isinstance(statement, ast.Raise):
            self.infer(statement.exc)

    def _closure(self, node: ast.AST) -> None:
        """Walk a nested function in place, under its own names: its
        mixes, writes and calls count as the enclosing function's."""
        outer_env, outer_returns = self.env, self.facts.returns
        self.env = dict(outer_env)
        for name, unit in zip(*_function_params(node, is_method=False)):
            self.env[name] = u_const(unit)
        self.facts.returns = []
        self._walk(node.body)  # type: ignore[attr-defined]
        self.env, self.facts.returns = outer_env, outer_returns

    def _branch(
        self, body: List[ast.stmt], orelse: List[ast.stmt]
    ) -> None:
        baseline = dict(self.env)
        self._walk(body)
        after_body = self.env
        self.env = dict(baseline)
        self._walk(orelse)
        after_orelse = self.env
        merged: Dict[str, UExpr] = {}
        for name in set(after_body) | set(after_orelse):
            left = after_body.get(name)
            right = after_orelse.get(name)
            if left is not None and left == right:
                merged[name] = left
            else:
                merged[name] = u_unknown()
        self.env = merged

    def _sweep_missed_effects(self, statement: ast.stmt) -> None:
        """Record effect sites the targeted walk skipped.

        Lambdas, comprehension bodies, and nested function/class
        definitions never contribute unit expressions, but the calls
        and set-iterations inside them still matter for taint and the
        call graph — collect them as effects-only sites.
        """
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and id(node) not in self._recorded:
                self._recorded.add(id(node))
                self._check_scan(node)
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _TRANSPARENT_CALLS
                ):
                    continue
                site = CallSite(
                    ref=self._call_ref(func),
                    line=node.lineno,
                    col=node.col_offset,
                    has_arguments=bool(node.args or node.keywords),
                )
                self.facts.calls.append(site)
                self._check_nondet_call(site)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                for generator in node.generators:
                    self._check_set_iteration(generator.iter)


def _is_generator(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child is not node:
                continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _function_params(
    node: ast.AST, is_method: bool
) -> Tuple[List[str], List[AbstractUnit]]:
    """Parameter names and units (skipping self/cls on methods)."""
    arguments = node.args  # type: ignore[attr-defined]
    args = list(arguments.posonlyargs) + list(arguments.args)
    if is_method and args and args[0].arg in ("self", "cls"):
        args = args[1:]
    names: List[str] = []
    units: List[AbstractUnit] = []
    for arg in args:
        names.append(arg.arg)
        declared = _annotation_unit(arg.annotation)
        unit = declared if declared is not None else classify_name(arg.arg)
        units.append(unit)
    return names, units


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[str]]]:
    for node in tree.body:
        if isinstance(node, _FUNCTION_DEFS):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTION_DEFS):
                    yield item, node.name


def _import_time_statements(tree: ast.Module) -> List[ast.stmt]:
    """What runs at import: the module body and the class bodies,
    without the function and class definitions themselves."""
    body: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            body.extend(
                item
                for item in node.body
                if not isinstance(item, _FUNCTION_DEFS + (ast.ClassDef,))
            )
        elif not isinstance(node, _FUNCTION_DEFS):
            body.append(node)
    return body


def extract_module(
    module: str,
    tree: ast.Module,
    suppressed: SuppressionCheck,
) -> ModuleSummary:
    """Extract the local facts of one parsed module."""
    symbols = build_symbols(module, tree)
    summary = ModuleSummary(module=module, symbols=symbols)

    def extract(facts: FunctionFacts, body: List[ast.stmt]) -> None:
        _FunctionExtractor(facts, symbols, suppressed).run(body)
        summary.functions[facts.qualname] = facts

    for node, class_name in _iter_functions(tree):
        name = node.name  # type: ignore[attr-defined]
        qualname = (
            f"{module}.{class_name}.{name}"
            if class_name is not None
            else f"{module}.{name}"
        )
        params, units = _function_params(node, class_name is not None)
        facts = FunctionFacts(
            qualname=qualname,
            name=name,
            lineno=node.lineno,  # type: ignore[attr-defined]
            class_name=class_name,
            params=params,
            param_units=units,
            return_annotation_unit=_annotation_unit(
                node.returns  # type: ignore[attr-defined]
            ),
            is_generator=_is_generator(node),
        )
        extract(facts, node.body)  # type: ignore[attr-defined]
    extract(
        FunctionFacts(
            qualname=f"{module}.{MODULE_LEVEL}", name=MODULE_LEVEL, lineno=1
        ),
        _import_time_statements(tree),
    )
    return summary
