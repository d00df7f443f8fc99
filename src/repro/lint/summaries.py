"""Per-file fact extraction for the whole-program analysis.

:func:`extract_module_facts` lowers one parsed file into
:class:`ModuleFacts`: import tables, top-level constants, classes, and
per-function :class:`FunctionFacts` holding a tiny JSON-serialisable
IR (assignments, returns, calls).  The IR is deliberately
lossy — just enough structure for the RL101 and RL103 rules.

Value-expression mini-IR (``vexpr``), encoded as nested lists::

    ["str", s]                      string literal
    ["const"]                       any other literal
    ["name", ident]                 function-local name (incl. params)
    ["ref", dotted]                 dotted chain rooted outside locals
    ["attr", base_vexpr, ident]     attribute on a computed base
    ["call", func, [args], [[kw, v], ...], line, col]
    ["other"]                       anything else

Constant expressions (``constexpr``) describe top-level constants such
as RL103's ``EVENT_KINDS``::

    ["str", s] | ["seq", [items]] | ["concat", a, b] | ["ref", dotted]
"""

from __future__ import annotations

import ast
import os
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Any

from repro.lint.framework import LintContext

__all__ = [
    "FunctionFacts",
    "ModuleFacts",
    "dotted_name",
    "extract_module_facts",
]

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionFacts:
    """Extraction result for one function, method, or module body."""

    name: str
    lineno: int
    col: int
    params: list[str] = field(default_factory=list)
    kwonly: list[str] = field(default_factory=list)
    required: int = 0
    is_method: bool = False
    #: ``["assign", name, vexpr, line, col]`` / ``["ret", vexpr, line, col]``
    ops: list[list[Any]] = field(default_factory=list)
    #: Every call expression in the body (``["call", ...]`` vexprs).
    calls: list[list[Any]] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Extraction result for one file."""

    module: str
    path: str
    imports_modules: dict[str, str] = field(default_factory=dict)
    imports_objects: dict[str, str] = field(default_factory=dict)
    top_names: list[str] = field(default_factory=list)
    #: ``name -> [constexpr, lineno]`` for evaluable top-level assigns.
    constants: dict[str, list[Any]] = field(default_factory=dict)
    #: ``class -> {"bases": [dotted], "methods": [names], "lineno": int}``
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: qualname (``f`` / ``Cls.m`` / ``<module>``) -> facts
    functions: dict[str, FunctionFacts] = field(default_factory=dict)

    def resolve_import(self, dotted: str) -> str | None:
        """``dotted`` spelled out through this file's imports.

        ``np.random.rand`` becomes ``numpy.random.rand`` under ``import
        numpy as np``, and ``pc`` becomes ``time.perf_counter`` under
        ``from time import perf_counter as pc``; a name whose head is
        not imported is None.
        """
        head, _, rest = dotted.partition(".")
        target = (self.imports_objects.get(head)
                  or self.imports_modules.get(head))
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


def _constexpr(node: ast.AST) -> list[Any] | None:
    """Lower a constant-ish expression to a ``constexpr``, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ["str", node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items = [_constexpr(element) for element in node.elts]
        if all(item is not None for item in items):
            return ["seq", items]
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("frozenset", "tuple", "list", "set", "sorted"):
            if len(node.args) == 1 and not node.keywords:
                return _constexpr(node.args[0])
        return None
    if isinstance(node, ast.Name):
        return ["ref", node.id]
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        return ["ref", dotted] if dotted else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _constexpr(node.left)
        right = _constexpr(node.right)
        if left is not None and right is not None:
            return ["concat", left, right]
    return None


class _BodyExtractor(ast.NodeVisitor):
    """Walks one function (or module) body collecting facts.

    Nested function, class and lambda bodies are folded into the
    enclosing function: their calls happen (at most) when the parent
    runs, and treating them inline keeps the summary
    lattice one level deep.  The module body takes in the class
    bodies, decorators and defaults of top-level definitions too, so
    every call in a file lands in some function's facts.
    """

    def __init__(self, facts: FunctionFacts, local_names: set[str],
                 separate: Collection[ast.AST] = ()) -> None:
        self.facts = facts
        self.locals = local_names
        #: ``def`` nodes whose bodies are extracted on their own
        self.separate = separate

    # -- vexpr lowering -----------------------------------------------

    def vexpr(self, node: ast.AST) -> list[Any]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return ["str", node.value]
            return ["const"]
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return ["name", node.id]
            return ["ref", node.id]
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                root = dotted.split(".", 1)[0]
                if root not in self.locals:
                    return ["ref", dotted]
            return ["attr", self.vexpr(node.value), node.attr]
        if isinstance(node, ast.Call):
            args = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    args.append(["other"])
                else:
                    args.append(self.vexpr(arg))
            kwargs = [[kw.arg, self.vexpr(kw.value)]
                      for kw in node.keywords if kw.arg is not None]
            return ["call", self.vexpr(node.func), args, kwargs,
                    node.lineno, node.col_offset]
        return ["other"]

    # -- statement visitors -------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value = self.vexpr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.facts.ops.append(["assign", target.id, value,
                                       node.lineno, node.col_offset])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        if node.value is not None:
            value = self.vexpr(node.value)
            if isinstance(node.target, ast.Name):
                self.facts.ops.append(["assign", node.target.id, value,
                                       node.lineno, node.col_offset])
            self.visit(node.value)
        self.visit(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.facts.ops.append(["assign", node.target.id, ["other"],
                                   node.lineno, node.col_offset])
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        value = self.vexpr(node.value) if node.value is not None else ["const"]
        self.facts.ops.append(["ret", value, node.lineno, node.col_offset])
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> None:
        # Decorators, defaults and annotations run in this scope when
        # the ``def`` executes; the body is folded in unless it is
        # extracted as a function of its own.
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.visit(node.args)
        self._annotation(node.returns)
        if node not in self.separate:
            for statement in node.body:
                self.visit(statement)

    def visit_arg(self, node: ast.arg) -> None:
        self._annotation(node.annotation)

    def visit_Call(self, node: ast.Call) -> None:
        self.facts.calls.append(self.vexpr(node))
        self.generic_visit(node)

    # -- helpers ------------------------------------------------------

    def _annotation(self, node: ast.AST | None) -> None:
        # An annotation is a type expression, not a value flow, so
        # only the calls in it, which do run, are kept.
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self.facts.calls.append(self.vexpr(sub))


class _LocalNames(ast.NodeVisitor):
    """Collects every name bound inside a function body.

    Names bound by a function-local ``import`` are left out: like
    module-level imports they denote modules and their members, and
    stay resolvable through the module's import tables.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.globals: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)

    def visit_Global(self, node: ast.Global) -> None:
        self.globals.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.globals.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.names.add(node.name)
        self._add_args(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.names.add(node.name)
        self._add_args(node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._add_args(node.args)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.names.add(node.name)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.names.add(node.name)
        self.generic_visit(node)

    def _add_args(self, args: ast.arguments) -> None:
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            self.names.add(arg.arg)
        if args.vararg:
            self.names.add(args.vararg.arg)
        if args.kwarg:
            self.names.add(args.kwarg.arg)


def _function_locals(node: ast.AST) -> set[str]:
    collector = _LocalNames()
    for statement in getattr(node, "body", []):
        collector.visit(statement)
    return collector.names - collector.globals


def _extract_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                      qualname: str, is_method: bool) -> FunctionFacts:
    args = node.args
    positional = [arg.arg for arg in (args.posonlyargs + args.args)]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    required = len(positional) - min(len(args.defaults), len(positional))
    facts = FunctionFacts(
        name=qualname,
        lineno=node.lineno,
        col=node.col_offset,
        params=positional,
        kwonly=[arg.arg for arg in args.kwonlyargs],
        required=required,
        is_method=is_method,
    )
    local_names = _function_locals(node)
    local_names |= set(positional) | set(facts.kwonly)
    if args.vararg:
        local_names.add(args.vararg.arg)
    if args.kwarg:
        local_names.add(args.kwarg.arg)
    if is_method:
        local_names |= {"self", "cls"}
    extractor = _BodyExtractor(facts, local_names)
    for statement in node.body:
        extractor.visit(statement)
    return facts


def _extract_module_body(tree: ast.Module,
                         separate: Collection[ast.AST]) -> FunctionFacts:
    facts = FunctionFacts(name="<module>", lineno=1, col=0)
    extractor = _BodyExtractor(facts, set(), separate)
    for statement in tree.body:
        extractor.visit(statement)
    return facts


def extract_module_facts(context: LintContext,
                         module: str | None = None) -> ModuleFacts:
    """Lower one parsed file into :class:`ModuleFacts`."""
    tree = context.tree
    assert isinstance(tree, ast.Module)
    facts = ModuleFacts(
        module=module if module is not None else context.package,
        path=context.path,
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds
                # ``c`` to ``a.b``
                local = alias.asname or alias.name.split(".", 1)[0]
                facts.imports_modules[local] = (alias.name if alias.asname
                                                else local)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import — resolve against module
                is_package = os.path.basename(
                    context.path) == "__init__.py"
                parts = facts.module.split(".") if facts.module else []
                if not is_package:
                    parts = parts[:-1]
                drop = node.level - 1
                anchor = parts[:len(parts) - drop] if drop else parts
                package = ".".join(anchor)
                base = (f"{package}.{node.module}" if node.module
                        else package) if package else (node.module or "")
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                facts.imports_objects[alias.asname or alias.name] = (
                    f"{base}.{alias.name}")
    # qualname -> the ``def`` that binds it; a redefined name (a
    # property's setter, say) is bound by the last one, and earlier
    # bodies fold into ``<module>`` so their calls are still seen.
    defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.top_names.append(statement.name)
            defs[statement.name] = statement
        elif isinstance(statement, ast.ClassDef):
            facts.top_names.append(statement.name)
            bases = [base for base in
                     (dotted_name(node) for node in statement.bases)
                     if base is not None]
            methods: list[str] = []
            for item in statement.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    defs[f"{statement.name}.{item.name}"] = item
            facts.classes[statement.name] = {
                "bases": bases,
                "methods": methods,
                "lineno": statement.lineno,
            }
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (statement.targets
                       if isinstance(statement, ast.Assign)
                       else [statement.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    facts.top_names.append(target.id)
                    if statement.value is not None:
                        expr = _constexpr(statement.value)
                        if expr is not None:
                            facts.constants[target.id] = [
                                expr, statement.lineno]
    for qualname, node in defs.items():
        facts.functions[qualname] = _extract_function(
            node, qualname, is_method="." in qualname)
    facts.functions["<module>"] = _extract_module_body(
        tree, set(defs.values()))
    return facts
