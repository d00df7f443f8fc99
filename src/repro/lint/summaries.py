"""Per-file fact extraction for the whole-program flow engine.

:func:`extract_module_facts` lowers one parsed file into
:class:`ModuleFacts`: import tables, top-level constants, classes, and
per-function :class:`FunctionFacts` holding a tiny JSON-serialisable
IR (assignments, returns, calls, mutations, dict-key traffic).  The
IR is deliberately lossy — just enough structure for the RL101–RL104
rules — and is cached on disk keyed by file content hash
(:class:`FactsCache`), so incremental ``repro lint --flow`` runs skip
re-extraction of unchanged files entirely.

Value-expression mini-IR (``vexpr``), encoded as nested lists so it
round-trips through JSON unchanged::

    ["str", s]                      string literal
    ["const"]                       any other literal
    ["name", ident]                 function-local name (incl. params)
    ["ref", dotted]                 dotted chain rooted outside locals
    ["attr", base_vexpr, ident]     attribute on a computed base
    ["call", func, [args], [[kw, v], ...], line, col]
    ["other"]                       anything else

Constant expressions (``constexpr``) describe key domains for RL104::

    ["str", s] | ["seq", [items]] | ["concat", a, b] | ["ref", dotted]
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.lint.framework import LintContext

__all__ = [
    "FACTS_VERSION",
    "FactsCache",
    "FunctionFacts",
    "ModuleFacts",
    "extract_module_facts",
]

#: Bump whenever the extraction output changes shape — invalidates
#: every cached entry at once.
FACTS_VERSION = 2

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "clear", "reverse", "sort",
    "add", "discard", "update", "setdefault", "pop", "popitem",
    "fill", "resize", "put", "itemset", "setflags", "partial",
})

#: Parameter names treated as declared output buffers by convention.
_CONVENTIONAL_OUT = ("out", "scratch")


def _is_conventional_out(name: str) -> bool:
    return name in _CONVENTIONAL_OUT or name.startswith("out_")


def _dotted_chain(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` a subscript/attribute chain hangs off."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class FunctionFacts:
    """Extraction result for one function, method, or module body."""

    name: str
    lineno: int
    end_lineno: int
    col: int
    params: list[str] = field(default_factory=list)
    kwonly: list[str] = field(default_factory=list)
    required: int = 0
    is_method: bool = False
    out_params: list[str] = field(default_factory=list)
    #: ``["assign", name, vexpr, line, col]`` / ``["ret", vexpr, line, col]``
    ops: list[list[Any]] = field(default_factory=list)
    #: Every call expression in the body (``["call", ...]`` vexprs).
    calls: list[list[Any]] = field(default_factory=list)
    #: ``[kind, root, line, col, root_is_local]``
    mutations: list[list[Any]] = field(default_factory=list)
    global_decls: list[str] = field(default_factory=list)
    dict_writes: list[list[Any]] = field(default_factory=list)
    write_domains: list[Any] = field(default_factory=list)
    writes_open: bool = False
    dict_reads: list[str] = field(default_factory=list)
    reads_required: list[str] = field(default_factory=list)
    read_domains: list[Any] = field(default_factory=list)
    reads_open: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "lineno": self.lineno,
            "end_lineno": self.end_lineno, "col": self.col,
            "params": self.params, "kwonly": self.kwonly,
            "required": self.required, "is_method": self.is_method,
            "out_params": self.out_params,
            "ops": self.ops, "calls": self.calls,
            "mutations": self.mutations,
            "global_decls": self.global_decls,
            "dict_writes": self.dict_writes,
            "write_domains": self.write_domains,
            "writes_open": self.writes_open,
            "dict_reads": self.dict_reads,
            "reads_required": self.reads_required,
            "read_domains": self.read_domains,
            "reads_open": self.reads_open,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> FunctionFacts:
        return cls(**payload)


@dataclass
class ModuleFacts:
    """Extraction result for one file."""

    module: str
    path: str
    content_hash: str
    imports_modules: dict[str, str] = field(default_factory=dict)
    imports_objects: dict[str, str] = field(default_factory=dict)
    top_names: list[str] = field(default_factory=list)
    #: ``name -> [constexpr, lineno]`` for evaluable top-level assigns.
    constants: dict[str, list[Any]] = field(default_factory=dict)
    #: ``class -> {"bases": [dotted], "methods": [names], "lineno": int}``
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: qualname (``f`` / ``Cls.m`` / ``<module>``) -> facts
    functions: dict[str, FunctionFacts] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "module": self.module, "path": self.path,
            "content_hash": self.content_hash,
            "imports_modules": self.imports_modules,
            "imports_objects": self.imports_objects,
            "top_names": self.top_names,
            "constants": self.constants,
            "classes": self.classes,
            "functions": {name: facts.to_dict()
                          for name, facts in self.functions.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> ModuleFacts:
        functions = {name: FunctionFacts.from_dict(facts)
                     for name, facts in payload["functions"].items()}
        return cls(**{**payload, "functions": functions})


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
        dotted = _dotted_chain(node)
        return ["ref", dotted] if dotted else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _constexpr(node.left)
        right = _constexpr(node.right)
        if left is not None and right is not None:
            return ["concat", left, right]
    return None


class _BodyExtractor(ast.NodeVisitor):
    """Walks one function (or module) body collecting facts.

    Nested function and lambda bodies are folded into the enclosing
    function: their calls and mutations happen (at most) when the
    parent runs, and treating them inline keeps the summary lattice
    one level deep.
    """

    def __init__(self, facts: FunctionFacts, local_names: set[str]) -> None:
        self.facts = facts
        self.locals = local_names
        #: comprehension/loop variable -> key-domain constexpr (or None)
        self.var_domains: dict[str, list[Any] | None] = {}

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
            dotted = _dotted_chain(node)
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
                if target.id in self.facts.global_decls:
                    self._mutation("global", target.id, target, local=False)
                self.facts.ops.append(["assign", target.id, value,
                                       node.lineno, node.col_offset])
            else:
                self._store_target(target)
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.DictComp)):
            domain = self._comp_domain(node.value)
            self.var_domains[node.targets[0].id] = domain
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # The annotation itself is a type expression, not a value
        # flow — visiting it would make `x: np.random.Generator` look
        # like an RNG reference, so only the assigned value is walked.
        if node.value is not None:
            value = self.vexpr(node.value)
            if isinstance(node.target, ast.Name):
                self.facts.ops.append(["assign", node.target.id, value,
                                       node.lineno, node.col_offset])
            else:
                self._store_target(node.target)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            if target.id in self.facts.global_decls:
                self._mutation("global", target.id, target, local=False)
            self.facts.ops.append(["assign", target.id, ["other"],
                                   node.lineno, node.col_offset])
        else:
            self._store_target(target, kind="augassign")
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        value = self.vexpr(node.value) if node.value is not None else ["const"]
        self.facts.ops.append(["ret", value, node.lineno, node.col_offset])
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            domain = _constexpr(node.iter)
            previous = self.var_domains.get(node.target.id)
            self.var_domains[node.target.id] = domain
            self.generic_visit(node)
            self.var_domains[node.target.id] = previous
            return
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: ast.AST) -> None:
        for statement in getattr(node, "body", []):
            self.visit(statement)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # nested classes are out of scope for flow facts

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            self._dict_access(node, write=False)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if (len(node.ops) == 1
                and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            self._record_key(node.left, write=False, required=False)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if key is None:  # ``**spread``
                domain = None
                if (isinstance(value, ast.Name)
                        and value.id in self.var_domains):
                    domain = self.var_domains[value.id]
                if domain is not None:
                    self.facts.write_domains.append(domain)
                else:
                    self.facts.writes_open = True
            elif (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                self.facts.dict_writes.append(
                    [key.value, key.lineno, key.col_offset])
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        domain = self._comp_domain(node)
        if domain is not None:
            self.facts.write_domains.append(domain)
        else:
            self.facts.writes_open = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        call = self.vexpr(node)
        self.facts.calls.append(call)
        self._call_mutations(node)
        self._call_dict_traffic(node)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.facts.global_decls.extend(node.names)

    # -- helpers ------------------------------------------------------

    def _comp_domain(self, node: ast.DictComp) -> list[Any] | None:
        """Key domain of ``{k: ... for k in DOMAIN}`` if resolvable."""
        if len(node.generators) != 1:
            return None
        generator = node.generators[0]
        if not isinstance(generator.target, ast.Name):
            return None
        if not (isinstance(node.key, ast.Name)
                and node.key.id == generator.target.id):
            return None
        if generator.ifs:
            return None
        return _constexpr(generator.iter)

    def _mutation(self, kind: str, root: str | None, node: ast.AST,
                  local: bool | None = None) -> None:
        if root is None:
            return
        if local is None:
            local = root in self.locals
        self.facts.mutations.append(
            [kind, root, node.lineno, node.col_offset, bool(local)])

    def _store_target(self, target: ast.AST, kind: str | None = None) -> None:
        if isinstance(target, ast.Subscript):
            self._mutation(kind or "subscript", _root_name(target), target)
            self._dict_access(target, write=True)
        elif isinstance(target, ast.Attribute):
            self._mutation(kind or "attribute", _root_name(target), target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if not isinstance(element, ast.Name):
                    self._store_target(element, kind)

    def _dict_access(self, node: ast.Subscript, write: bool) -> None:
        self._record_key(node.slice, write=write, required=not write)

    def _record_key(self, key: ast.AST, write: bool, required: bool) -> None:
        if isinstance(key, ast.Constant):
            if not isinstance(key.value, str):
                return  # numeric indexing is not dict-schema traffic
            if write:
                self.facts.dict_writes.append(
                    [key.value, key.lineno, key.col_offset])
            else:
                self.facts.dict_reads.append(key.value)
                if required:
                    self.facts.reads_required.append(key.value)
            return
        if isinstance(key, ast.Name):
            domain = self.var_domains.get(key.id)
            if domain is not None:
                if write:
                    self.facts.write_domains.append(domain)
                else:
                    self.facts.read_domains.append(domain)
                return
            if key.id in self.var_domains:  # loop var with opaque domain
                if write:
                    self.facts.writes_open = True
                else:
                    self.facts.reads_open = True
                return
            if write:
                self.facts.writes_open = True
            else:
                self.facts.reads_open = True
            return
        if isinstance(key, (ast.Slice, ast.Tuple)):
            return  # array slicing, not key traffic
        if write:
            self.facts.writes_open = True
        else:
            self.facts.reads_open = True

    def _call_mutations(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS):
            self._mutation(f"method:{func.attr}", _root_name(func.value),
                           func)
        for keyword in node.keywords:
            if keyword.arg == "out" and isinstance(keyword.value, ast.Name):
                self._mutation("out=", keyword.value.id, node)

    def _call_dict_traffic(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in ("get", "pop") and node.args:
            key = node.args[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.facts.dict_reads.append(key.value)
                if func.attr == "pop" and len(node.args) == 1:
                    self.facts.reads_required.append(key.value)
            elif isinstance(key, ast.Name):
                domain = self.var_domains.get(key.id)
                if domain is not None:
                    self.facts.read_domains.append(domain)
                else:
                    self.facts.reads_open = True
        elif func.attr in ("keys", "items", "values") and not node.args:
            self.facts.reads_open = True
        elif func.attr == "update":
            if not (node.args and isinstance(node.args[0], ast.Dict)):
                if node.args or node.keywords:
                    self.facts.writes_open = True


class _LocalNames(ast.NodeVisitor):
    """Collects every name bound inside a function body."""

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

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.names.add(node.name)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.names.add(alias.asname or alias.name.split(".", 1)[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.names.add(alias.asname or alias.name)

    def _add_args(self, args: ast.arguments) -> None:
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            self.names.add(arg.arg)
        if args.vararg:
            self.names.add(args.vararg.arg)
        if args.kwarg:
            self.names.add(args.kwarg.arg)


def _function_locals(node: ast.AST) -> tuple[set[str], set[str]]:
    collector = _LocalNames()
    for statement in getattr(node, "body", []):
        collector.visit(statement)
    return collector.names - collector.globals, collector.globals


def _extract_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                      qualname: str, is_method: bool,
                      context: LintContext) -> FunctionFacts:
    args = node.args
    positional = [arg.arg for arg in (args.posonlyargs + args.args)]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    required = len(positional) - min(len(args.defaults), len(positional))
    facts = FunctionFacts(
        name=qualname,
        lineno=node.lineno,
        end_lineno=node.end_lineno or node.lineno,
        col=node.col_offset,
        params=positional,
        kwonly=[arg.arg for arg in args.kwonlyargs],
        required=required,
        is_method=is_method,
    )
    out_params = [name for name in positional + facts.kwonly
                  if _is_conventional_out(name)]
    # A standalone pragma comment directly above the def (or its first
    # decorator) binds too — multi-line signatures leave no room inline.
    pragma_start = min([node.lineno]
                       + [deco.lineno for deco in node.decorator_list]) - 1
    suppressions = context.suppressions
    declared = suppressions.directive_for(pragma_start, node.lineno,
                                          suppressions.mutates)
    if isinstance(declared, tuple):
        out_params.extend(name for name in declared
                          if name not in out_params)
    facts.out_params = out_params
    local_names, global_decls = _function_locals(node)
    facts.global_decls = sorted(global_decls)
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


def _extract_module_body(tree: ast.Module) -> FunctionFacts:
    facts = FunctionFacts(name="<module>", lineno=1, end_lineno=1, col=0)
    top_level = [statement for statement in tree.body
                 if not isinstance(statement, (ast.FunctionDef,
                                               ast.AsyncFunctionDef,
                                               ast.ClassDef))]
    if top_level:
        facts.end_lineno = max(statement.end_lineno or statement.lineno
                               for statement in top_level)
    local_names: set[str] = set()
    extractor = _BodyExtractor(facts, local_names)
    for statement in top_level:
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
        content_hash=content_hash(context.source),
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                facts.imports_modules[alias.asname
                                      or alias.name] = alias.name
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
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.top_names.append(statement.name)
            facts.functions[statement.name] = _extract_function(
                statement, statement.name, is_method=False,
                context=context)
        elif isinstance(statement, ast.ClassDef):
            facts.top_names.append(statement.name)
            bases = [base for base in
                     (_dotted_chain(node) for node in statement.bases)
                     if base is not None]
            methods: list[str] = []
            for item in statement.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    qualname = f"{statement.name}.{item.name}"
                    facts.functions[qualname] = _extract_function(
                        item, qualname, is_method=True,
                        context=context)
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
    facts.functions["<module>"] = _extract_module_body(tree)
    return facts


def content_hash(source: str) -> str:
    """Cache key for one file's content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class FactsCache:
    """Content-addressed disk cache of :class:`ModuleFacts`.

    One JSON file maps content hashes to serialised facts; entries for
    files no longer in the run are pruned on save so the cache cannot
    grow without bound.
    """

    def __init__(self, path: str | None) -> None:
        self.path = path
        self._entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if path is not None and os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError, ValueError):
                payload = {}
            if (isinstance(payload, dict)
                    and payload.get("version") == FACTS_VERSION
                    and isinstance(payload.get("entries"), dict)):
                self._entries = payload["entries"]

    def get(self, digest: str) -> ModuleFacts | None:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        try:
            return ModuleFacts.from_dict(entry)
        except (KeyError, TypeError):
            self.misses += 1
            self.hits -= 1
            return None

    def put(self, facts: ModuleFacts) -> None:
        self._entries[facts.content_hash] = facts.to_dict()

    def save(self, keep: set[str] | None = None) -> None:
        """Persist the cache, pruning to the ``keep`` hash set."""
        if self.path is None:
            return
        entries = self._entries
        if keep is not None:
            entries = {digest: entry for digest, entry in entries.items()
                       if digest in keep}
        payload = {"version": FACTS_VERSION, "entries": entries}
        try:
            with open(self.path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
        except OSError:
            return  # a read-only checkout must not fail the lint run
