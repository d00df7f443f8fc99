"""Whole-program index: symbol resolution, call graph, SCC order.

Built from per-file :class:`~repro.lint.summaries.ModuleFacts`, the
:class:`ProjectIndex` answers the cross-module questions the flow
rules ask: *which function does this dotted call name actually reach*
(chasing import aliases and package re-exports), *what class is this
local variable an instance of* (direct-constructor inference), and
*which functions can reach which* (the call graph, condensed into
Tarjan SCCs so summaries can be computed bottom-up).

Resolution is deliberately syntactic and unsound in the usual linter
ways — no duck typing, no dynamic dispatch, no ``getattr`` — the
precise limits are documented in DESIGN.md §16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.lint.summaries import FunctionFacts, ModuleFacts

__all__ = [
    "CallSite",
    "ProjectIndex",
    "build_call_graph",
    "function_env",
    "strongly_connected_components",
]

#: Recursion guard for alias-chain resolution inside one function.
_MAX_VALUE_DEPTH = 8


@dataclass(frozen=True)
class CallSite:
    """One resolved project-internal call."""

    caller: str  #: fq of the calling function
    target: str  #: fq of the reached function (``mod.fn`` / ``mod.Cls.m``)
    call: Any  #: the ``["call", ...]`` vexpr
    line: int
    col: int
    is_ctor: bool  #: call of a class (reaches ``__init__`` if defined)


class ProjectIndex:
    """All extracted modules, with cross-module name resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        self.by_path: dict[str, str] = {}

    def add(self, facts: ModuleFacts) -> None:
        if not facts.module:
            return  # unpackaged file: single-file rules still cover it
        self.modules[facts.module] = facts
        self.by_path[facts.path] = facts.module

    # -- name resolution ----------------------------------------------

    def module_of(self, fq: str) -> str | None:
        """Longest known module that is a prefix of (or equals) ``fq``."""
        candidate = fq
        while candidate:
            if candidate in self.modules:
                return candidate
            if "." not in candidate:
                return None
            candidate = candidate.rsplit(".", 1)[0]
        return None

    def canonicalize(self, fq: str) -> str:
        """Chase re-exports until ``fq`` names a definition site.

        ``repro.core.top_k_indices`` (a package re-export) becomes
        ``repro.core.selection.top_k_indices``.  Unknown names pass
        through unchanged.
        """
        seen: set[str] = set()
        while fq not in seen:
            seen.add(fq)
            owner = self.module_of(fq)
            if owner is None or owner == fq:
                return fq
            symbol = fq[len(owner) + 1:]
            head, _, rest = symbol.partition(".")
            facts = self.modules[owner]
            suffix = f".{rest}" if rest else ""
            if head in facts.imports_objects:
                fq = facts.imports_objects[head] + suffix
                continue
            if head in facts.imports_modules:
                fq = facts.imports_modules[head] + suffix
                continue
            return fq
        return fq

    def resolve(self, module_name: str, dotted: str) -> str:
        """Canonical fully-qualified name of ``dotted`` seen from a module."""
        facts = self.modules.get(module_name)
        head, _, rest = dotted.partition(".")
        suffix = f".{rest}" if rest else ""
        if facts is not None:
            if head in facts.imports_objects:
                return self.canonicalize(facts.imports_objects[head]
                                         + suffix)
            if head in facts.imports_modules:
                return self.canonicalize(facts.imports_modules[head]
                                         + suffix)
            if (head in facts.top_names or head in facts.functions
                    or head in facts.classes):
                return self.canonicalize(f"{module_name}.{dotted}")
        return self.canonicalize(dotted)

    def split(self, fq: str) -> tuple[ModuleFacts, str] | None:
        """``(owning module facts, symbol path)`` for a project name."""
        owner = self.module_of(fq)
        if owner is None or owner == fq:
            return None
        return self.modules[owner], fq[len(owner) + 1:]

    def lookup_function(self, fq: str) -> tuple[ModuleFacts,
                                                FunctionFacts] | None:
        """Facts for a project function/method named by canonical ``fq``."""
        located = self.split(fq)
        if located is None:
            return None
        facts, symbol = located
        found = facts.functions.get(symbol)
        if found is not None:
            return facts, found
        if "." in symbol:  # possibly an inherited method
            cls_name, method = symbol.split(".", 1)
            if cls_name in facts.classes:
                inherited = self.lookup_method(
                    f"{facts.module}.{cls_name}", method)
                if inherited is not None and inherited != fq:
                    return self.lookup_function(inherited)
        return None

    def lookup_class(self, fq: str) -> tuple[ModuleFacts,
                                             str,
                                             dict[str, Any]] | None:
        located = self.split(fq)
        if located is None:
            return None
        facts, symbol = located
        info = facts.classes.get(symbol)
        if info is None:
            return None
        return facts, symbol, info

    def lookup_method(self, cls_fq: str, method: str,
                      _depth: int = 0) -> str | None:
        """fq of ``method`` on ``cls_fq``, walking project base classes."""
        if _depth > 8:
            return None
        located = self.lookup_class(cls_fq)
        if located is None:
            return None
        facts, cls_name, info = located
        if method in info["methods"]:
            return f"{facts.module}.{cls_name}.{method}"
        for base in info["bases"]:
            base_fq = self.resolve(facts.module, base)
            found = self.lookup_method(base_fq, method, _depth + 1)
            if found is not None:
                return found
        return None

    # -- constant evaluation ------------------------------------------

    def eval_constexpr(self, module_name: str, expr: Any,
                       _guard: frozenset[str] = frozenset(),
                       ) -> set[str] | None:
        """String set denoted by a ``constexpr``, or None if opaque."""
        if not isinstance(expr, list) or not expr:
            return None
        kind = expr[0]
        if kind == "str":
            return {expr[1]}
        if kind == "seq":
            union: set[str] = set()
            for item in expr[1]:
                values = self.eval_constexpr(module_name, item, _guard)
                if values is None:
                    return None
                union |= values
            return union
        if kind == "concat":
            left = self.eval_constexpr(module_name, expr[1], _guard)
            right = self.eval_constexpr(module_name, expr[2], _guard)
            if left is None or right is None:
                return None
            return left | right
        if kind == "ref":
            fq = self.resolve(module_name, expr[1])
            if fq in _guard:
                return None
            located = self.split(fq)
            if located is None:
                return None
            facts, symbol = located
            constant = facts.constants.get(symbol)
            if constant is None:
                return None
            return self.eval_constexpr(facts.module, constant[0],
                                       _guard | {fq})
        return None

    # -- value resolution ---------------------------------------------

    def resolve_value(self, module_name: str, env: dict[str, Any],
                      value: Any, depth: int = 0) -> tuple[str, ...]:
        """Abstract value of a vexpr: what does this expression denote?

        Returns one of ``("class", fq)``, ``("func", fq)``,
        ``("instance", cls_fq)``, ``("ret_of", fq)``,
        ``("external", fq)``, ``("external_call", fq)``,
        ``("str", s)``, or ``("other",)``.
        """
        if depth > _MAX_VALUE_DEPTH or not isinstance(value, list) \
                or not value:
            return ("other",)
        kind = value[0]
        if kind == "str":
            return ("str", value[1])
        if kind == "ref":
            fq = self.resolve(module_name, value[1])
            located = self.split(fq)
            if located is None:
                return ("external", fq)
            facts, symbol = located
            if symbol in facts.classes:
                return ("class", fq)
            if self.lookup_function(fq) is not None:
                return ("func", fq)
            return ("external", fq)
        if kind == "name":
            bound = env.get(value[1])
            if bound is None:
                return ("other",)
            return self.resolve_value(module_name, env, bound, depth + 1)
        if kind == "call":
            func = self.resolve_value(module_name, env, value[1],
                                      depth + 1)
            if func[0] == "class":
                return ("instance", func[1])
            if func[0] == "func":
                return ("ret_of", func[1])
            if func[0] == "external":
                return ("external_call", func[1])
            return ("other",)
        return ("other",)


def function_env(facts: FunctionFacts) -> dict[str, Any]:
    """Last-assignment environment of a function body.

    Maps local names to the vexpr most recently assigned to them
    (flow-insensitive: the textually last assignment wins, which is
    the common straight-line case the rules care about).
    """
    env: dict[str, Any] = {}
    for op in facts.ops:
        if op[0] == "assign":
            env[op[1]] = op[2]
    return env


def resolve_call_target(index: ProjectIndex, module_name: str,
                        caller: FunctionFacts, env: dict[str, Any],
                        call: Any) -> tuple[str, bool] | None:
    """``(target_fq, is_ctor)`` for a call vexpr, if it stays in-project."""
    func = call[1]
    if not isinstance(func, list) or not func:
        return None
    if func[0] in ("ref", "name"):
        resolved = index.resolve_value(module_name, env, func)
        if resolved[0] == "func":
            return resolved[1], False
        if resolved[0] == "class":
            return resolved[1], True
        return None
    if func[0] == "attr":
        base, attr = func[1], func[2]
        base_value = index.resolve_value(module_name, env, base)
        if (isinstance(base, list) and base
                and base[0] == "name" and base[1] in ("self", "cls")
                and caller.is_method and "." in caller.name):
            cls_name = caller.name.rsplit(".", 1)[0]
            found = index.lookup_method(f"{module_name}.{cls_name}", attr)
            if found is not None:
                return found, False
            return None
        if base_value[0] == "instance":
            found = index.lookup_method(base_value[1], attr)
            if found is not None:
                return found, False
        if base_value[0] == "class":
            found = index.lookup_method(base_value[1], attr)
            if found is not None:
                return found, False
    return None


def build_call_graph(index: ProjectIndex) -> dict[str, list[CallSite]]:
    """``caller fq -> resolved in-project call sites`` for every function."""
    graph: dict[str, list[CallSite]] = {}
    for module_name, module_facts in index.modules.items():
        for qualname, facts in module_facts.functions.items():
            caller_fq = f"{module_name}.{qualname}"
            env = function_env(facts)
            sites: list[CallSite] = []
            for call in facts.calls:
                resolved = resolve_call_target(index, module_name, facts,
                                               env, call)
                if resolved is None:
                    continue
                target, is_ctor = resolved
                if is_ctor:
                    init = index.lookup_method(target, "__init__")
                    target_fn = init if init is not None else target
                else:
                    target_fn = target
                sites.append(CallSite(caller=caller_fq, target=target_fn,
                                      call=call, line=call[4],
                                      col=call[5], is_ctor=is_ctor))
            graph[caller_fq] = sites
    return graph


def strongly_connected_components(
        graph: dict[str, list[CallSite]]) -> list[list[str]]:
    """Tarjan SCCs of the call graph, in reverse-topological order.

    Callees appear before callers, so a bottom-up summary pass can
    fold each component once (iterating to a fixpoint only *inside*
    recursive components).  Iterative implementation — src call chains
    are deeper than the default recursion limit is generous for.
    """
    edges: dict[str, list[str]] = {
        node: sorted({site.target for site in sites if site.target in graph})
        for node, sites in graph.items()
    }
    index_counter = 0
    indices: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    for root in sorted(graph):
        if root in indices:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work.pop()
            if edge_index == 0:
                indices[node] = index_counter
                lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = edges[node]
            while edge_index < len(successors):
                successor = successors[edge_index]
                edge_index += 1
                if successor not in indices:
                    work.append((node, edge_index))
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node],
                                         indices[successor])
            if advanced:
                continue
            if lowlinks[node] == indices[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return components
