"""Whole-program analysis and the ``repro lint`` driver.

Every lint run is one pass over the whole program:

1. **Parsing and extraction** (per file, once): each file is parsed
   into a :class:`~repro.lint.framework.LintContext` and lowered to
   :class:`~repro.lint.summaries.ModuleFacts`.
2. **Interpretation** (whole program): a
   :class:`~repro.lint.project.ProjectIndex` resolves names across
   modules, the call graph is condensed into SCCs, and per-function
   :class:`FunctionSummary` facts (RNG taint of return values and
   emit-kind forwarding) are computed bottom-up to a fixpoint.
3. **Rules**: every registered rule — single-file and whole-program
   alike — runs over the resulting :class:`FlowAnalysis`; the driver
   applies the suppression pragmas and then audits them (RL007).

:func:`lint_paths` and :func:`lint_source` are the two entry points;
the CLI calls :func:`lint_paths`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError
from repro.lint.framework import (Finding, LintContext, audit_pragmas,
                                  build_context, select_rules)
from repro.lint.project import (CallSite, ProjectIndex, build_call_graph,
                                function_env, strongly_connected_components)
from repro.lint.summaries import FunctionFacts, extract_module_facts

__all__ = [
    "FlowAnalysis",
    "FunctionSummary",
    "lint_paths",
    "lint_source",
]

#: Raw RNG stream constructors (canonical dotted names).
RAW_RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "random.Random",
    "random.SystemRandom",
})

#: The only functions allowed to *birth* RNG streams (and therefore
#: exempt from RL101 inside their own bodies).
SANCTIONED_RNG_FUNCTIONS = frozenset({
    "repro.sim.rng.seeded_generator",
    "repro.sim.rng.seed_sequence",
})

#: Fixpoint iteration cap inside one recursive SCC.
_MAX_SCC_PASSES = 10


@dataclass
class FunctionSummary:
    """Bottom-up facts about one function, joined over all paths."""

    #: Return-value lattice points: ``taint`` (returns a raw-born RNG),
    #: ``clean`` (returns a sanctioned stream), ``other``, plus
    #: parameter-dependent tokens ``pid:<p>`` (returns parameter p) and
    #: ``pcall:<p>`` (returns/invokes a call of parameter p).
    returns: frozenset[str] = frozenset()
    #: Parameters this function forwards into an emit-kind position.
    emit_params: frozenset[str] = frozenset()


class FlowAnalysis:
    """The parsed files plus everything derived from them, once per run."""

    def __init__(self, contexts: Sequence[LintContext]) -> None:
        self.contexts = list(contexts)
        self.by_path = {context.path: context for context in self.contexts}
        self.index = ProjectIndex()
        for context in self.contexts:
            # Files outside ``repro`` (and duplicate claims of a module
            # name) are indexed under a path-derived name so their
            # functions are analysed too.
            module = context.package
            if not module or module in self.index.modules:
                module = f"<{context.path}>"
            self.index.add(extract_module_facts(context, module=module))
        #: fq -> (module name, function facts)
        self.functions: dict[str, tuple[str, FunctionFacts]] = {}
        for module_name, module_facts in self.index.modules.items():
            for qualname, facts in module_facts.functions.items():
                self.functions[f"{module_name}.{qualname}"] = (
                    module_name, facts)
        self.call_graph: dict[str, list[CallSite]] = build_call_graph(
            self.index)
        self.summaries: dict[str, FunctionSummary] = {}
        self._compute_summaries()

    # -- summary fixpoint ---------------------------------------------

    def _compute_summaries(self) -> None:
        self.summaries = {fq: FunctionSummary() for fq in self.functions}
        components = strongly_connected_components(self.call_graph)
        for component in components:
            for _ in range(_MAX_SCC_PASSES):
                changed = False
                for fq in component:
                    if fq not in self.functions:
                        continue
                    updated = self._summarize(fq)
                    if updated != self.summaries[fq]:
                        self.summaries[fq] = updated
                        changed = True
                if not changed:
                    break

    def summary_of(self, fq: str) -> FunctionSummary | None:
        return self.summaries.get(fq)

    def bind_args(self, callee: FunctionFacts,
                  call: Any) -> dict[str, Any]:
        """Map callee parameter names to the caller's argument vexprs."""
        bound: dict[str, Any] = {}
        for position, arg in enumerate(call[2]):
            if position < len(callee.params):
                bound[callee.params[position]] = arg
        for keyword, value in call[3]:
            if keyword in callee.params or keyword in callee.kwonly:
                bound[keyword] = value
        return bound

    def _summarize(self, fq: str) -> FunctionSummary:
        module_name, facts = self.functions[fq]
        env = function_env(facts)
        params = set(facts.params) | set(facts.kwonly)
        returns: set[str] = set()
        for op in facts.ops:
            if op[0] != "ret":
                continue
            value = op[1]
            if value[0] == "name" and value[1] in params:
                returns.add(f"pid:{value[1]}")
                continue
            if (value[0] == "call" and value[1][0] == "name"
                    and value[1][1] in params):
                returns.add(f"pcall:{value[1][1]}")
                continue
            returns.add(self.rng_value(module_name, env, value))
        emit_params: set[str] = set()
        for call in facts.calls:
            kind_value = _emit_kind_arg(call)
            if kind_value is not None:
                if kind_value[0] == "name" and kind_value[1] in params:
                    emit_params.add(kind_value[1])
        for site in self.call_graph.get(fq, ()):
            callee = self.functions.get(site.target)
            callee_summary = self.summaries.get(site.target)
            if callee is None or callee_summary is None:
                continue
            bound = self.bind_args(callee[1], site.call)
            for param_name, arg in bound.items():
                if (arg[0] == "name" and arg[1] in params
                        and param_name in callee_summary.emit_params):
                    emit_params.add(arg[1])
        return FunctionSummary(
            returns=frozenset(returns),
            emit_params=frozenset(emit_params),
        )

    # -- RNG taint lattice --------------------------------------------

    def rng_value(self, module_name: str, env: dict[str, Any],
                  value: Any, depth: int = 0) -> str:
        """Taint of a value: ``taint`` / ``clean`` / ``other``."""
        if depth > 8 or not isinstance(value, list) or not value:
            return "other"
        kind = value[0]
        if kind == "name":
            bound = env.get(value[1])
            if bound is None:
                return "other"
            return self.rng_value(module_name, env, bound, depth + 1)
        if kind == "call":
            callable_kind = self.rng_callable(module_name, env, value[1])
            if callable_kind == "raw":
                return "taint"
            if callable_kind == "clean":
                return "clean"
            if callable_kind.startswith("func:"):
                summary = self.summaries.get(callable_kind[5:])
                if summary is not None:
                    if "taint" in summary.returns:
                        return "taint"
                    if "clean" in summary.returns:
                        return "clean"
            return "other"
        return "other"

    def rng_callable(self, module_name: str, env: dict[str, Any],
                     func: Any, depth: int = 0) -> str:
        """Classify a callee: ``raw`` / ``clean`` / ``func:<fq>`` / ``other``."""
        if depth > 8 or not isinstance(func, list) or not func:
            return "other"
        if func[0] == "name":
            bound = env.get(func[1])
            if bound is None:
                return "other"
            return self.rng_callable(module_name, env, bound, depth + 1)
        if func[0] == "ref":
            fq = self.index.resolve(module_name, func[1])
            if fq in RAW_RNG_CONSTRUCTORS:
                return "raw"
            if fq in SANCTIONED_RNG_FUNCTIONS:
                return "clean"
            if self.index.lookup_function(fq) is not None:
                return f"func:{fq}"
        return "other"

    def imported_name(self, module_name: str, func: Any) -> str | None:
        """Canonical name of a callee spelled through an import.

        ``np.random.rand`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; a dotted name whose head is not an
        import (a local object's ``.random()`` method, say) is None.
        """
        if not isinstance(func, list) or not func or func[0] != "ref":
            return None
        facts = self.index.modules.get(module_name)
        imported = facts.resolve_import(func[1]) if facts else None
        return self.index.canonicalize(imported) if imported else None

    # -- reporting helpers --------------------------------------------

    def snippet(self, path: str, lineno: int) -> str:
        context = self.by_path.get(path)
        return context.snippet_at(lineno) if context is not None else ""

    def path_of_module(self, module_name: str) -> str:
        facts = self.index.modules.get(module_name)
        return facts.path if facts is not None else "<unknown>"


def _emit_kind_arg(call: Any) -> Any | None:
    """The event-kind argument if ``call`` is a ``*.emit(...)`` call."""
    func = call[1]
    if not (isinstance(func, list) and func
            and func[0] == "attr" and func[2] == "emit"):
        if not (isinstance(func, list) and func and func[0] == "ref"
                and func[1].endswith(".emit")):
            return None
    if call[2]:
        return call[2][0]
    for keyword, value in call[3]:
        if keyword == "kind":
            return value
    return None




# -- driver -----------------------------------------------------------


def _iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif not os.path.exists(path):
            raise ConfigurationError(f"cannot lint {path!r}: no such file")
        elif path.endswith(".py"):
            yield path


def _read_context(path: str) -> LintContext:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read {path}: {error}") from error
    return build_context(source, path)


def _lint_contexts(contexts: Sequence[LintContext],
                   select: Iterable[str] | None,
                   strict: bool) -> list[Finding]:
    """Run the selected rules over the program, then audit the pragmas."""
    rules = select_rules(select)
    analysis = FlowAnalysis(contexts)
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(analysis):
            context = analysis.by_path.get(finding.path)
            if context is None or not context.suppressions.is_suppressed(
                    finding.rule, finding.line):
                findings.append(finding)
    findings.extend(audit_pragmas(
        contexts, [rule.rule_id for rule in rules], strict=strict))
    findings.sort()
    return findings


def lint_paths(paths: Iterable[str],
               select: Iterable[str] | None = None,
               strict: bool = False) -> tuple[list[Finding], int]:
    """Lint files and directory trees as one program.

    Returns ``(findings, files_checked)``; the findings include the
    RL007 pragma audit (unused pragmas are errors when ``strict``).

    Raises
    ------
    ConfigurationError
        On unreadable/unparsable files, unknown paths or rules, or when
        the paths hold no Python file at all.
    """
    paths = list(paths)
    files = list(_iter_python_files(paths))
    if not files:
        raise ConfigurationError(
            f"no Python files to lint under {', '.join(map(repr, paths))}")
    contexts = [_read_context(path) for path in files]
    return _lint_contexts(contexts, select, strict), len(files)


def lint_source(source: str, path: str = "<string>",
                select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one source string as a one-file program.

    ``path`` is reported in findings and used to infer the package (a
    ``# repro-lint: package=...`` pragma overrides the inference);
    ``select`` optionally names the rule ids to run (default: all).

    Raises
    ------
    ConfigurationError
        If the source does not parse, or ``select`` names an unknown
        rule.
    """
    return _lint_contexts([build_context(source, path)], select,
                          strict=False)
