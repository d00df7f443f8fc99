"""The single-file rules RL002 and RL004–RL006.

Each rule encodes one invariant the runtime tests cannot enforce ahead
of time; DESIGN.md §11 catalogues the bug class behind every id.  All
rules are pure AST checks over one file (RL002 resolves names through
the file's import tables in :class:`~repro.lint.summaries.ModuleFacts`)
— no file is ever imported or executed — so the linter is safe to run
on arbitrary (even deliberately broken) fixture code.  The
whole-program rules live in :mod:`repro.lint.rules_flow`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.flow import FlowAnalysis
from repro.lint.framework import (
    FileRule,
    Finding,
    LintContext,
    LintRule,
    register_rule,
)
from repro.lint.summaries import dotted_name

__all__ = [
    "WallClockRule",
    "FloatEqualityRule",
    "SwallowedExceptionRule",
    "TaskBoundaryPicklabilityRule",
]


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class WallClockRule(LintRule):
    """RL002 — no wall-clock reads in the deterministic hot paths.

    ``repro.sim`` / ``repro.game`` / ``repro.bandits`` / ``repro.core``
    / ``repro.runtime`` must behave identically run-to-run; a clock
    read that leaks into
    control flow (adaptive iteration counts, time-based seeds, ...)
    destroys that silently.  Duration telemetry goes through the
    auditable :mod:`repro.obs.timing` shim instead.
    """

    rule_id = "RL002"
    title = "wall-clock read in a deterministic hot path"
    rationale = (
        "clock reads leaking into control flow make hot-path behaviour "
        "timing-dependent and kill bit-identical replay"
    )

    _SCOPED_PACKAGES = ("repro.sim", "repro.game", "repro.bandits",
                        "repro.core", "repro.runtime")
    #: Whitelisted timer-shim home: the obs package owns all timing.
    _WHITELIST = ("repro.obs",)
    _CLOCK_CALLS = frozenset({
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns", "time.localtime",
        "time.gmtime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        for facts in analysis.index.modules.values():
            context = analysis.by_path[facts.path]
            if not context.in_package(*self._SCOPED_PACKAGES):
                continue
            if context.in_package(*self._WHITELIST):  # pragma: no cover
                continue
            for node in ast.walk(context.tree):
                # Flag the wall-clock imports themselves: `from time
                # import perf_counter` in a hot path invites unshimmed
                # timing.
                if isinstance(node, ast.ImportFrom) and node.module == "time":
                    names = ", ".join(alias.name for alias in node.names)
                    yield self.finding_at(
                        analysis, facts.path, node.lineno, node.col_offset,
                        f"'from time import {names}' in a deterministic "
                        "package; import the timer shim from "
                        "repro.obs.timing instead",
                    )
                elif isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    if dotted is None:
                        continue
                    resolved = facts.resolve_import(dotted)
                    if resolved in self._CLOCK_CALLS:
                        yield self.finding_at(
                            analysis, facts.path, node.lineno,
                            node.col_offset,
                            f"{resolved}(...) reads the wall clock inside "
                            "a deterministic hot path; route timing "
                            "through repro.obs.timing",
                        )


def _is_float_like(node: ast.expr) -> bool:
    """Whether ``node`` is statically known to produce a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        return _is_float_like(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


@register_rule
class FloatEqualityRule(FileRule):
    """RL004 — no exact float equality on model quantities.

    Equilibrium prices, profits, and sensing times come out of
    floating-point solvers; comparing them with ``==``/``!=`` passes
    or fails on representation noise.  ``math.isclose`` or the
    tolerance-aware helpers in :mod:`repro.verify.compare`
    (``values_close`` / ``diff_values``) encode the intent.
    """

    rule_id = "RL004"
    title = "exact float equality on a model quantity"
    rationale = (
        "solver outputs carry representation noise; exact equality "
        "flips on harmless last-ulp differences"
    )

    _SCOPED_PACKAGES = ("repro.game", "repro.verify")

    def check_file(self, context: LintContext) -> Iterable[Finding]:
        if not context.in_package(*self._SCOPED_PACKAGES):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_like(left) or _is_float_like(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        context, node,
                        f"float {symbol} comparison; use math.isclose "
                        "or repro.verify.compare.values_close with an "
                        "explicit tolerance",
                    )
                    break


@register_rule
class SwallowedExceptionRule(FileRule):
    """RL005 — no silently swallowed exceptions in recovery code.

    The fault-injection, parallel-execution, and persistence layers
    exist to surface and survive failures; a bare ``except:`` or an
    ``except Exception: pass`` there converts a real defect (corrupt
    checkpoint, dead worker) into silent data loss.
    """

    rule_id = "RL005"
    title = "swallowed exception in recovery-critical code"
    rationale = (
        "recovery layers that swallow exceptions turn crashes into "
        "silent data corruption"
    )

    _SCOPED_PACKAGES = ("repro.faults", "repro.parallel",
                        "repro.sim.persistence", "repro.runtime")
    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_trivial_body(self, body: list[ast.stmt]) -> bool:
        """Whether the handler does nothing observable."""
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Continue):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring / ellipsis
            return False
        return True

    def check_file(self, context: LintContext) -> Iterable[Finding]:
        if not context.in_package(*self._SCOPED_PACKAGES):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    context, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt "
                    "too; name the exceptions this handler can recover "
                    "from",
                )
                continue
            caught = dotted_name(node.type)
            if caught in self._BROAD and self._is_trivial_body(node.body):
                yield self.finding(
                    context, node,
                    f"'except {caught}: pass' swallows every failure; "
                    "log, re-raise, or narrow the exception type",
                )


@register_rule
class TaskBoundaryPicklabilityRule(FileRule):
    """RL006 — only picklable callables cross the task boundary.

    :class:`~repro.parallel.ParallelExecutor` ships runners and
    :class:`~repro.parallel.TaskSpec` payloads to worker processes via
    ``multiprocessing.Queue``; lambdas and nested functions do not
    pickle, so they crash the pool at submit time — or worse, only on
    the crash-recovery path.  Runners must be module-level callables.
    """

    rule_id = "RL006"
    title = "unpicklable callable crosses the ParallelExecutor boundary"
    rationale = (
        "lambdas/closures do not pickle; they break worker dispatch "
        "exactly on the paths the pool exists to protect"
    )

    _BOUNDARY_CALLS = frozenset({"ParallelExecutor", "TaskSpec"})

    def _nested_functions(self, tree: ast.AST) -> set[str]:
        """Names of functions defined inside another function."""
        nested: set[str] = set()

        def walk(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                is_function = isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                if is_function and inside_function:
                    nested.add(child.name)
                walk(child, inside_function or is_function)

        walk(tree, False)
        return nested

    def check_file(self, context: LintContext) -> Iterable[Finding]:
        nested = self._nested_functions(context.tree)
        for call in _calls(context.tree):
            callee = dotted_name(call.func)
            if callee is None:
                continue
            basename = callee.rsplit(".", 1)[-1]
            if basename not in self._BOUNDARY_CALLS:
                continue
            arguments = list(call.args) + [kw.value for kw in call.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield self.finding(
                        context, argument,
                        f"lambda passed to {basename}(...) cannot "
                        "pickle across the worker boundary; use a "
                        "module-level function",
                    )
                elif (isinstance(argument, ast.Name)
                      and argument.id in nested):
                    yield self.finding(
                        context, argument,
                        f"nested function {argument.id!r} passed to "
                        f"{basename}(...) cannot pickle across the "
                        "worker boundary; hoist it to module level",
                    )
