"""The rules RL002, RL004–RL006, RL101 and RL103.

Each rule encodes one invariant the runtime tests cannot enforce ahead
of time; DESIGN.md §11 catalogues the bug class behind every id.  All
rules are pure AST checks over one file at a time (RL002 and RL101
resolve names through the file's import table) — no file is ever
imported or executed — so the linter is safe to run on arbitrary (even
deliberately broken) fixture code.  RL103 also compares the kinds it
saw across every linted file with ``EVENT_KINDS``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence

from repro.lint.framework import (
    FileRule,
    Finding,
    LintContext,
    LintRule,
    dotted_name,
    register_rule,
)

__all__ = [
    "EventKindRule",
    "FloatEqualityRule",
    "RngBirthRule",
    "SwallowedExceptionRule",
    "TaskBoundaryPicklabilityRule",
    "WallClockRule",
]


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class WallClockRule(FileRule):
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

    def check_file(self, context: LintContext) -> Iterable[Finding]:
        if not context.in_package(*self._SCOPED_PACKAGES):
            return
        if context.in_package(*self._WHITELIST):  # pragma: no cover
            return
        for node in ast.walk(context.tree):
            # Flag the wall-clock imports themselves: `from time import
            # perf_counter` in a hot path invites unshimmed timing.
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                names = ", ".join(alias.name for alias in node.names)
                yield self.finding(
                    context, node,
                    f"'from time import {names}' in a deterministic "
                    "package; import the timer shim from "
                    "repro.obs.timing instead",
                )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                resolved = context.resolve_import(dotted)
                if resolved in self._CLOCK_CALLS:
                    yield self.finding(
                        context, node,
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

#: The module whose named top-level functions alone may *birth* RNG
#: streams (and are therefore exempt from RL101 inside their bodies).
_RNG_MODULE = "repro.sim.rng"
_SANCTIONED_RNG_FUNCTIONS = frozenset({"seeded_generator", "seed_sequence"})


def _rng_call_message(resolved: str | None) -> str | None:
    """The finding for a call that resolves to ``numpy.random.*`` /
    ``random.*`` through an import, else None."""
    if resolved is None:
        return None
    if resolved.startswith("numpy.random."):
        attr = resolved.removeprefix("numpy.random.")
        return (f"np.random.{attr}(...) constructs or draws from an "
                "RNG stream outside repro.sim.rng; use "
                "repro.sim.rng.seeded_generator / seed_sequence / "
                "RngFactory instead")
    if resolved.startswith("random."):
        return (f"stdlib {resolved}(...) is unseeded global-state "
                "randomness; derive a generator from repro.sim.rng "
                "instead")
    return None


class _RngScan(ast.NodeVisitor):
    """Walks one file collecting RL101's ``(node, message)`` hits.

    Every expression is visited — decorators, defaults, class bodies
    and annotations run too — except the bodies of the ``exempt``
    function definitions.  A name inside an annotation is a type, not a
    value, so only the calls there are checked.
    """

    def __init__(self, context: LintContext,
                 exempt: Sequence[ast.AST]) -> None:
        self.context = context
        self.exempt = exempt
        self.in_annotation = False
        self.hits: list[tuple[ast.AST, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                          ) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.visit(node.args)
        self._annotation(node.returns)
        if node not in self.exempt:
            for statement in node.body:
                self.visit(statement)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_arg(self, node: ast.arg) -> None:
        self._annotation(node.annotation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        if node.value is not None:
            self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            self.visit(node.func)
        else:
            message = _rng_call_message(self.context.resolve_import(dotted))
            if message is not None:
                self.hits.append((node, message))
        for argument in node.args:
            self.visit(argument)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Name(self, node: ast.Name) -> None:
        self._reference(node, node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = dotted_name(node)
        if dotted is None:
            self.generic_visit(node)
        else:
            self._reference(node, dotted)

    def _annotation(self, node: ast.AST | None) -> None:
        if node is None:
            return
        outer, self.in_annotation = self.in_annotation, True
        self.visit(node)
        self.in_annotation = outer

    def _reference(self, node: ast.Name | ast.Attribute, dotted: str) -> None:
        if self.in_annotation or not isinstance(node.ctx, ast.Load):
            return
        resolved = self.context.resolve_import(dotted)
        if resolved in RAW_RNG_CONSTRUCTORS:
            self.hits.append((node, (
                f"raw constructor {resolved} referenced outside a call "
                "(an alias, argument, default or return value); a stream "
                "born from it escapes repro.sim.rng — use "
                "seeded_generator / seed_sequence instead")))


@register_rule
class RngBirthRule(FileRule):
    """RL101 — RNG streams must be born in ``repro.sim.rng``.

    Outside ``seeded_generator`` / ``seed_sequence``, every call into
    ``numpy.random`` or stdlib ``random`` (a constructor or a
    global-state draw) is flagged, and so is every other reference to a
    raw constructor: an alias, an argument, a default or a return value
    could be called later, out of sight.  Annotations and import
    statements are exempt.
    """

    rule_id = "RL101"
    title = "RNG stream born outside repro.sim.rng"
    rationale = (
        "a generator constructed from a raw numpy/stdlib constructor — "
        "even through an alias or a helper — or a draw from global RNG "
        "state escapes the seed-universe discipline that makes runs "
        "replayable"
    )

    def check_file(self, context: LintContext) -> Iterable[Finding]:
        exempt: list[ast.AST] = []
        if context.package == _RNG_MODULE:
            exempt = [node for node in ast.iter_child_nodes(context.tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name in _SANCTIONED_RNG_FUNCTIONS]
        scan = _RngScan(context, exempt)
        scan.visit(context.tree)
        for node, message in scan.hits:
            yield self.finding(context, node, message)


#: Where ``EVENT_KINDS`` and ``TraceEvent`` live.
_EVENTS_MODULE = "repro.obs.events"


def _string_set(node: ast.AST) -> set[str] | None:
    """The strings a literal set expression denotes, or None if opaque."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        items = [_string_set(element) for element in node.elts]
        if any(item is None for item in items):
            return None
        return set().union(*items)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set", "tuple", "list")
            and len(node.args) == 1 and not node.keywords):
        return _string_set(node.args[0])
    if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                  (ast.BitOr, ast.Add)):
        left, right = _string_set(node.left), _string_set(node.right)
        if left is not None and right is not None:
            return left | right
    return None


def _kind_argument(call: ast.Call) -> ast.expr | None:
    """The event-kind argument: the first positional one, else ``kind=``."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return keyword.value
    return None


class _KindScan(ast.NodeVisitor):
    """Walks one file collecting the kinds at ``.emit`` / ``TraceEvent``.

    ``literals`` holds ``(call, kind, is_emit)`` for every literal kind;
    ``forwarded`` holds ``(call, parameter)`` for every ``.emit`` whose
    kind is a parameter of an enclosing function.
    """

    def __init__(self) -> None:
        self.parameters: list[set[str]] = []
        self.literals: list[tuple[ast.Call, str, bool]] = []
        self.forwarded: list[tuple[ast.Call, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                          ) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.visit(node.args)
        if node.returns is not None:
            self.visit(node.returns)
        self._scope(node.args, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.args)
        self._scope(node.args, [node.body])

    def visit_Call(self, node: ast.Call) -> None:
        is_emit = (isinstance(node.func, ast.Attribute)
                   and node.func.attr == "emit")
        callee = dotted_name(node.func) or ""
        if is_emit or callee.rsplit(".", 1)[-1] == "TraceEvent":
            kind = _kind_argument(node)
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                self.literals.append((node, kind.value, is_emit))
            elif (is_emit and isinstance(kind, ast.Name)
                  and any(kind.id in scope for scope in self.parameters)):
                self.forwarded.append((node, kind.id))
        self.generic_visit(node)

    def _scope(self, args: ast.arguments, body: list[ast.AST]) -> None:
        names = {arg.arg for arg in (args.posonlyargs + args.args
                                     + args.kwonlyargs)}
        names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
        self.parameters.append(names)
        for statement in body:
            self.visit(statement)
        self.parameters.pop()


@register_rule
class EventKindRule(LintRule):
    """RL103 — every emitted event kind is a literal in ``EVENT_KINDS``.

    A literal kind at ``.emit(...)`` or ``TraceEvent(...)`` must be a
    member of ``EVENT_KINDS``.  In ``repro`` code outside ``repro.obs``
    an ``emit`` whose kind is a parameter of the enclosing function is
    flagged too: such a wrapper hides the kinds its callers pass.  When
    ``repro.obs.events`` is linted, every declared kind that no linted
    file emits is reported there as dead.
    """

    rule_id = "RL103"
    title = "event kind invalid, forwarded through a wrapper, or dead"
    rationale = (
        "trace consumers switch on EVENT_KINDS; a kind that sneaks in "
        "through a wrapper is invisible to them, and a declared kind "
        "nothing emits is schema rot"
    )

    def check(self, contexts: Sequence[LintContext]) -> Iterable[Finding]:
        schema = next((context for context in contexts
                       if context.package == _EVENTS_MODULE), None)
        anchor: ast.AST | None = None
        kinds: set[str] | None = None
        if schema is not None:
            for node in ast.iter_child_nodes(schema.tree):
                if (isinstance(node, ast.Assign)
                        and any(isinstance(target, ast.Name)
                                and target.id == "EVENT_KINDS"
                                for target in node.targets)):
                    anchor, kinds = node, _string_set(node.value)
        if kinds is None:
            # The schema module is not part of this run (a lone file,
            # say): check against the installed registry instead.
            from repro.obs.events import EVENT_KINDS

            kinds = set(EVENT_KINDS)
        census: set[str] = set()
        for context in contexts:
            if context is schema:
                continue  # the schema module defines, not emits
            scan = _KindScan()
            scan.visit(context.tree)
            for call, kind, is_emit in scan.literals:
                census.add(kind)
                if kind in kinds:
                    continue
                yield self.finding(context, call, (
                    f"emit kind {kind!r} is not a member of EVENT_KINDS; "
                    f"register it in {_EVENTS_MODULE} (with docs) or fix "
                    "the typo") if is_emit else (
                    f"TraceEvent constructed with kind {kind!r}, which is "
                    "not in EVENT_KINDS"))
            if not context.in_package("repro") or context.in_package(
                    "repro.obs"):
                continue
            for call, parameter in scan.forwarded:
                yield self.finding(
                    context, call,
                    f"emit kind is the parameter {parameter!r} of the "
                    "enclosing function; a forwarding wrapper hides its "
                    "kinds from EVENT_KINDS checks — emit a literal kind "
                    "at each call site",
                )
        if schema is None:
            return
        for kind in sorted(kinds - census):
            yield self.finding(
                schema, anchor if anchor is not None else schema.tree,
                f"event kind {kind!r} is declared in EVENT_KINDS but no "
                "linted file emits it (dead kind)",
            )
