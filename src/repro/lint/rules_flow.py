"""Whole-program rules RL101–RL105 (the ``--flow`` family).

Where the classic RL001–RL006 rules see one file at a time, these see
the :class:`~repro.lint.flow.FlowAnalysis` — project index, call
graph, and bottom-up function summaries — and can therefore follow a
value across helper calls, modules, and method boundaries.

* **RL101** — interprocedural RNG-stream taint: a generator born from
  a raw constructor (``numpy.random.default_rng`` and friends) outside
  ``repro.sim.rng.seeded_generator`` / ``seed_sequence`` is flagged
  even when the constructor is laundered through a local alias, a
  helper that invokes a constructor passed as a parameter, or a
  factory whose return value is tainted.
* **RL102** — kernel purity: ``repro.kernels`` functions must not
  mutate non-``out`` parameters, write module-level state, or call a
  callee that (transitively) does.
* **RL103** — event-kind exhaustiveness across call chains: literals
  forwarded into ``Tracer.emit`` through wrapper parameters and
  ``TraceEvent(...)`` constructions must be members of ``EVENT_KINDS``;
  declared kinds that no call site can ever produce are dead.
* **RL104** — checkpoint schema symmetry: every key a ``save_X``
  closure writes must be read (or defaulted) by the paired ``load_X``
  closure, and every key ``load_X`` requires must be written.
* **RL105** — twin parity: each public ``repro.kernels`` entry
  point needs a resolvable, signature-compatible scalar twin
  (``# repro-lint: twin=...``) and must be exercised by the
  differential harness (``repro.verify.kernels``).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.exceptions import ConfigurationError
from repro.lint.flow import (FlowAnalysis, RAW_RNG_CONSTRUCTORS,
                             SANCTIONED_RNG_FUNCTIONS, _emit_kind_arg)
from repro.lint.framework import Finding, ORPHAN_PRAGMA_RULE
from repro.lint.project import function_env
from repro.lint.summaries import FunctionFacts

__all__ = [
    "FlowRule",
    "all_flow_rules",
    "flow_rule_meta",
    "select_flow_rules",
]

#: Max functions walked per save/load closure (RL104) — keeps a
#: pathological call web from turning one pair into a whole-program
#: traversal.
_MAX_CLOSURE = 25


class FlowRule:
    """Base class for one whole-program check."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, analysis: FlowAnalysis, path: str, line: int,
                col: int, message: str) -> Finding:
        return Finding(path=path, line=line, column=col,
                       rule=self.rule_id, message=message,
                       snippet=analysis.snippet(path, line))


_FLOW_REGISTRY: dict[str, FlowRule] = {}


def register_flow_rule(cls: type[FlowRule]) -> type[FlowRule]:
    rule = cls()
    if not rule.rule_id:
        raise ConfigurationError(f"rule {cls.__name__} lacks a rule_id")
    if rule.rule_id in _FLOW_REGISTRY:
        raise ConfigurationError(
            f"duplicate flow rule id {rule.rule_id!r}")
    _FLOW_REGISTRY[rule.rule_id] = rule
    return cls


def all_flow_rules() -> tuple[FlowRule, ...]:
    """Every registered flow rule, ordered by id."""
    return tuple(rule for __, rule in sorted(_FLOW_REGISTRY.items()))


def select_flow_rules(select: list[str] | None) -> tuple[FlowRule, ...]:
    """The flow rules matching ``select`` (default: all)."""
    if select is None:
        return all_flow_rules()
    chosen: list[FlowRule] = []
    for rule_id in select:
        rule = _FLOW_REGISTRY.get(rule_id.upper())
        if rule is None:
            known = ", ".join(sorted(_FLOW_REGISTRY))
            raise ConfigurationError(
                f"unknown lint rule {rule_id!r} (known: {known})")
        chosen.append(rule)
    return tuple(chosen)


def flow_rule_meta() -> dict[str, dict[str, str]]:
    """Rule metadata (incl. the orphan-pragma pseudo-rule) for reports."""
    meta = {rule.rule_id: {"title": rule.title,
                           "rationale": rule.rationale}
            for rule in all_flow_rules()}
    meta[ORPHAN_PRAGMA_RULE] = {
        "title": "unused suppression pragma",
        "rationale": ("a disable= pragma that matches no finding hides "
                      "future regressions at that site"),
    }
    return meta


def _literal_string(env: dict[str, Any], value: Any,
                    depth: int = 0) -> str | None:
    """The string a vexpr denotes, following local-constant aliases."""
    if depth > 4 or not isinstance(value, list) or not value:
        return None
    if value[0] == "str":
        return value[1]
    if value[0] == "name":
        bound = env.get(value[1])
        if bound is not None:
            return _literal_string(env, bound, depth + 1)
    return None


@register_flow_rule
class InterproceduralRngTaintRule(FlowRule):
    """RL101 — RNG streams must be born in ``repro.sim.rng``."""

    rule_id = "RL101"
    title = "RNG stream born outside repro.sim.rng (interprocedural)"
    rationale = (
        "a generator constructed from a raw numpy/stdlib constructor — "
        "even through an alias or a helper — escapes the seed-universe "
        "discipline that makes runs replayable"
    )

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        for fq, (module_name, facts) in sorted(analysis.functions.items()):
            if fq in SANCTIONED_RNG_FUNCTIONS:
                continue
            env = function_env(facts)
            path = analysis.path_of_module(module_name)
            for call in facts.calls:
                func = call[1]
                kind = analysis.rng_callable(module_name, env, func)
                if kind == "raw":
                    direct = (
                        isinstance(func, list) and func
                        and func[0] == "ref"
                        and analysis.index.resolve(module_name, func[1])
                        in RAW_RNG_CONSTRUCTORS
                    )
                    if direct and module_name != "repro.sim.rng":
                        continue  # the single-file RL001 already flags it
                    yield self.finding(
                        analysis, path, call[4], call[5],
                        "RNG stream born from a raw constructor; route "
                        "it through repro.sim.rng.seeded_generator / "
                        "seed_sequence",
                    )
                    continue
                if kind.startswith("func:"):
                    callee_fq = kind[5:]
                    located = analysis.functions.get(callee_fq)
                    summary = analysis.summary_of(callee_fq)
                    if located is None or summary is None:
                        continue
                    bound = analysis.bind_args(located[1], call)
                    for param, arg in sorted(bound.items()):
                        if f"pcall:{param}" not in summary.returns:
                            continue
                        if analysis.rng_callable(module_name, env,
                                                 arg) == "raw":
                            yield self.finding(
                                analysis, path, call[4], call[5],
                                f"raw RNG constructor passed to "
                                f"{callee_fq} (parameter {param!r}), "
                                f"which invokes it — the stream is born "
                                f"outside repro.sim.rng",
                            )


@register_flow_rule
class KernelPurityRule(FlowRule):
    """RL102 — ``repro.kernels`` functions must be pure."""

    rule_id = "RL102"
    title = "impure repro.kernels function"
    rationale = (
        "the vectorized kernels are differential-tested against the "
        "scalar engine; hidden argument mutation or module state makes "
        "results depend on call history and breaks bit-reproducibility"
    )

    _SCOPE = "repro.kernels"

    def _in_scope(self, module_name: str) -> bool:
        return (module_name == self._SCOPE
                or module_name.startswith(self._SCOPE + "."))

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        for fq, (module_name, facts) in sorted(analysis.functions.items()):
            if not self._in_scope(module_name):
                continue
            if facts.name == "<module>":
                continue
            path = analysis.path_of_module(module_name)
            params = set(facts.params) | set(facts.kwonly)
            out_params = set(facts.out_params)
            env = function_env(facts)
            for kind, root, line, col, local in facts.mutations:
                if analysis.is_module_function_call(
                        module_name, [kind, root, line, col, local]):
                    continue
                target = root
                if target not in params:
                    alias = env.get(root)
                    if (isinstance(alias, list) and alias
                            and alias[0] == "name"
                            and alias[1] in params):
                        target = alias[1]
                if target in ("self", "cls"):
                    continue
                if target in params:
                    if target not in out_params:
                        yield self.finding(
                            analysis, path, line, col,
                            f"kernel {facts.name!r} mutates parameter "
                            f"{target!r} which is not a declared out= "
                            f"parameter (add '# repro-lint: "
                            f"mutates={target}' if intentional)",
                        )
                    continue
                if local:
                    continue
                if (kind == "global"
                        or analysis.is_module_state(module_name, root)):
                    yield self.finding(
                        analysis, path, line, col,
                        f"kernel {facts.name!r} writes module-level "
                        f"state {root!r}; kernels must be pure "
                        f"functions of their inputs",
                    )
            for site in analysis.call_graph.get(fq, ()):
                summary = analysis.summary_of(site.target)
                located = analysis.functions.get(site.target)
                if summary is None or located is None:
                    continue
                if summary.writes_global:
                    via = (f" (via {summary.impure_via})"
                           if summary.impure_via else "")
                    yield self.finding(
                        analysis, path, site.line, site.col,
                        f"kernel {facts.name!r} calls impure "
                        f"{site.target}{via}, which writes "
                        f"module-level state",
                    )
                bound = analysis.bind_args(located[1], site.call)
                for param, arg in sorted(bound.items()):
                    if param not in summary.mutated_params:
                        continue
                    if (isinstance(arg, list) and arg
                            and arg[0] == "name" and arg[1] in params
                            and arg[1] not in out_params):
                        yield self.finding(
                            analysis, path, site.line, site.col,
                            f"kernel {facts.name!r} passes parameter "
                            f"{arg[1]!r} to {site.target}, which "
                            f"mutates it",
                        )


@register_flow_rule
class EventKindFlowRule(FlowRule):
    """RL103 — event kinds are exhaustive across call chains."""

    rule_id = "RL103"
    title = "event kind invalid or dead across call chains"
    rationale = (
        "trace consumers switch on EVENT_KINDS; a kind that sneaks in "
        "through a wrapper is invisible to them, and a declared kind "
        "nothing emits is schema rot"
    )

    #: Where the kind census and the EVENT_KINDS constant live.
    events_module = "repro.obs.events"

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        index = analysis.index
        kinds = index.eval_constexpr(self.events_module,
                                     ["ref", "EVENT_KINDS"])
        if not kinds:
            return
        census: set[str] = set()
        event_class = f"{self.events_module}.TraceEvent"
        for fq, (module_name, facts) in sorted(analysis.functions.items()):
            if module_name == self.events_module:
                continue  # the schema module itself defines, not emits
            env = function_env(facts)
            path = analysis.path_of_module(module_name)
            for call in facts.calls:
                kind_arg = _emit_kind_arg(call)
                if kind_arg is None:
                    continue
                literal = _literal_string(env, kind_arg)
                if literal is not None:
                    census.add(literal)
                    # membership of *direct* emit literals is RL003's
                    # single-file job; the census is all RL103 needs
            for site in analysis.call_graph.get(fq, ()):
                # the call-graph target is ``Cls.__init__`` when the
                # class defines one, the bare class fq otherwise
                if site.is_ctor and site.target in (
                        event_class, event_class + ".__init__"):
                    literal = self._ctor_kind(env, site.call)
                    if literal is not None:
                        census.add(literal)
                        if literal not in kinds:
                            yield self.finding(
                                analysis, path, site.line, site.col,
                                f"TraceEvent constructed with kind "
                                f"{literal!r}, which is not in "
                                f"EVENT_KINDS",
                            )
                    continue
                summary = analysis.summary_of(site.target)
                located = analysis.functions.get(site.target)
                if summary is None or located is None:
                    continue
                if not summary.emit_params:
                    continue
                bound = analysis.bind_args(located[1], site.call)
                for param in sorted(summary.emit_params):
                    literal = _literal_string(env, bound.get(param))
                    if literal is None:
                        continue
                    census.add(literal)
                    if literal not in kinds:
                        yield self.finding(
                            analysis, path, site.line, site.col,
                            f"event kind {literal!r} reaches "
                            f"Tracer.emit through {site.target} but is "
                            f"not in EVENT_KINDS",
                        )
        events_facts = index.modules.get(self.events_module)
        if events_facts is None:
            return
        constant = events_facts.constants.get("EVENT_KINDS")
        anchor_line = constant[1] if constant else 1
        for kind in sorted(kinds - census):
            yield self.finding(
                analysis, events_facts.path, anchor_line, 0,
                f"event kind {kind!r} is declared in EVENT_KINDS but no "
                f"call chain can emit it (dead kind)",
            )

    @staticmethod
    def _ctor_kind(env: dict[str, Any], call: Any) -> str | None:
        for keyword, value in call[3]:
            if keyword == "kind":
                return _literal_string(env, value)
        if call[2]:
            return _literal_string(env, call[2][0])
        return None


@register_flow_rule
class CheckpointSchemaSymmetryRule(FlowRule):
    """RL104 — ``save_X``/``load_X`` pairs agree on their key schema."""

    rule_id = "RL104"
    title = "checkpoint schema drift between save_*/load_* pair"
    rationale = (
        "a field written but never read back (or required but never "
        "written) is silent schema drift that today only the chaos "
        "harness catches at runtime"
    )

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        for module_name, module_facts in sorted(
                analysis.index.modules.items()):
            for name in sorted(module_facts.functions):
                if not name.startswith("save_") or "." in name:
                    continue
                partner = "load_" + name[len("save_"):]
                if partner not in module_facts.functions:
                    continue
                yield from self._check_pair(
                    analysis, module_name, name, partner)

    def _closure(self, analysis: FlowAnalysis,
                 root_fq: str) -> list[tuple[str, FunctionFacts]]:
        seen = [root_fq]
        queue = [root_fq]
        while queue and len(seen) < _MAX_CLOSURE:
            fq = queue.pop(0)
            for site in analysis.call_graph.get(fq, ()):
                if site.target in seen:
                    continue
                if site.target in analysis.functions:
                    seen.append(site.target)
                    queue.append(site.target)
        return [(fq,) + (analysis.functions[fq][1],)
                for fq in seen if fq in analysis.functions]

    def _check_pair(self, analysis: FlowAnalysis, module_name: str,
                    save_name: str, load_name: str) -> Iterable[Finding]:
        index = analysis.index
        save_fq = f"{module_name}.{save_name}"
        load_fq = f"{module_name}.{load_name}"

        writes: dict[str, tuple[str, int, int]] = {}
        write_domain: set[str] = set()
        writes_open = False
        for fq, facts in self._closure(analysis, save_fq):
            owner = analysis.functions[fq][0]
            owner_path = analysis.path_of_module(owner)
            for key, line, col in facts.dict_writes:
                writes.setdefault(key, (owner_path, line, col))
            for domain in facts.write_domains:
                resolved = index.eval_constexpr(owner, domain)
                if resolved is None:
                    writes_open = True
                else:
                    write_domain |= resolved
            writes_open = writes_open or facts.writes_open

        reads: set[str] = set()
        required: set[str] = set()
        reads_open = False
        for fq, facts in self._closure(analysis, load_fq):
            owner = analysis.functions[fq][0]
            reads.update(facts.dict_reads)
            required.update(facts.reads_required)
            for domain in facts.read_domains:
                resolved = index.eval_constexpr(owner, domain)
                if resolved is None:
                    reads_open = True
                else:
                    reads |= resolved
            reads_open = reads_open or facts.reads_open

        if not reads_open:
            for key in sorted(writes):
                if key in reads:
                    continue
                path, line, col = writes[key]
                yield self.finding(
                    analysis, path, line, col,
                    f"key {key!r} written by {save_name} is never read "
                    f"or defaulted by {load_name} (schema drift)",
                )
        if not writes_open:
            load_facts = analysis.functions[load_fq][1]
            load_path = analysis.path_of_module(module_name)
            for key in sorted(required):
                if key in writes or key in write_domain:
                    continue
                yield self.finding(
                    analysis, load_path, load_facts.lineno,
                    load_facts.col,
                    f"{load_name} requires key {key!r} (no default) but "
                    f"{save_name} never writes it",
                )


@register_flow_rule
class BackendParityRule(FlowRule):
    """RL105 — every public kernel has a scalar twin and harness leg."""

    rule_id = "RL105"
    title = "public kernel entry point without scalar-twin coverage"
    rationale = (
        "the differential harness proves each batched kernel "
        "equivalent to its twin; an entry point without a declared "
        "twin or a harness reference can silently lose that coverage"
    )

    kernels_package = "repro.kernels"
    harness_module = "repro.verify.kernels"

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        index = analysis.index
        package = index.modules.get(self.kernels_package)
        if package is None:
            return
        exported = package.constants.get("__all__")
        if exported is None:
            return
        names = index.eval_constexpr(self.kernels_package, exported[0])
        if not names:
            return
        harness = index.modules.get(self.harness_module)
        harness_refs: set[str] = set()
        if harness is not None:
            for ref in harness.refs:
                harness_refs.add(index.resolve(self.harness_module, ref))
            for target in harness.imports_objects.values():
                harness_refs.add(index.canonicalize(target))
        for name in sorted(names):
            fq = index.resolve(self.kernels_package, name)
            yield from self._check_symbol(analysis, name, fq,
                                          harness_refs, exported[1],
                                          package.path)

    def _check_symbol(self, analysis: FlowAnalysis, name: str, fq: str,
                      harness_refs: set[str], all_line: int,
                      package_path: str) -> Iterable[Finding]:
        index = analysis.index
        function = index.lookup_function(fq)
        klass = index.lookup_class(fq)
        if function is not None:
            module_facts, facts = function
            path, line, col = module_facts.path, facts.lineno, facts.col
            twin = facts.twin
        elif klass is not None:
            module_facts, cls_name, info = klass
            path, line, col = module_facts.path, int(info["lineno"]), 0
            twin = info.get("twin")
        else:
            yield self.finding(
                analysis, package_path, all_line, 0,
                f"__all__ exports {name!r} but it does not resolve to a "
                f"project function or class",
            )
            return
        if not twin:
            yield self.finding(
                analysis, path, line, col,
                f"public kernel entry point {name!r} declares no scalar "
                f"twin (add '# repro-lint: twin=<dotted scalar "
                f"reference>')",
            )
        else:
            twin_fq = index.canonicalize(twin)
            twin_fn = index.lookup_function(twin_fq)
            twin_cls = index.lookup_class(twin_fq)
            if twin_fn is None and twin_cls is None:
                yield self.finding(
                    analysis, path, line, col,
                    f"declared scalar twin {twin!r} of {name!r} does "
                    f"not resolve to a project function or class",
                )
            elif function is not None and twin_fn is not None:
                yield from self._check_signatures(
                    analysis, path, line, col, name, facts, twin_fq,
                    twin_fn[1])
            elif klass is not None and twin_cls is not None:
                yield from self._check_class_twin(
                    analysis, path, line, name, module_facts.module,
                    cls_name, info, twin_fq)
        if fq not in harness_refs:
            yield self.finding(
                analysis, path, line, col,
                f"public kernel entry point {name!r} is not referenced "
                f"by the differential harness "
                f"({self.harness_module}); the kernel-vs-twin "
                f"equivalence leg lost coverage",
            )

    def _check_signatures(self, analysis: FlowAnalysis, path: str,
                          line: int, col: int, name: str,
                          kernel: FunctionFacts, twin_fq: str,
                          twin: FunctionFacts) -> Iterable[Finding]:
        kernel_params = [p for p in kernel.params
                         if p not in kernel.out_params]
        twin_params = [p for p in twin.params + twin.kwonly
                       if p not in twin.out_params]
        shared = [p for p in kernel_params if p in twin_params]
        if not shared:
            yield self.finding(
                analysis, path, line, col,
                f"kernel {name!r} and its twin {twin_fq} share no "
                f"parameter names; the differential harness cannot map "
                f"arguments between backends",
            )
            return
        twin_order = [p for p in twin_params if p in shared]
        if twin_order != shared:
            yield self.finding(
                analysis, path, line, col,
                f"kernel {name!r} and twin {twin_fq} disagree on the "
                f"relative order of shared parameters "
                f"({shared} vs {twin_order})",
            )

    def _check_class_twin(self, analysis: FlowAnalysis, path: str,
                          line: int, name: str, module_name: str,
                          cls_name: str, info: dict[str, Any],
                          twin_fq: str) -> Iterable[Finding]:
        index = analysis.index
        for method in sorted(info["methods"]):
            if method.startswith("_"):
                continue
            if index.lookup_method(twin_fq, method) is None:
                yield self.finding(
                    analysis, path, line, 0,
                    f"kernel class {name!r} exposes method {method!r} "
                    f"with no counterpart on scalar twin {twin_fq}",
                )
