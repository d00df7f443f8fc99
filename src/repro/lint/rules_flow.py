"""Whole-program rules RL101 and RL103.

Where the single-file rules in :mod:`repro.lint.rules` see one file at
a time, these read the :class:`~repro.lint.flow.FlowAnalysis` — project
index, call graph, and bottom-up function summaries — and can therefore
follow a value across helper calls, modules, and method boundaries.

* **RL101** — RNG streams are born only in
  ``repro.sim.rng.seeded_generator`` / ``seed_sequence``: every other
  call into ``numpy.random`` or stdlib ``random`` (a constructor or a
  global-state draw) is flagged, and so is a raw constructor laundered
  through a local alias or handed to a helper that invokes it.
* **RL103** — event-kind exhaustiveness across call chains: literals
  passed to ``Tracer.emit`` directly, forwarded through wrapper
  parameters, or given to ``TraceEvent(...)`` must be members of
  ``EVENT_KINDS``; declared kinds that no call site can ever produce
  are dead.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.lint.flow import (FlowAnalysis, SANCTIONED_RNG_FUNCTIONS,
                             _emit_kind_arg)
from repro.lint.framework import Finding, LintRule, register_rule
from repro.lint.project import function_env

__all__ = [
    "EventKindFlowRule",
    "InterproceduralRngTaintRule",
]

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


@register_rule
class InterproceduralRngTaintRule(LintRule):
    """RL101 — RNG streams must be born in ``repro.sim.rng``."""

    rule_id = "RL101"
    title = "RNG stream born outside repro.sim.rng"
    rationale = (
        "a generator constructed from a raw numpy/stdlib constructor — "
        "even through an alias or a helper — or a draw from global RNG "
        "state escapes the seed-universe discipline that makes runs "
        "replayable"
    )

    def check(self, analysis: FlowAnalysis) -> Iterable[Finding]:
        for fq, (module_name, facts) in sorted(analysis.functions.items()):
            if fq in SANCTIONED_RNG_FUNCTIONS:
                continue
            env = function_env(facts)
            path = analysis.path_of_module(module_name)
            for call in facts.calls:
                func = call[1]
                message = self._direct_message(
                    analysis.imported_name(module_name, func))
                kind = analysis.rng_callable(module_name, env, func)
                if message is None and kind == "raw":
                    message = ("RNG stream born from a raw constructor; "
                               "route it through repro.sim.rng."
                               "seeded_generator / seed_sequence")
                if message is not None:
                    yield self.finding_at(analysis, path, call[4],
                                          call[5], message)
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
                            yield self.finding_at(
                                analysis, path, call[4], call[5],
                                f"raw RNG constructor passed to "
                                f"{callee_fq} (parameter {param!r}), "
                                f"which invokes it — the stream is born "
                                f"outside repro.sim.rng",
                            )

    @staticmethod
    def _direct_message(resolved: str | None) -> str | None:
        """The finding for a call spelled as ``numpy.random.*`` /
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


@register_rule
class EventKindFlowRule(LintRule):
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
        if kinds is None:
            # The schema module is not part of this run (a lone file,
            # say): check against the installed registry instead.
            from repro.obs.events import EVENT_KINDS

            kinds = set(EVENT_KINDS)
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
                if literal is None:
                    continue
                census.add(literal)
                if literal not in kinds:
                    yield self.finding_at(
                        analysis, path, call[4], call[5],
                        f"emit kind {literal!r} is not a member of "
                        f"EVENT_KINDS; register it in {self.events_module} "
                        f"(with docs) or fix the typo",
                    )
            for site in analysis.call_graph.get(fq, ()):
                # the call-graph target is ``Cls.__init__`` when the
                # class defines one, the bare class fq otherwise
                if site.is_ctor and site.target in (
                        event_class, event_class + ".__init__"):
                    literal = self._ctor_kind(env, site.call)
                    if literal is not None:
                        census.add(literal)
                        if literal not in kinds:
                            yield self.finding_at(
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
                        yield self.finding_at(
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
            yield self.finding_at(
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
