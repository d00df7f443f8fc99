"""Whole-program flow analysis driver (``repro lint --flow``).

Orchestrates the two analysis phases:

1. **Extraction** (per file, cached): each file is lowered to
   :class:`~repro.lint.summaries.ModuleFacts` — reusing the session's
   already-parsed AST when available and a content-hash disk cache
   (:class:`~repro.lint.summaries.FactsCache`) across runs, so
   incremental invocations only re-extract files whose bytes changed.
2. **Interpretation** (whole program, cheap): a
   :class:`~repro.lint.project.ProjectIndex` resolves names across
   modules, the call graph is condensed into SCCs, and per-function
   :class:`FunctionSummary` facts (RNG taint of return values,
   emit-kind forwarding, mutated parameters, global writes) are
   computed bottom-up to a fixpoint.  The RL101–RL104 rules then read
   those summaries to report findings.

``--diff <rev>`` mode keeps phase 2's index/summaries whole-program
(they are cheap and cached) but restricts *rule interpretation* to the
impact set: functions overlapping the diff hunks, expanded through the
reverse call graph to every caller whose behaviour the change can
alter, mapped back to files.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError
from repro.lint.framework import (Finding, LintSession, _Suppressions,
                                  build_context)
from repro.lint.project import (CallSite, ProjectIndex, build_call_graph,
                                function_env, strongly_connected_components)
from repro.lint.summaries import (FactsCache, FunctionFacts, ModuleFacts,
                                  content_hash, extract_module_facts)

__all__ = [
    "FlowAnalysis",
    "FlowResult",
    "FunctionSummary",
    "run_flow",
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

#: Reverse-call-graph expansion cap for ``--diff`` impact sets.
_MAX_IMPACT = 10_000


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
    #: Parameters written through (directly or via callees).
    mutated_params: frozenset[str] = frozenset()
    #: Writes module-level state, directly or transitively.
    writes_global: bool = False
    #: First impure callee fq (for diagnostics), if any.
    impure_via: str | None = None


@dataclass
class FlowResult:
    """Outcome of one ``run_flow`` invocation."""

    findings: list[Finding]
    total_files: int
    analyzed_files: list[str]
    cache_hits: int = 0
    cache_misses: int = 0
    changed_functions: list[str] = field(default_factory=list)
    impact_functions: int = 0


class FlowAnalysis:
    """Everything the flow rules need, precomputed once per run."""

    def __init__(self, index: ProjectIndex,
                 sources: dict[str, str]) -> None:
        self.index = index
        self.sources = sources
        #: fq -> (module name, function facts)
        self.functions: dict[str, tuple[str, FunctionFacts]] = {}
        for module_name, module_facts in index.modules.items():
            for qualname, facts in module_facts.functions.items():
                self.functions[f"{module_name}.{qualname}"] = (
                    module_name, facts)
        self.call_graph: dict[str, list[CallSite]] = build_call_graph(index)
        self.reverse_graph: dict[str, set[str]] = {}
        for caller, sites in self.call_graph.items():
            for site in sites:
                self.reverse_graph.setdefault(site.target,
                                              set()).add(caller)
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
        mutated = self._direct_mutations(facts, env, params)
        writes_global = any(
            not mutation[4] and mutation[1] not in params
            and mutation[1] not in ("self", "cls")
            and self.is_module_state(module_name, mutation[1])
            and not self.is_module_function_call(module_name, mutation)
            for mutation in facts.mutations
        )
        impure_via: str | None = None
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
                if arg[0] != "name" or arg[1] not in params:
                    continue
                if param_name in callee_summary.emit_params:
                    emit_params.add(arg[1])
                if param_name in callee_summary.mutated_params:
                    mutated.add(arg[1])
            if callee_summary.writes_global and not writes_global:
                writes_global = True
                impure_via = site.target
        return FunctionSummary(
            returns=frozenset(returns),
            emit_params=frozenset(emit_params),
            mutated_params=frozenset(mutated),
            writes_global=writes_global,
            impure_via=impure_via,
        )

    def _direct_mutations(self, facts: FunctionFacts, env: dict[str, Any],
                          params: set[str]) -> set[str]:
        """Parameter names mutated in this body (aliases included)."""
        mutated: set[str] = set()
        for kind, root, _line, _col, _local in facts.mutations:
            if root in params:
                mutated.add(root)
                continue
            alias = env.get(root)
            if (isinstance(alias, list) and alias
                    and alias[0] == "name" and alias[1] in params):
                mutated.add(alias[1])
        return mutated

    def is_module_function_call(self, module_name: str,
                                mutation: list) -> bool:
        """Whether a ``method:*`` mutation is really ``module.func(...)``.

        ``np.sort(x)`` parses as a ``.sort()`` call on the name ``np``;
        when the receiver is an imported module the call cannot mutate
        it, so it must not count as a mutation.
        """
        kind, root = mutation[0], mutation[1]
        if not isinstance(kind, str) or not kind.startswith("method:"):
            return False
        facts = self.index.modules.get(module_name)
        return facts is not None and root in facts.imports_modules

    def is_module_state(self, module_name: str, root: str) -> bool:
        facts = self.index.modules.get(module_name)
        if facts is None:
            return False
        return root in facts.top_names or root in facts.imports_modules \
            or root in facts.imports_objects

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

    # -- reporting helpers --------------------------------------------

    def snippet(self, path: str, lineno: int) -> str:
        source = self.sources.get(path)
        if source is None:
            return ""
        lines = source.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

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


# -- diff-aware impact computation ------------------------------------


def _git_changed_lines(rev: str, repo_root: str) -> dict[str, set[int]]:
    """New-side changed line numbers per repo-relative path."""
    command = ["git", "diff", "--unified=0", rev, "--", "*.py"]
    try:
        completed = subprocess.run(
            command, cwd=repo_root, capture_output=True, text=True,
            timeout=120, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise ConfigurationError(
            f"cannot run git diff against {rev!r}: {error}"
        ) from error
    if completed.returncode != 0:
        detail = completed.stderr.strip() or "git diff failed"
        raise ConfigurationError(
            f"cannot diff against {rev!r}: {detail}"
        )
    changed: dict[str, set[int]] = {}
    current: str | None = None
    for line in completed.stdout.splitlines():
        if line.startswith("+++ "):
            target = line[4:].strip()
            if target.startswith("b/"):
                target = target[2:]
            current = None if target == "/dev/null" else target
        elif line.startswith("@@") and current is not None:
            try:
                new_span = line.split("+", 1)[1].split(" ", 1)[0]
            except IndexError:
                continue
            if "," in new_span:
                start_text, count_text = new_span.split(",", 1)
                start, count = int(start_text), int(count_text)
            else:
                start, count = int(new_span), 1
            lines = changed.setdefault(current, set())
            if count == 0:  # pure deletion: touch the boundary line
                lines.add(max(start, 1))
            else:
                lines.update(range(start, start + count))
    return changed


def _changed_functions(analysis: FlowAnalysis,
                       changed: dict[str, set[int]],
                       repo_root: str) -> tuple[set[str], set[str]]:
    """``(changed function fqs, files changed outside any function)``."""
    by_relpath: dict[str, ModuleFacts] = {}
    for module_facts in analysis.index.modules.values():
        rel = os.path.relpath(os.path.abspath(module_facts.path),
                              repo_root).replace(os.sep, "/")
        by_relpath[rel] = module_facts
    changed_fqs: set[str] = set()
    whole_files: set[str] = set()
    for rel, lines in changed.items():
        module_facts = by_relpath.get(rel)
        if module_facts is None:
            continue
        claimed: set[int] = set()
        for qualname, facts in module_facts.functions.items():
            if qualname == "<module>":
                continue
            span = set(range(facts.lineno, facts.end_lineno + 1))
            hit = lines & span
            if hit:
                changed_fqs.add(f"{module_facts.module}.{qualname}")
                claimed |= hit
        if lines - claimed:
            # a change outside every function body (imports, constants,
            # class attributes) can affect anything in the file
            whole_files.add(module_facts.path)
            changed_fqs.update(
                f"{module_facts.module}.{qualname}"
                for qualname in module_facts.functions)
    return changed_fqs, whole_files


def _impact_files(analysis: FlowAnalysis, changed_fqs: set[str],
                  whole_files: set[str]) -> tuple[set[str], int]:
    """Expand changed functions through the reverse call graph."""
    impact = set(changed_fqs)
    frontier = list(changed_fqs)
    while frontier and len(impact) < _MAX_IMPACT:
        fq = frontier.pop()
        for caller in analysis.reverse_graph.get(fq, ()):
            if caller not in impact:
                impact.add(caller)
                frontier.append(caller)
    files = set(whole_files)
    for fq in impact:
        located = analysis.functions.get(fq)
        if located is not None:
            files.add(analysis.path_of_module(located[0]))
    return files, len(impact)


# -- driver -----------------------------------------------------------


def run_flow(session: LintSession, *,
             cache_path: str | None = None,
             diff_rev: str | None = None,
             repo_root: str = ".",
             select: list[str] | None = None) -> FlowResult:
    """Run the whole-program rules over the session's files.

    Parameters
    ----------
    session:
        The shared :class:`LintSession` (its parse cache is reused and
        its pragma-usage audit is fed so orphan detection covers flow
        suppressions too).
    cache_path:
        Facts-cache JSON path, or None to disable the disk cache.
    diff_rev:
        Git revision for diff-aware mode; rule findings are restricted
        to the impact set of functions changed since that revision.
    select:
        Flow rule ids to run (default: all RL10x rules).
    """
    from repro.lint.rules_flow import select_flow_rules

    rules = select_flow_rules(select)
    cache = FactsCache(cache_path)
    index = ProjectIndex()
    sources: dict[str, str] = {}
    tables: dict[str, _Suppressions] = {}
    keep_hashes: set[str] = set()
    for path in session.files:
        parsed = session.parsed(path)
        if parsed is not None:
            source = parsed.source
        else:
            try:
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as error:
                raise ConfigurationError(
                    f"cannot read {path}: {error}"
                ) from error
        sources[path] = source
        digest = content_hash(source)
        keep_hashes.add(digest)
        cached = cache.get(digest)
        if cached is not None and cached.path == path:
            facts = cached
            tables[path] = (parsed.suppressions if parsed is not None
                            else _Suppressions(source))
        else:
            context = parsed if parsed is not None \
                else session.context(path)
            facts = extract_module_facts(context)
            cache.put(facts)
            tables[path] = context.suppressions
        index.add(facts)
    cache.save(keep=keep_hashes)

    analysis = FlowAnalysis(index, sources)

    analyzed: set[str] = {facts.path
                          for facts in index.modules.values()}
    changed_fqs: set[str] = set()
    impact_count = 0
    if diff_rev is not None:
        changed = _git_changed_lines(diff_rev, repo_root)
        changed_fqs, whole_files = _changed_functions(analysis, changed,
                                                      repo_root)
        analyzed, impact_count = _impact_files(analysis, changed_fqs,
                                               whole_files)

    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(analysis):
            if finding.path not in analyzed:
                continue
            table = tables.get(finding.path)
            if table is not None and table.is_suppressed(finding.rule,
                                                         finding.line):
                continue
            findings.append(finding)
    findings.sort()
    for path, table in tables.items():
        session.merge_inventory(path, table)
    return FlowResult(
        findings=findings,
        total_files=len(session.files),
        analyzed_files=sorted(analyzed),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        changed_functions=sorted(changed_fqs),
        impact_functions=impact_count,
    )
