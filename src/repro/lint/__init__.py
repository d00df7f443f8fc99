"""Determinism & correctness static analysis for the reproduction.

``repro.lint`` is an AST-based linter in two layers.  The *classic*
single-file rules encode repo-specific invariants that keep CMAB-HS
runs bit-identical across checkpoint/resume, parallel workers, and
strict verification mode:

* **RL001** — RNG construction (``np.random.*``, stdlib ``random``)
  only inside :mod:`repro.sim.rng`.
* **RL002** — no wall-clock reads in the ``sim``/``game``/``bandits``/
  ``core`` hot paths; use the :mod:`repro.obs.timing` shim.
* **RL003** — every literal ``Tracer.emit(kind, ...)`` kind must be a
  member of :data:`repro.obs.events.EVENT_KINDS`.
* **RL004** — no float ``==``/``!=`` on model quantities in
  ``game``/``verify``; use ``math.isclose`` or
  :mod:`repro.verify.compare`.
* **RL005** — no swallowed exceptions (bare ``except:`` /
  ``except Exception: pass``) in ``faults``/``parallel``/persistence.
* **RL006** — nothing unpicklable (lambdas, nested functions) may
  cross the :class:`~repro.parallel.ParallelExecutor` task boundary.

The *flow* layer (``repro lint --flow``) runs whole-program rules
RL101–RL104 over a project-wide call graph with bottom-up function
summaries — interprocedural RNG taint, kernel purity, event-kind
exhaustiveness across call chains, and checkpoint schema symmetry.
See :mod:`repro.lint.flow` and :mod:`repro.lint.rules_flow`.

Findings are suppressed per line with ``# repro-lint: disable=RL001``
(comma-separate several ids, or ``disable=all``); a justification on
the same comment is encouraged — suppressions that stop matching any
finding are themselves reported (RL007).  Run it as ``repro lint
src/`` (optionally ``--flow``) or via :func:`lint_paths`.
"""

from repro.lint.framework import (
    Finding,
    LintContext,
    LintRule,
    LintSession,
    ORPHAN_PRAGMA_RULE,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
)
from repro.lint.baseline import (
    filter_baselined,
    finding_fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.reporters import (
    findings_to_json,
    findings_to_sarif,
    render_findings,
)
from repro.lint.flow import FlowAnalysis, FlowResult, run_flow
from repro.lint import rules as _rules  # registers RL001-RL006
from repro.lint.rules_flow import (  # registers RL101-RL104
    all_flow_rules,
    flow_rule_meta,
)

__all__ = [
    "Finding",
    "FlowAnalysis",
    "FlowResult",
    "LintContext",
    "LintRule",
    "LintSession",
    "ORPHAN_PRAGMA_RULE",
    "all_flow_rules",
    "all_rules",
    "filter_baselined",
    "finding_fingerprint",
    "findings_to_json",
    "findings_to_sarif",
    "flow_rule_meta",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "render_findings",
    "run_flow",
    "write_baseline",
]
