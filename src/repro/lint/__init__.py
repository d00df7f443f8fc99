"""Determinism & correctness static analysis for the reproduction.

``repro.lint`` is an AST-based linter.  Every run is one whole-program
pass: the driver parses each file once, builds a project-wide call
graph with bottom-up function summaries, and runs one registry of rules
that encode the repo-specific invariants keeping CMAB-HS runs
bit-identical across checkpoint/resume, parallel workers, and strict
verification mode.

Single-file rules (:mod:`repro.lint.rules`):

* **RL002** — no wall-clock reads in the ``sim``/``game``/``bandits``/
  ``core``/``runtime`` hot paths; use the :mod:`repro.obs.timing` shim.
* **RL004** — no float ``==``/``!=`` on model quantities in
  ``game``/``verify``; use ``math.isclose`` or
  :mod:`repro.verify.compare`.
* **RL005** — no swallowed exceptions (bare ``except:`` /
  ``except Exception: pass``) in ``faults``/``parallel``/persistence.
* **RL006** — nothing unpicklable (lambdas, nested functions) may
  cross the :class:`~repro.parallel.ParallelExecutor` task boundary.

Whole-program rules (:mod:`repro.lint.rules_flow`):

* **RL101** — RNG streams are born only in
  ``repro.sim.rng.seeded_generator`` / ``seed_sequence``; no other
  ``numpy.random`` / stdlib ``random`` call, direct or laundered.
* **RL103** — every emitted event kind is in
  :data:`repro.obs.events.EVENT_KINDS`, across call chains, and every
  declared kind is emitted somewhere.

Findings are suppressed per line with ``# repro-lint: disable=RL101``
(comma-separate several ids, or ``disable=all``; trailing text is the
justification).  Unknown ids and suppressions that stop matching any
finding are themselves reported (RL007).  Run it as ``repro lint src``
or via :func:`lint_paths`.
"""

from repro.lint.framework import (
    FileRule,
    Finding,
    LintContext,
    LintRule,
    ORPHAN_PRAGMA_RULE,
    all_rules,
    get_rule,
    register_rule,
    rule_meta,
)
from repro.lint.reporters import (
    finding_fingerprint,
    findings_to_json,
    findings_to_sarif,
    render_findings,
)
from repro.lint.flow import FlowAnalysis, lint_paths, lint_source
from repro.lint import rules as _rules  # registers RL002, RL004-RL006
from repro.lint import rules_flow as _rules_flow  # registers RL101, RL103

__all__ = [
    "FileRule",
    "Finding",
    "FlowAnalysis",
    "LintContext",
    "LintRule",
    "ORPHAN_PRAGMA_RULE",
    "all_rules",
    "finding_fingerprint",
    "findings_to_json",
    "findings_to_sarif",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_findings",
    "rule_meta",
]
