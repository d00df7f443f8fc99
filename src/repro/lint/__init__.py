"""Determinism & correctness static analysis for the reproduction.

``repro.lint`` is an AST-based linter.  The driver parses each file
once and runs one registry of rules that encode the repo-specific
invariants keeping CMAB-HS runs bit-identical across checkpoint/resume,
parallel workers, and strict verification mode.  Every rule reads one
file at a time (:mod:`repro.lint.rules`):

* **RL002** — no wall-clock reads in the ``sim``/``game``/``bandits``/
  ``core``/``runtime`` hot paths; use the :mod:`repro.obs.timing` shim.
* **RL004** — no float ``==``/``!=`` on model quantities in
  ``game``/``verify``; use ``math.isclose`` or
  :mod:`repro.verify.compare`.
* **RL005** — no swallowed exceptions (bare ``except:`` /
  ``except Exception: pass``) in ``faults``/``parallel``/persistence.
* **RL006** — nothing unpicklable (lambdas, nested functions) may
  cross the :class:`~repro.parallel.ParallelExecutor` task boundary.
* **RL101** — RNG streams are born only in
  ``repro.sim.rng.seeded_generator`` / ``seed_sequence``; no other
  ``numpy.random`` / stdlib ``random`` call, and no other reference to
  a raw constructor (an alias, argument, default or return value).
* **RL103** — every literal kind at ``.emit`` / ``TraceEvent`` is in
  :data:`repro.obs.events.EVENT_KINDS`; no ``repro`` code outside
  ``repro.obs`` emits a kind it received as a parameter; and every
  declared kind is emitted by some linted file.

The last two are stricter than a dataflow analysis would need to be:
by banning aliases and forwarding wrappers outright, they catch at the
site what would otherwise have to be traced across calls.

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
from repro.lint.driver import lint_paths, lint_source
from repro.lint import rules as _rules  # registers every rule

__all__ = [
    "FileRule",
    "Finding",
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
