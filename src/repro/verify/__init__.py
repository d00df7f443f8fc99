"""Equilibrium verification subsystem.

The paper's headline claims are analytic — a unique Stackelberg
Equilibrium ``<p^J*, p*, tau*>`` from backward induction (Theorems
14-16, 20) and the Theorem-19 regret bound — and this package keeps the
implementation continuously honest about them:

* :mod:`repro.verify.compare` — tolerance-aware comparison utilities
  (NaN/inf-correct scalar closeness, recursive payload diffing).
* :mod:`repro.verify.invariants` — per-round invariant checkers over
  engine state (stage first-order conditions, Stage-3 stationarity,
  individual rationality, UCB-index monotonicity, observation-count
  conservation), runnable in the engine's ``strict`` mode and emitted
  as ``invariant_violation`` trace events.
* :mod:`repro.verify.oracles` — differential oracles cross-checking the
  closed-form solvers (Theorems 14-16) against the independent
  numerical ``solve_stage{1,2,3}_numeric`` paths, ``top_k_indices``
  against a brute-force top-K reference, and the recovery-equivalence
  oracle of the chaos harness (a fault-battered sweep must end
  bit-identical to its fault-free golden).
* :mod:`repro.verify.golden` — a golden-trace regression store pinning
  canonical seeded runs to checked-in JSON goldens, with an update tool
  (``repro verify --update-goldens``).
* :mod:`repro.verify.runtime` — the event-runtime checks: the
  batch-equivalence differential oracle (a static-population
  :class:`~repro.runtime.MarketRuntime` must be bit-identical to the
  batch engine) and the churn golden trace pinning a canonical
  arrivals/departures run by its trade-ledger digest.
* :mod:`repro.verify.kernels` — each hot-path kernel against a naive
  reference: bit-identity for the learning state, UCB indices, top-K,
  and estimation error; ``<= 1e-9`` for the batched Stage 1-3 solves;
  and a mutation canary proving the oracle catches a 1% kernel defect.
* :mod:`repro.verify.runner` — the ``repro verify`` entry point tying
  the five legs into one report with a CI-friendly exit code.
"""

from repro.verify.compare import (
    Mismatch,
    ToleranceSpec,
    diff_values,
    values_close,
)
from repro.verify.golden import (
    GOLDEN_CASES,
    GoldenCase,
    compute_golden,
    golden_directory,
    golden_path,
    update_goldens,
    verify_goldens,
)
from repro.verify.invariants import InvariantMonitor, InvariantViolation
from repro.verify.kernels import (
    KernelsCheck,
    KernelsCheckResult,
    check_kernels,
)
from repro.verify.oracles import (
    OracleCheck,
    OracleSuiteReport,
    brute_force_top_k,
    check_full_solve_oracle,
    check_recovery_equivalence,
    check_selection_oracle,
    check_stage1_oracle,
    check_stage2_oracle,
    check_stage3_oracle,
    run_oracle_suite,
)
from repro.verify.runner import (
    StrictCheckResult,
    VerificationReport,
    run_verification,
)
from repro.verify.runtime import (
    RUNTIME_GOLDEN_CASE,
    RuntimeCheckResult,
    RuntimeGoldenCase,
    check_batch_equivalence,
    check_runtime,
    compute_runtime_golden,
    update_runtime_golden,
    verify_runtime_golden,
)

__all__ = [
    "Mismatch",
    "ToleranceSpec",
    "diff_values",
    "values_close",
    "GOLDEN_CASES",
    "GoldenCase",
    "compute_golden",
    "golden_directory",
    "golden_path",
    "update_goldens",
    "verify_goldens",
    "InvariantMonitor",
    "InvariantViolation",
    "KernelsCheck",
    "KernelsCheckResult",
    "check_kernels",
    "OracleCheck",
    "OracleSuiteReport",
    "brute_force_top_k",
    "check_full_solve_oracle",
    "check_recovery_equivalence",
    "check_selection_oracle",
    "check_stage1_oracle",
    "check_stage2_oracle",
    "check_stage3_oracle",
    "run_oracle_suite",
    "StrictCheckResult",
    "VerificationReport",
    "run_verification",
    "RuntimeGoldenCase",
    "RUNTIME_GOLDEN_CASE",
    "RuntimeCheckResult",
    "check_batch_equivalence",
    "check_runtime",
    "compute_runtime_golden",
    "update_runtime_golden",
    "verify_runtime_golden",
]
