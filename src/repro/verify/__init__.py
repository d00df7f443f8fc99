"""Equilibrium verification subsystem.

The paper's headline claims are analytic — a unique Stackelberg
Equilibrium ``<p^J*, p*, tau*>`` from backward induction (Theorems
14-16, 20) and the Theorem-19 regret bound — and this package keeps the
implementation continuously honest about them.  Every check reports
one record, :class:`~repro.verify.compare.Check` (name, verdict,
detail, worst error):

* :mod:`repro.verify.compare` — the :class:`Check` record and the
  comparison utilities: NaN/inf-correct scalar closeness, recursive
  payload diffing, and the first diverging
  :data:`~repro.sim.results.SERIES_FIELDS` array of two runs.
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
* :mod:`repro.verify.golden` — the golden store pinning three
  canonical engine runs and one churning runtime run to checked-in
  JSON, with an update tool (``repro verify --update-goldens``).
* :mod:`repro.verify.runtime` — the batch-equivalence differential
  oracle (a static-population :class:`~repro.runtime.MarketRuntime`
  must be bit-identical to the batch engine) and the churn golden.
* :mod:`repro.verify.kernels` — the learning state, UCB indices,
  top-K, selection and estimation error against naive references, bit
  for bit, and a mutation canary proving that oracle catches a 1%
  kernel defect.
* :mod:`repro.verify.runner` — the ``repro verify`` entry point tying
  the five sections into one report with a CI-friendly exit code.
"""

from repro.verify.compare import (
    Check,
    Mismatch,
    ToleranceSpec,
    diff_values,
    values_close,
)
from repro.verify.golden import (
    GOLDEN_CASES,
    RUNTIME_GOLDEN_CASE,
    GoldenCase,
    RuntimeGoldenCase,
    golden_directory,
    golden_path,
    update_goldens,
    verify_goldens,
)
from repro.verify.invariants import InvariantMonitor, InvariantViolation
from repro.verify.kernels import check_kernels
from repro.verify.oracles import (
    brute_force_top_k,
    check_full_solve_oracle,
    check_recovery_equivalence,
    check_selection_oracle,
    check_stage1_oracle,
    check_stage2_oracle,
    check_stage3_oracle,
    run_oracle_suite,
)
from repro.verify.runner import VerificationReport, run_verification
from repro.verify.runtime import check_batch_equivalence, check_runtime

__all__ = [
    "Check",
    "Mismatch",
    "ToleranceSpec",
    "diff_values",
    "values_close",
    "GOLDEN_CASES",
    "RUNTIME_GOLDEN_CASE",
    "GoldenCase",
    "RuntimeGoldenCase",
    "golden_directory",
    "golden_path",
    "update_goldens",
    "verify_goldens",
    "InvariantMonitor",
    "InvariantViolation",
    "check_kernels",
    "brute_force_top_k",
    "check_full_solve_oracle",
    "check_recovery_equivalence",
    "check_selection_oracle",
    "check_stage1_oracle",
    "check_stage2_oracle",
    "check_stage3_oracle",
    "run_oracle_suite",
    "VerificationReport",
    "run_verification",
    "check_batch_equivalence",
    "check_runtime",
]
