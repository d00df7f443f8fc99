"""The paper's primary contribution: the CMAB-HS mechanism.

* :mod:`repro.core.state` / :mod:`repro.core.selection` — quality
  learning with the Eq.-19 UCB indices, and the top-``K`` rule
  (Eqs. 17-19).
* :mod:`repro.core.incentive` — the closed-form three-stage Stackelberg
  equilibrium (Theorems 14-16).
* :mod:`repro.core.mechanism` — Algorithm 1 end to end.
* :mod:`repro.core.regret` — regret accounting and the Theorem-19 bound.
* :mod:`repro.core.equilibrium` — Stackelberg Equilibrium verification
  (Definition 13 / Theorem 20).
"""

from repro.core.diagnostics import (
    CounterReport,
    SellerCounterDiagnostic,
    counter_report,
)
from repro.core.equilibrium import (
    EquilibriumReport,
    assert_equilibrium,
    verify_equilibrium,
)
from repro.core.incentive import (
    ClosedFormStackelbergSolver,
    FormulaVariant,
    StageCoefficients,
    initial_round_prices,
    optimal_collection_price,
    optimal_sensing_times,
    optimal_service_price,
    solve_round_fast,
)
from repro.core.mechanism import CMABHSMechanism, RoundOutcome, TradingResult
from repro.core.regret import (
    GapStatistics,
    RegretTracker,
    gap_statistics,
    lemma18_bound,
    theorem19_bound,
)
from repro.core.selection import top_k_indices
from repro.core.state import LearningState

__all__ = [
    "CMABHSMechanism",
    "TradingResult",
    "RoundOutcome",
    "LearningState",
    "top_k_indices",
    "FormulaVariant",
    "StageCoefficients",
    "ClosedFormStackelbergSolver",
    "optimal_sensing_times",
    "optimal_collection_price",
    "optimal_service_price",
    "initial_round_prices",
    "solve_round_fast",
    "GapStatistics",
    "gap_statistics",
    "lemma18_bound",
    "theorem19_bound",
    "RegretTracker",
    "CounterReport",
    "SellerCounterDiagnostic",
    "counter_report",
    "EquilibriumReport",
    "verify_equilibrium",
    "assert_equilibrium",
]
