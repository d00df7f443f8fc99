"""Extensions beyond the paper.

* :mod:`repro.extensions.budget` — budget-constrained trading (stop when
  the consumer's monetary budget is exhausted) and revenue-per-budget
  comparison.
* :mod:`repro.extensions.nonstationary` — drifting-quality experiments
  (the Definition-3 remark taken seriously) with sliding-window UCB.
* :mod:`repro.extensions.welfare_experiment` — price of anarchy of the
  HS mechanism (built on :mod:`repro.game.welfare`).
* :mod:`repro.extensions.replication_experiment` — multi-seed
  replication with mean/std reporting.

Importing this package registers the extension experiments
(``ext-drift``, ``ext-poa``, ``ext-replication``) in the experiment
registry.
"""

from repro.extensions import replication_experiment  # registers
from repro.extensions import welfare_experiment  # registers
from repro.extensions.budget import (
    BudgetedComparison,
    BudgetedRun,
    run_budgeted_comparison,
    truncate_to_budget,
)
from repro.extensions.nonstationary import drift_comparison

__all__ = [
    "BudgetedRun",
    "BudgetedComparison",
    "truncate_to_budget",
    "run_budgeted_comparison",
    "drift_comparison",
]
