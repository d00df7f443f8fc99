"""A standalone CMAB environment for selection-only experiments.

Runs a selection policy against a quality model *without* the incentive
game — selections in, observations and regret out.  Used by the
bandit-focused tests and the regret-bound experiments, where the
Stackelberg layer is irrelevant and would only cost time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.core.regret import RegretTracker
from repro.core.state import LearningState
from repro.exceptions import ConfigurationError
from repro.quality.distributions import QualityModel
from repro.quality.sampler import QualitySampler

__all__ = ["BanditRunResult", "CMABEnvironment"]


@dataclass(frozen=True)
class BanditRunResult:
    """Outcome of a selection-only bandit run.

    Attributes
    ----------
    policy_name:
        Display name of the policy that produced the run.
    realized_revenue:
        Total observed quality across all rounds (Definition 8's revenue,
        realised draws).
    expected_revenue:
        Same total under the ground-truth means (pseudo-revenue).
    cumulative_regret:
        Final pseudo-regret versus the omniscient top-``K`` policy.
    regret_history:
        Cumulative regret after each round, shape ``(N,)``.
    selection_counts:
        How many times each seller was selected, shape ``(M,)``.
    final_means:
        The learning state's final quality estimates, shape ``(M,)``.
    """

    policy_name: str
    realized_revenue: float
    expected_revenue: float
    cumulative_regret: float
    regret_history: np.ndarray
    selection_counts: np.ndarray
    final_means: np.ndarray


class CMABEnvironment:
    """Drives a policy against a quality model for ``N`` rounds.

    Parameters
    ----------
    quality_model:
        The observation model (its ``means`` are the ground truth).
    num_pois:
        Observations per selected seller per round (``L``).
    k:
        Sellers selected per round.
    num_rounds:
        Total rounds ``N``.
    seed:
        Master seed; split internally between observation noise and any
        policy randomness so runs are exactly reproducible.
    """

    def __init__(self, quality_model: QualityModel, num_pois: int, k: int,
                 num_rounds: int, seed: int = 0) -> None:
        if not (1 <= k <= quality_model.num_sellers):
            raise ConfigurationError(
                f"k must be in [1, {quality_model.num_sellers}], got {k}"
            )
        if num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {num_rounds}"
            )
        self._model = quality_model
        self._num_pois = int(num_pois)
        self._k = int(k)
        self._num_rounds = int(num_rounds)
        self._seed = int(seed)

    def run(self, policy: SelectionPolicy) -> BanditRunResult:
        """Run one full episode of the policy and collect statistics."""
        # Call-time import: repro.sim imports repro.bandits, so a
        # top-level import of repro.sim.rng would be circular.
        from repro.sim.rng import seed_sequence, seeded_generator

        m = self._model.num_sellers
        seq = seed_sequence(self._seed)
        obs_seed, policy_seed = seq.spawn(2)
        sampler = QualitySampler(
            self._model, self._num_pois, seeded_generator(obs_seed)
        )
        policy_rng = seeded_generator(policy_seed)
        state = LearningState(m)
        tracker = RegretTracker(self._model.means, self._k, self._num_pois)
        policy.reset(m, self._k, self._num_rounds)
        realized = 0.0
        counts = np.zeros(m, dtype=np.int64)
        for t in range(self._num_rounds):
            selected = policy.select(t, state, policy_rng)
            observations = sampler.sample_round(selected, round_index=t)
            state.update(selected, observations.sums, self._num_pois)
            policy.observe(t, selected, observations.sums, self._num_pois)
            tracker.record(selected)
            realized += observations.total
            counts[selected] += 1
        return BanditRunResult(
            policy_name=policy.name,
            realized_revenue=realized,
            expected_revenue=tracker.cumulative_expected_revenue,
            cumulative_regret=tracker.cumulative_regret,
            regret_history=tracker.history,
            selection_counts=counts,
            final_means=state.means.copy(),
        )
