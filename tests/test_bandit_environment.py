"""Bandit-level claims on a fixed five-seller instance.

The rounds run through the trading engine (``TradingSimulator``, or
``MarketRuntime`` where the learned estimates are read back), with unit
cost coefficients so only the qualities distinguish the sellers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.policies import (
    OptimalPolicy,
    RandomPolicy,
    UCBPolicy,
)
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.quality.distributions import (
    DeterministicQuality,
    TruncatedGaussianQuality,
)
from repro.runtime import MarketRuntime
from repro.sim import SimulationConfig, TradingSimulator

MEANS = np.array([0.9, 0.7, 0.5, 0.3, 0.1])


def make_config(num_rounds=200, k=2, seed=0):
    return SimulationConfig(num_sellers=MEANS.size, num_selected=k,
                            num_pois=4, num_rounds=num_rounds, seed=seed)


def make_population():
    return SellerPopulation.from_arrays(MEANS, np.ones_like(MEANS),
                                        np.zeros_like(MEANS))


def make_environment(model=None, num_rounds=200, k=2, seed=0):
    if model is None:
        model = TruncatedGaussianQuality(MEANS)
    return TradingSimulator(make_config(num_rounds, k, seed),
                            population=make_population(),
                            quality_model=model)


class TestConstruction:
    def test_rejects_oversized_k(self):
        with pytest.raises(ConfigurationError, match="num_selected"):
            make_environment(k=6)

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ConfigurationError, match="num_rounds"):
            make_environment(num_rounds=0)


class TestRun:
    def test_optimal_policy_zero_regret(self):
        env = make_environment()
        result = env.run(OptimalPolicy(MEANS))
        assert result.final_regret == 0.0
        assert result.policy_name == "optimal"

    def test_random_policy_linear_regret(self):
        env = make_environment(num_rounds=400)
        result = env.run(RandomPolicy())
        history = result.regret
        # Regret per round roughly constant: halves differ by < 40%.
        first = history[199] / 200.0
        second = (history[-1] - history[199]) / 200.0
        assert second > 0.6 * first

    def test_ucb_regret_below_random(self):
        env = make_environment(num_rounds=600)
        ucb = env.run(UCBPolicy())
        rnd = env.run(RandomPolicy())
        assert ucb.final_regret < rnd.final_regret

    def test_ucb_learns_true_means(self):
        runtime = MarketRuntime(make_config(num_rounds=600), UCBPolicy(),
                                population=make_population(),
                                quality_model=TruncatedGaussianQuality(MEANS))
        runtime.run()
        np.testing.assert_allclose(runtime.learning_state.means, MEANS,
                                   atol=0.08)

    def test_selection_counts_sum(self):
        env = make_environment(num_rounds=100, k=2)
        result = env.run(RandomPolicy())
        # 99 rounds of K=2 plus whatever round 0 selected (also 2 here).
        assert result.selection_counts.sum() == 200

    def test_ucb_initial_round_counts_everyone(self):
        env = make_environment(num_rounds=50, k=2)
        result = env.run(UCBPolicy())
        assert np.all(result.selection_counts >= 1)
        assert result.selection_counts.sum() == 5 + 49 * 2

    def test_realized_close_to_expected_for_deterministic(self):
        env = make_environment(model=DeterministicQuality(MEANS),
                               num_rounds=100)
        result = env.run(OptimalPolicy(MEANS))
        assert result.total_realized_revenue == pytest.approx(
            result.total_expected_revenue
        )

    def test_same_seed_reproducible(self):
        a = make_environment(seed=3).run(UCBPolicy())
        b = make_environment(seed=3).run(UCBPolicy())
        np.testing.assert_array_equal(a.realized_revenue,
                                      b.realized_revenue)
        np.testing.assert_array_equal(a.selection_counts,
                                      b.selection_counts)

    def test_different_seeds_differ(self):
        a = make_environment(seed=3).run(RandomPolicy())
        b = make_environment(seed=4).run(RandomPolicy())
        assert not np.array_equal(a.selection_counts, b.selection_counts)
