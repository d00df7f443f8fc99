"""Unit and integration tests for the trading-simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.policies import (
    EpsilonFirstPolicy,
    OptimalPolicy,
    RandomPolicy,
    UCBPolicy,
)
from repro.core.mechanism import CMABHSMechanism
from repro.entities.consumer import Consumer
from repro.entities.job import Job
from repro.entities.platform import Platform
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.quality.distributions import TruncatedGaussianQuality
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator


@pytest.fixture
def simulator(tiny_config) -> TradingSimulator:
    return TradingSimulator(tiny_config)


class TestConstruction:
    def test_population_size_must_match(self, tiny_config, rng):
        population = SellerPopulation.random(3, rng)
        with pytest.raises(ConfigurationError, match="population has 3"):
            TradingSimulator(tiny_config, population=population)

    def test_quality_model_size_must_match(self, tiny_config, rng):
        model = TruncatedGaussianQuality(np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError, match="different number"):
            TradingSimulator(tiny_config, quality_model=model)

    def test_population_sampled_from_config_ranges(self, simulator):
        population = simulator.population
        cfg = simulator.config
        assert np.all(population.cost_a >= cfg.a_range[0])
        assert np.all(population.cost_a <= cfg.a_range[1])

    def test_same_seed_same_population(self, tiny_config):
        a = TradingSimulator(tiny_config)
        b = TradingSimulator(tiny_config)
        np.testing.assert_array_equal(a.population.expected_qualities,
                                      b.population.expected_qualities)


class TestRunMetrics:
    def test_series_lengths(self, simulator, tiny_config):
        run = simulator.run(RandomPolicy())
        assert run.num_rounds == tiny_config.num_rounds
        assert run.consumer_profit.shape == (tiny_config.num_rounds,)
        assert run.selection_counts.shape == (tiny_config.num_sellers,)
        # Random selects K every round, round 0 included.
        assert run.selection_counts.sum() == (
            tiny_config.num_rounds * tiny_config.num_selected
        )

    def test_optimal_policy_zero_regret(self, simulator):
        run = simulator.run(
            OptimalPolicy(simulator.population.expected_qualities)
        )
        assert run.final_regret == 0.0

    def test_regret_history_monotone(self, simulator):
        run = simulator.run(RandomPolicy())
        assert np.all(np.diff(run.regret) >= -1e-9)
        # Random never learns: its per-round regret stays roughly
        # constant, so the second half adds about as much as the first.
        half = run.num_rounds // 2
        first = run.regret[half - 1] / half
        second = (run.regret[-1] - run.regret[half - 1]) / (
            run.num_rounds - half)
        assert second > 0.6 * first

    def test_ucb_initial_round_selects_everyone(self, simulator,
                                                tiny_config):
        run = simulator.run(UCBPolicy())
        assert np.all(run.selection_counts >= 1)
        # Round 0 takes all M sellers, every later round exactly K.
        assert run.selection_counts.sum() == (
            tiny_config.num_sellers
            + (tiny_config.num_rounds - 1) * tiny_config.num_selected
        )

    def test_ucb_initial_round_break_even_platform(self, simulator):
        run = simulator.run(UCBPolicy())
        assert run.platform_profit[0] == pytest.approx(0.0, abs=1e-9)

    def test_collection_price_max_in_explore_round(self, simulator,
                                                   tiny_config):
        run = simulator.run(UCBPolicy())
        assert run.collection_price[0] == pytest.approx(
            tiny_config.collection_price_bounds[1]
        )

    def test_prices_within_bounds(self, simulator, tiny_config):
        run = simulator.run(UCBPolicy())
        lo, hi = tiny_config.service_price_bounds
        assert np.all(run.service_price >= lo - 1e-9)
        assert np.all(run.service_price <= hi + 1e-9)
        lo, hi = tiny_config.collection_price_bounds
        assert np.all(run.collection_price >= lo - 1e-9)
        assert np.all(run.collection_price <= hi + 1e-9)

    def test_sensing_times_nonnegative(self, simulator):
        run = simulator.run(UCBPolicy())
        assert np.all(run.total_sensing_time >= 0.0)

    def test_k_equals_m_corner_uses_exploration_pricing(self):
        # With K == M every policy selects everyone in round 0; the
        # engine must apply Algorithm 1's break-even pricing there, not
        # play the game on unseen estimates.
        config = SimulationConfig(num_sellers=6, num_selected=6,
                                  num_pois=3, num_rounds=20, seed=5,
                                  collection_price_bounds=(0.0, 5.0))
        run = TradingSimulator(config).run(UCBPolicy())
        assert run.collection_price[0] == pytest.approx(5.0)
        assert run.platform_profit[0] == pytest.approx(0.0, abs=1e-9)

    def test_estimation_error_shrinks_for_ucb(self, tiny_config):
        config = tiny_config.derive(num_rounds=600)
        run = TradingSimulator(config).run(UCBPolicy())
        # Quality estimates converge: the tail error is well below the
        # error right after the first exploration round.
        assert run.estimation_error[-1] < 0.5 * run.estimation_error[0]
        assert run.final_estimation_error == run.estimation_error[-1]
        # ... and the estimates end up at the true means.
        assert run.final_estimation_error < 0.02

    def test_estimation_error_nonnegative(self, simulator):
        run = simulator.run(RandomPolicy())
        assert np.all(run.estimation_error >= 0.0)

    def test_run_reproducible(self, tiny_config):
        a = TradingSimulator(tiny_config).run(UCBPolicy())
        b = TradingSimulator(tiny_config).run(UCBPolicy())
        np.testing.assert_array_equal(a.realized_revenue,
                                      b.realized_revenue)
        np.testing.assert_array_equal(a.consumer_profit, b.consumer_profit)
        other = TradingSimulator(tiny_config.derive(seed=10)).run(
            UCBPolicy())
        assert not np.array_equal(a.selection_counts,
                                  other.selection_counts)

    def test_num_rounds_override(self, simulator):
        run = simulator.run(RandomPolicy(), num_rounds=17)
        assert run.num_rounds == 17

    def test_rejects_nonpositive_override(self, simulator):
        with pytest.raises(ConfigurationError, match="num_rounds"):
            simulator.run(RandomPolicy(), num_rounds=0)


class TestCompare:
    def test_expected_policy_ordering(self, tiny_config):
        config = tiny_config.derive(num_rounds=800)
        simulator = TradingSimulator(config)
        policies = [
            OptimalPolicy(simulator.population.expected_qualities),
            UCBPolicy(),
            EpsilonFirstPolicy(0.1),
            RandomPolicy(),
        ]
        comparison = simulator.compare(policies)
        optimal = comparison["optimal"].total_expected_revenue
        ucb = comparison["CMAB-HS"].total_expected_revenue
        random = comparison["random"].total_expected_revenue
        assert optimal >= ucb >= random

    def test_delta_profits_positive_for_random(self, tiny_config):
        config = tiny_config.derive(num_rounds=800)
        simulator = TradingSimulator(config)
        comparison = simulator.compare([
            OptimalPolicy(simulator.population.expected_qualities),
            RandomPolicy(),
        ])
        deltas = comparison.delta_profits("random")
        assert deltas["delta_poc"] > 0.0

    def test_duplicate_policy_rejected(self, simulator):
        with pytest.raises(ConfigurationError, match="duplicate"):
            simulator.compare([RandomPolicy(), RandomPolicy()])


class TestAgreementWithMechanism:
    def test_engine_matches_mechanism_round_for_round(self):
        """The engine driving a UCBPolicy replays Algorithm 1 exactly.

        Under a noise-free quality model both implementations see
        identical observation streams, so every selection, price, and
        profit must coincide round for round.
        """
        from repro.quality.distributions import DeterministicQuality

        seed = 21
        num_rounds = 60
        config = SimulationConfig(
            num_sellers=12, num_selected=3, num_pois=5,
            num_rounds=num_rounds, seed=seed,
            collection_price_bounds=(0.0, 5.0),
        )
        base = TradingSimulator(config)
        model = DeterministicQuality(base.population.expected_qualities)
        simulator = TradingSimulator(config, population=base.population,
                                     quality_model=model)
        run = simulator.run(UCBPolicy())

        job = Job.simple(num_pois=5, num_rounds=num_rounds)
        mechanism = CMABHSMechanism(
            base.population, job,
            Platform.default(theta=config.theta, lam=config.lam,
                             price_max=5.0),
            Consumer.default(omega=config.omega),
            k=3,
            quality_model=model,
            seed=seed,
        )
        result = mechanism.run()
        for t in range(num_rounds):
            outcome = result.rounds[t]
            assert run.collection_price[t] == pytest.approx(
                outcome.collection_price
            ), f"round {t}"
            assert run.service_price[t] == pytest.approx(
                outcome.service_price
            ), f"round {t}"
            assert run.consumer_profit[t] == pytest.approx(
                outcome.consumer_profit
            ), f"round {t}"
            assert run.total_sensing_time[t] == pytest.approx(
                outcome.total_sensing_time
            ), f"round {t}"
