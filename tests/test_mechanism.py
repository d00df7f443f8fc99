"""Unit tests for the CMAB-HS mechanism (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mechanism import CMABHSMechanism
from repro.entities.consumer import Consumer
from repro.entities.job import Job
from repro.entities.platform import Platform
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.quality.distributions import DeterministicQuality


def make_mechanism(population=None, num_rounds=30, k=3, seed=0,
                   quality_model=None, **kwargs) -> CMABHSMechanism:
    if population is None:
        population = SellerPopulation.random(
            8, np.random.default_rng(1)
        )
    job = Job.simple(num_pois=4, num_rounds=num_rounds)
    return CMABHSMechanism(
        population, job, Platform.default(price_max=5.0),
        Consumer.default(), k=k, seed=seed,
        quality_model=quality_model, **kwargs,
    )


class TestConstruction:
    def test_rejects_oversized_k(self):
        with pytest.raises(ConfigurationError, match="k must be"):
            make_mechanism(k=9)

    def test_rejects_nonpositive_tau0(self):
        with pytest.raises(ConfigurationError, match="initial_sensing_time"):
            make_mechanism(initial_sensing_time=0.0)

    def test_rejects_tau0_beyond_round_duration(self):
        population = SellerPopulation.random(8, np.random.default_rng(1))
        job = Job.simple(num_pois=4, num_rounds=10, round_duration=0.5)
        with pytest.raises(ConfigurationError, match="round duration"):
            CMABHSMechanism(population, job, Platform.default(price_max=5.0),
                            Consumer.default(), k=3,
                            initial_sensing_time=1.0)

    def test_rejects_mismatched_quality_model(self):
        model = DeterministicQuality(np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError, match="different number"):
            make_mechanism(quality_model=model)

    def test_default_exploration_coefficient_is_k_plus_one(self):
        mechanism = make_mechanism(k=3)
        assert mechanism.exploration_coefficient == 4.0

    def test_coefficient_override(self):
        mechanism = make_mechanism(exploration_coefficient=0.5)
        assert mechanism.exploration_coefficient == 0.5


class TestAlgorithmStructure:
    def test_round_zero_selects_all(self):
        result = make_mechanism().run()
        assert result.rounds[0].selected.size == 8

    def test_later_rounds_select_k(self):
        result = make_mechanism(k=3).run()
        for outcome in result.rounds[1:]:
            assert outcome.selected.size == 3

    def test_round_zero_uses_max_collection_price(self):
        result = make_mechanism().run()
        assert result.rounds[0].collection_price == pytest.approx(5.0)

    def test_round_zero_break_even_platform(self):
        result = make_mechanism().run()
        assert result.rounds[0].platform_profit == pytest.approx(0.0,
                                                                 abs=1e-9)

    def test_counts_advance_by_l_per_selection(self):
        result = make_mechanism(num_rounds=10).run()
        # Each selection adds L=4 observations; round 0 counts everyone.
        chi = result.selection_matrix
        expected = chi.sum(axis=0) * 4
        np.testing.assert_array_equal(result.final_counts, expected)

    def test_selection_matrix_shape_and_kind(self):
        result = make_mechanism(num_rounds=12, k=3).run()
        chi = result.selection_matrix
        assert chi.shape == (12, 8)
        assert set(np.unique(chi)) <= {0, 1}
        np.testing.assert_array_equal(chi[0], np.ones(8))
        np.testing.assert_array_equal(chi[1:].sum(axis=1), np.full(11, 3))

    def test_num_rounds_override(self):
        mechanism = make_mechanism(num_rounds=30)
        result = mechanism.run(num_rounds=7)
        assert result.num_rounds == 7

    def test_rejects_nonpositive_round_override(self):
        with pytest.raises(ConfigurationError, match="num_rounds"):
            make_mechanism().run(num_rounds=0)


class TestLearning:
    def test_estimates_converge_with_deterministic_observations(self):
        population = SellerPopulation.random(6, np.random.default_rng(2))
        model = DeterministicQuality(population.expected_qualities)
        mechanism = make_mechanism(population=population, k=2,
                                   quality_model=model, num_rounds=5)
        result = mechanism.run()
        # Every seller was observed in round 0 with zero noise.
        np.testing.assert_allclose(result.final_means,
                                   population.expected_qualities)

    def test_deterministic_model_converges_to_optimal_selection(self):
        # Well-separated qualities so the UCB bonus stops dominating
        # within the test horizon.
        population = SellerPopulation.from_arrays(
            qualities=np.array([0.95, 0.75, 0.5, 0.3, 0.15, 0.05]),
            a=np.full(6, 0.3),
            b=np.full(6, 0.2),
        )
        model = DeterministicQuality(population.expected_qualities)
        mechanism = make_mechanism(population=population, k=2,
                                   quality_model=model, num_rounds=2_000)
        result = mechanism.run()
        optimal = set(population.top_k_by_quality(2).tolist())
        # The tail rounds must mostly select the truly best sellers.
        tail_selections = [set(r.selected.tolist())
                           for r in result.rounds[-50:]]
        matches = sum(sel == optimal for sel in tail_selections)
        assert matches >= 40

    def test_regret_sublinear_under_noise(self):
        mechanism = make_mechanism(num_rounds=400, k=3)
        result = mechanism.run()
        history = result.regret_history
        first_half_rate = history[199] / 200.0
        second_half_rate = (history[-1] - history[199]) / 200.0
        assert second_half_rate < first_half_rate

    def test_same_seed_reproduces_run(self):
        result_a = make_mechanism(seed=5).run()
        result_b = make_mechanism(seed=5).run()
        np.testing.assert_array_equal(result_a.selection_matrix,
                                      result_b.selection_matrix)
        assert result_a.realized_revenue == result_b.realized_revenue

    def test_different_seeds_differ(self):
        result_a = make_mechanism(seed=5, num_rounds=50).run()
        result_b = make_mechanism(seed=6, num_rounds=50).run()
        assert not np.array_equal(result_a.selection_matrix,
                                  result_b.selection_matrix)


class TestAccessors:
    def test_profit_series_lengths(self):
        result = make_mechanism(num_rounds=15).run()
        profits = result.profits()
        for series in profits.values():
            assert series.shape == (15,)

    def test_strategy_series_lengths(self):
        result = make_mechanism(num_rounds=15).run()
        strategies = result.strategies()
        for series in strategies.values():
            assert series.shape == (15,)

    def test_round_outcome_strategy_profile(self):
        result = make_mechanism(num_rounds=5).run()
        outcome = result.rounds[2]
        profile = outcome.strategy
        assert profile.service_price == outcome.service_price
        assert profile.total_sensing_time == pytest.approx(
            outcome.total_sensing_time
        )

    def test_build_game_reflects_round(self):
        mechanism = make_mechanism(num_rounds=5)
        result = mechanism.run()
        outcome = result.rounds[3]
        game = mechanism.build_game(
            outcome.selected,
            np.full(outcome.selected.size, 0.6),
        )
        assert game.num_sellers == outcome.selected.size

    def test_round_profits_sum_to_social_welfare(self):
        # Prices are transfers: PoC + PoP + sum(PoS) must equal the
        # social welfare of the round's sensing profile, evaluated at
        # the estimates the game was played with.
        from repro.game.welfare import social_welfare

        mechanism = make_mechanism(num_rounds=25, seed=7)
        result = mechanism.run()
        for outcome in result.rounds[1:]:
            game = mechanism.build_game(outcome.selected,
                                        outcome.estimated_qualities)
            welfare = social_welfare(game, outcome.sensing_times)
            total_profit = (
                outcome.consumer_profit + outcome.platform_profit
                + float(outcome.seller_profits.sum())
            )
            assert total_profit == pytest.approx(welfare, rel=1e-9), (
                outcome.round_index
            )
