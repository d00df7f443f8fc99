"""Unit tests for social welfare and price-of-anarchy analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incentive import ClosedFormStackelbergSolver
from repro.exceptions import GameError
from repro.game.profits import GameInstance, StrategyProfile
from repro.game.welfare import (
    analyze_welfare,
    maximize_welfare,
    social_welfare,
)


def make_game(seed=0, k=5, omega=800.0) -> GameInstance:
    rng = np.random.default_rng(seed)
    return GameInstance(
        qualities=rng.uniform(0.3, 1.0, k),
        cost_a=rng.uniform(0.1, 0.5, k),
        cost_b=rng.uniform(0.1, 1.0, k),
        theta=0.1,
        lam=1.0,
        omega=omega,
        service_price_bounds=(0.0, 10_000.0),
        collection_price_bounds=(0.0, 10_000.0),
    )


class TestSocialWelfare:
    def test_zero_profile_zero_welfare(self):
        game = make_game()
        assert social_welfare(game, np.zeros(5)) == 0.0

    def test_prices_cancel_out(self):
        # Welfare equals the sum of all three profits at any profile.
        game = make_game()
        taus = np.full(5, 2.0)
        profile = StrategyProfile(7.0, 3.0, taus)
        profits = game.profile_profits(profile)
        total = (profits["consumer"] + profits["platform"]
                 + float(profits["sellers"].sum()))
        assert social_welfare(game, taus) == pytest.approx(total)

    def test_welfare_concave_along_rays(self):
        game = make_game()
        direction = np.ones(5)
        scales = np.linspace(0.0, 20.0, 40)
        values = [social_welfare(game, s * direction) for s in scales]
        second_diff = np.diff(values, 2)
        assert np.all(second_diff < 1e-9)


class TestMaximizeWelfare:
    @pytest.mark.parametrize("seed", range(4))
    def test_first_order_conditions(self, seed):
        game = make_game(seed)
        taus = maximize_welfare(game)
        base = social_welfare(game, taus)
        h = 1e-5
        for j in range(game.num_sellers):
            if taus[j] <= 1e-9:
                continue
            up = taus.copy()
            up[j] += h
            down = taus.copy()
            down[j] -= h
            derivative = (
                social_welfare(game, up) - social_welfare(game, down)
            ) / (2 * h)
            assert abs(derivative) < 1e-4, f"seller {j}"
        assert np.isfinite(base)

    @pytest.mark.parametrize("seed", range(4))
    def test_beats_random_profiles(self, seed):
        game = make_game(seed)
        optimum = social_welfare(game, maximize_welfare(game))
        rng = np.random.default_rng(seed + 100)
        for __ in range(20):
            candidate = rng.uniform(0.0, 15.0, game.num_sellers)
            assert social_welfare(game, candidate) <= optimum + 1e-6

    def test_respects_round_duration(self):
        rng = np.random.default_rng(1)
        game = GameInstance(
            qualities=rng.uniform(0.3, 1.0, 4),
            cost_a=rng.uniform(0.1, 0.5, 4),
            cost_b=rng.uniform(0.1, 1.0, 4),
            theta=0.1, lam=1.0, omega=800.0,
            max_sensing_time=1.5,
        )
        taus = maximize_welfare(game)
        assert np.all(taus <= 1.5 + 1e-9)
        assert np.all(taus >= 0.0)

    def test_expensive_market_opts_out(self):
        # Tiny omega and huge linear costs: the social optimum is zero.
        game = GameInstance(
            qualities=np.array([0.5]),
            cost_a=np.array([0.5]),
            cost_b=np.array([50.0]),
            theta=0.5, lam=100.0, omega=2.0,
        )
        np.testing.assert_allclose(maximize_welfare(game), 0.0)


class TestAnalyzeWelfare:
    @pytest.mark.parametrize("seed", range(4))
    def test_poa_at_least_one(self, seed):
        game = make_game(seed)
        solved = ClosedFormStackelbergSolver().solve(game)
        analysis = analyze_welfare(game, solved.profile)
        assert analysis.price_of_anarchy >= 1.0 - 1e-9
        assert 0.0 < analysis.efficiency <= 1.0 + 1e-9

    def test_se_underprovides_sensing_time(self):
        game = make_game()
        solved = ClosedFormStackelbergSolver().solve(game)
        analysis = analyze_welfare(game, solved.profile)
        assert (analysis.optimal_taus.sum()
                > solved.profile.total_sensing_time)

    def test_consistent_ratios(self):
        game = make_game()
        solved = ClosedFormStackelbergSolver().solve(game)
        analysis = analyze_welfare(game, solved.profile)
        assert analysis.price_of_anarchy == pytest.approx(
            1.0 / analysis.efficiency
        )
        assert analysis.optimal_welfare == pytest.approx(
            social_welfare(game, analysis.optimal_taus)
        )

    def test_rejects_nonpositive_equilibrium_welfare(self):
        game = make_game()
        degenerate = StrategyProfile(1.0, 1.0, np.zeros(5))
        with pytest.raises(GameError, match="non-positive"):
            analyze_welfare(game, degenerate)


class TestLemma18Bound:
    def test_theorem19_is_m_delta_max_times_lemma18(self):
        from repro.core.regret import lemma18_bound, theorem19_bound

        kwargs = dict(k=5, num_pois=10, num_rounds=10_000, delta_min=0.05)
        assert theorem19_bound(
            num_sellers=40, delta_max=2.0, **kwargs
        ) == pytest.approx(40 * 2.0 * lemma18_bound(**kwargs))

    def test_theorem19_zero_when_no_gap_spread(self):
        from repro.core.regret import theorem19_bound

        assert theorem19_bound(10, 2, 5, 100, delta_min=0.0,
                               delta_max=0.0) == 0.0

    def test_lemma18_infinite_for_zero_gap(self):
        from repro.core.regret import lemma18_bound

        assert lemma18_bound(2, 5, 100, 0.0) == float("inf")

    def test_measured_counters_below_lemma18(self):
        """Suboptimal sellers' selection counts respect Lemma 18."""
        from repro.bandits.policies import UCBPolicy
        from repro.core.regret import lemma18_bound
        from repro.entities.seller import SellerPopulation
        from repro.quality.distributions import TruncatedGaussianQuality
        from repro.sim import SimulationConfig, TradingSimulator

        qualities = np.array([0.9, 0.8, 0.6, 0.4, 0.2, 0.1])
        k, num_pois, num_rounds = 2, 4, 2_000
        config = SimulationConfig(num_sellers=qualities.size,
                                  num_selected=k, num_pois=num_pois,
                                  num_rounds=num_rounds, seed=3)
        result = TradingSimulator(
            config,
            population=SellerPopulation.from_arrays(
                qualities, np.ones_like(qualities),
                np.zeros_like(qualities)),
            quality_model=TruncatedGaussianQuality(qualities),
        ).run(UCBPolicy())
        # Per-seller gap to the optimal set's weakest member.
        weakest_optimal = np.sort(qualities)[::-1][k - 1]
        for seller in range(qualities.size):
            gap = weakest_optimal - qualities[seller]
            if gap <= 0.0:
                continue  # optimal seller; Lemma 18 does not bound it
            observations = result.selection_counts[seller] * num_pois
            bound = lemma18_bound(k, num_pois, num_rounds, gap)
            assert observations <= bound, f"seller {seller}"