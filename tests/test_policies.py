"""Unit tests for the selection policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.policies import (
    EpsilonFirstPolicy,
    EpsilonGreedyPolicy,
    OptimalPolicy,
    RandomPolicy,
    SlidingWindowUCBPolicy,
    ThompsonSamplingPolicy,
    UCBPolicy,
)
from repro.core.state import LearningState
from repro.exceptions import ConfigurationError

M, K, N = 10, 3, 100


def warmed_state(means=None) -> LearningState:
    """A state where every seller has been observed once (L=4)."""
    state = LearningState(M)
    if means is None:
        means = np.linspace(0.1, 0.9, M)
    state.update(np.arange(M), np.asarray(means) * 4.0, num_observations=4)
    return state


class TestUCBPolicy:
    def test_round_zero_selects_all(self, rng):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        selected = policy.select(0, LearningState(M), rng)
        np.testing.assert_array_equal(selected, np.arange(M))

    def test_round_zero_optional(self, rng):
        policy = UCBPolicy(initial_full_exploration=False)
        policy.reset(M, K, N)
        selected = policy.select(0, warmed_state(), rng)
        assert selected.size == K

    def test_later_rounds_select_top_ucb(self, rng):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        state = warmed_state()
        selected = policy.select(1, state, rng)
        expected = np.sort(
            np.argsort(-state.ucb_values(K + 1.0), kind="stable")[:K]
        )
        np.testing.assert_array_equal(selected, expected)

    def test_online_mask_round_zero_explores_the_roster(self, rng):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        online = np.zeros(M, dtype=bool)
        online[[1, 4, 6, 7]] = True
        selected = policy.select(0, LearningState(M), rng, online=online)
        np.testing.assert_array_equal(selected, [1, 4, 6, 7])

    def test_online_mask_takes_top_ucb_among_online(self, rng):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        state = warmed_state()
        online = np.ones(M, dtype=bool)
        online[[8, 9]] = False  # the two best sellers are offline
        selected = policy.select(1, state, rng, online=online)
        ucb = state.ucb_values(K + 1.0)
        ucb[~online] = -np.inf
        expected = np.sort(np.argsort(-ucb, kind="stable")[:K])
        np.testing.assert_array_equal(selected, expected)
        assert online[selected].all()

    def test_online_mask_caps_k_at_the_roster(self, rng):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        online = np.zeros(M, dtype=bool)
        online[[2, 5]] = True
        selected = policy.select(1, warmed_state(), rng, online=online)
        np.testing.assert_array_equal(selected, [2, 5])

    def test_full_online_mask_matches_unmasked(self, rng):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        state = warmed_state()
        everyone = np.ones(M, dtype=bool)
        for t in (0, 1):
            np.testing.assert_array_equal(
                policy.select(t, state, rng, online=everyone),
                policy.select(t, state, rng),
            )

    def test_default_coefficient_is_k_plus_one(self):
        policy = UCBPolicy()
        policy.reset(M, K, N)
        assert policy.exploration_coefficient == K + 1

    def test_coefficient_override(self):
        policy = UCBPolicy(exploration_coefficient=0.7)
        policy.reset(M, K, N)
        assert policy.exploration_coefficient == 0.7

    def test_rejects_bad_coefficient(self):
        with pytest.raises(ConfigurationError):
            UCBPolicy(exploration_coefficient=0.0)

    def test_requires_reset(self, rng):
        with pytest.raises(ConfigurationError, match="reset"):
            UCBPolicy().select(1, LearningState(M), rng)


class TestOptimalPolicy:
    def test_selects_true_top_k(self, rng):
        qualities = np.array([0.2, 0.9, 0.4, 0.8, 0.1, 0.3, 0.5, 0.6,
                              0.7, 0.05])
        policy = OptimalPolicy(qualities)
        policy.reset(M, K, N)
        np.testing.assert_array_equal(
            policy.select(0, LearningState(M), rng), [1, 3, 8]
        )

    def test_selection_constant_across_rounds(self, rng):
        policy = OptimalPolicy(np.linspace(0.1, 0.9, M))
        policy.reset(M, K, N)
        state = LearningState(M)
        first = policy.select(0, state, rng)
        later = policy.select(50, state, rng)
        np.testing.assert_array_equal(first, later)

    def test_rejects_size_mismatch(self):
        policy = OptimalPolicy(np.linspace(0.1, 0.9, 5))
        with pytest.raises(ConfigurationError, match="knows 5"):
            policy.reset(M, K, N)


class TestEpsilonFirstPolicy:
    def test_name_includes_epsilon(self):
        assert EpsilonFirstPolicy(0.1).name == "0.1-first"
        assert EpsilonFirstPolicy(0.5).name == "0.5-first"

    def test_exploration_rounds_count(self):
        policy = EpsilonFirstPolicy(0.1)
        policy.reset(M, K, N)
        assert policy.exploration_rounds == 10

    def test_explores_randomly_then_greedy(self, rng):
        policy = EpsilonFirstPolicy(0.2)
        policy.reset(M, K, N)
        state = warmed_state()
        # Exploitation phase selects the top sample means.
        selected = policy.select(50, state, rng)
        np.testing.assert_array_equal(selected, [7, 8, 9])

    def test_exploration_phase_is_random(self):
        policy = EpsilonFirstPolicy(0.5)
        policy.reset(M, K, N)
        state = warmed_state()
        selections = {
            tuple(policy.select(3, state, np.random.default_rng(s)))
            for s in range(20)
        }
        assert len(selections) > 1

    def test_rejects_epsilon_out_of_range(self):
        with pytest.raises(ConfigurationError):
            EpsilonFirstPolicy(0.0)
        with pytest.raises(ConfigurationError):
            EpsilonFirstPolicy(1.0)


class TestRandomPolicy:
    def test_selects_k_distinct(self, rng):
        policy = RandomPolicy()
        policy.reset(M, K, N)
        selected = policy.select(0, LearningState(M), rng)
        assert selected.size == K
        assert np.unique(selected).size == K

    def test_uniform_coverage(self):
        policy = RandomPolicy()
        policy.reset(M, K, 1)
        counts = np.zeros(M)
        rng = np.random.default_rng(0)
        for __ in range(2_000):
            counts[policy.select(0, LearningState(M), rng)] += 1
        # Each seller selected ~K/M of the time.
        np.testing.assert_allclose(counts / counts.sum(), np.full(M, 1 / M),
                                   atol=0.02)


class TestEpsilonGreedyPolicy:
    def test_name(self):
        assert EpsilonGreedyPolicy(0.25).name == "0.25-greedy"

    def test_zero_epsilon_always_greedy(self, rng):
        policy = EpsilonGreedyPolicy(0.0)
        policy.reset(M, K, N)
        state = warmed_state()
        for t in range(5):
            np.testing.assert_array_equal(
                policy.select(t, state, rng), [7, 8, 9]
            )

    def test_one_epsilon_always_random(self):
        policy = EpsilonGreedyPolicy(1.0)
        policy.reset(M, K, N)
        state = warmed_state()
        selections = {
            tuple(policy.select(0, state, np.random.default_rng(s)))
            for s in range(20)
        }
        assert len(selections) > 1


class TestThompsonSamplingPolicy:
    def test_posterior_concentrates_on_best(self):
        policy = ThompsonSamplingPolicy()
        policy.reset(M, K, N)
        # Heavy evidence: seller means linspace(0.1, 0.9) over 500 obs.
        means = np.linspace(0.1, 0.9, M)
        policy.observe(0, np.arange(M), means * 500.0, 500)
        rng = np.random.default_rng(1)
        counts = np.zeros(M)
        for __ in range(200):
            counts[policy.select(1, LearningState(M), rng)] += 1
        assert set(np.argsort(-counts)[:K]) == {7, 8, 9}

    def test_prior_validation(self):
        with pytest.raises(ConfigurationError):
            ThompsonSamplingPolicy(prior_alpha=0.0)

    def test_reset_clears_posterior(self, rng):
        policy = ThompsonSamplingPolicy()
        policy.reset(M, K, N)
        policy.observe(0, np.arange(M), np.full(M, 400.0), 500)
        policy.reset(M, K, N)
        # After reset the posterior is uniform: selections vary by seed.
        selections = {
            tuple(policy.select(0, LearningState(M),
                                np.random.default_rng(s)))
            for s in range(10)
        }
        assert len(selections) > 1


class TestSlidingWindowUCBPolicy:
    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError, match="window"):
            SlidingWindowUCBPolicy(window=0)

    def test_round_zero_selects_all(self, rng):
        policy = SlidingWindowUCBPolicy(window=5)
        policy.reset(M, K, N)
        np.testing.assert_array_equal(
            policy.select(0, LearningState(M), rng), np.arange(M)
        )

    def test_old_observations_age_out(self, rng):
        policy = SlidingWindowUCBPolicy(window=2,
                                        exploration_coefficient=0.1)
        policy.reset(M, K, N)
        # Seller 0 looks great in an old round, terrible recently.
        policy.observe(0, np.arange(M), np.full(M, 4.0), 4)
        policy.observe(1, np.array([0]), np.array([0.0]), 4)
        policy.observe(2, np.array([0]), np.array([0.0]), 4)
        policy.observe(3, np.array([0]), np.array([0.0]), 4)
        # The stellar round 0 is now outside the window: seller 0's
        # windowed mean is 0 while the others have aged out entirely
        # (infinite bonus), so seller 0 ranks last among finite indices.
        selected = policy.select(4, LearningState(M), rng)
        assert 0 not in selected

    def test_windowed_counts_consistent(self):
        policy = SlidingWindowUCBPolicy(window=3)
        policy.reset(M, K, N)
        for t in range(10):
            policy.observe(t, np.array([t % M]), np.array([2.0]), 4)
        # Only the last 3 rounds' observations remain.
        assert policy._win_counts.sum() == pytest.approx(3 * 4)

    def test_name(self):
        assert SlidingWindowUCBPolicy(window=10).name == "sw-ucb"


class TestResetValidation:
    @pytest.mark.parametrize("policy_factory", [
        UCBPolicy, RandomPolicy,
        lambda: EpsilonFirstPolicy(0.1),
        lambda: EpsilonGreedyPolicy(0.1),
        ThompsonSamplingPolicy,
        lambda: SlidingWindowUCBPolicy(window=5),
    ])
    def test_rejects_bad_k(self, policy_factory):
        policy = policy_factory()
        with pytest.raises(ConfigurationError):
            policy.reset(5, 6, 10)

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError, match="num_rounds"):
            RandomPolicy().reset(5, 2, 0)
