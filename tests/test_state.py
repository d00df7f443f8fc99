"""Unit tests for the quality-learning state (Eqs. 17-19)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.state import LearningState
from repro.exceptions import ConfigurationError


class TestConstruction:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError, match="num_sellers"):
            LearningState(0)

    def test_rejects_bad_prior(self):
        with pytest.raises(ConfigurationError, match="prior_mean"):
            LearningState(3, prior_mean=1.5)

    def test_starts_empty(self):
        state = LearningState(4)
        assert state.total_count == 0
        np.testing.assert_array_equal(state.counts, np.zeros(4))

    def test_prior_mean_reported_for_unseen(self):
        state = LearningState(3, prior_mean=0.5)
        np.testing.assert_array_equal(state.means, [0.5, 0.5, 0.5])


class TestUpdate:
    def test_counts_advance_by_l(self):
        state = LearningState(4)
        state.update(np.array([0, 2]), np.array([2.0, 3.0]),
                     num_observations=5)
        np.testing.assert_array_equal(state.counts, [5, 0, 5, 0])

    def test_means_are_running_averages(self):
        state = LearningState(2)
        state.update(np.array([0]), np.array([2.0]), num_observations=4)
        assert state.mean_of(0) == pytest.approx(0.5)
        state.update(np.array([0]), np.array([4.0]), num_observations=4)
        assert state.mean_of(0) == pytest.approx(6.0 / 8.0)

    def test_update_matches_equation_18_batch_recomputation(self, rng):
        # The incremental update must equal recomputing from all samples.
        state = LearningState(3)
        all_sums = np.zeros(3)
        all_counts = np.zeros(3)
        for __ in range(20):
            sellers = np.sort(rng.choice(3, size=2, replace=False))
            sums = rng.uniform(0.0, 4.0, size=2)
            state.update(sellers, sums, num_observations=4)
            all_sums[sellers] += sums
            all_counts[sellers] += 4
        np.testing.assert_allclose(state.means, all_sums / all_counts)

    def test_unselected_sellers_unchanged(self):
        state = LearningState(3)
        state.update(np.array([0]), np.array([1.0]), num_observations=2)
        before = state.mean_of(0)
        state.update(np.array([1]), np.array([1.5]), num_observations=2)
        assert state.mean_of(0) == before

    def test_rejects_duplicate_sellers(self):
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="twice"):
            state.update(np.array([1, 1]), np.array([1.0, 1.0]), 2)

    def test_rejects_unsorted_duplicate_sellers(self):
        state = LearningState(4)
        with pytest.raises(ConfigurationError, match="twice"):
            state.update(np.array([2, 0, 2]), np.array([1.0, 1.0, 1.0]), 2)
        assert state.total_count == 0

    def test_accepts_unsorted_distinct_sellers(self):
        state = LearningState(4)
        state.update(np.array([3, 0, 2]), np.array([1.0, 2.0, 0.5]), 2)
        np.testing.assert_array_equal(state.counts, [2, 0, 2, 2])
        assert state.mean_of(0) == 1.0

    def test_rejects_out_of_range_seller(self):
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="out of range"):
            state.update(np.array([3]), np.array([1.0]), 2)

    def test_rejects_negative_seller_in_unsorted_input(self):
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="out of range"):
            state.update(np.array([1, -1]), np.array([1.0, 1.0]), 2)

    def test_rejects_float_seller_indices(self):
        # Truncating 0.5 and 1.7 to sellers 0 and 1 would teach the
        # wrong sellers silently.
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="integers"):
            state.update([0.5, 1.7], [1.0, 1.0], 2)
        with pytest.raises(ConfigurationError, match="integers"):
            state.update(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 2)
        assert state.total_count == 0

    def test_rejects_boolean_seller_mask(self):
        # A mask [False, True] is not the sellers 0 and 1.
        state = LearningState(2)
        with pytest.raises(ConfigurationError, match="integers"):
            state.update(np.array([False, True]), np.array([1.0, 1.0]), 2)
        assert state.total_count == 0

    def test_rejects_misaligned_arrays(self):
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="aligned"):
            state.update(np.array([0, 1]), np.array([1.0]), 2)

    def test_rejects_nonpositive_observation_count(self):
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="num_observations"):
            state.update(np.array([0]), np.array([1.0]), 0)

    def test_empty_update_is_noop(self):
        state = LearningState(3)
        state.update(np.array([], dtype=int), np.array([]), 4)
        state.update([], [], 4)
        assert state.total_count == 0

    def test_total_count_is_the_count_sum(self):
        state = LearningState(4)
        state.update(np.array([0, 3]), np.array([1.0, 2.0]), 3)
        state.update(np.array([], dtype=int), np.array([]), 5)
        state.update(np.array([3]), np.array([0.5]), 2)
        assert state.total_count == int(state.counts.sum()) == 8


class TestMeansView:
    def test_means_is_read_only(self):
        state = LearningState(3)
        with pytest.raises(ValueError):
            state.means[0] = 0.9

    def test_view_follows_later_updates(self):
        state = LearningState(2, prior_mean=0.5)
        means = state.means
        state.update(np.array([1]), np.array([1.0]), 4)
        np.testing.assert_array_equal(means, [0.5, 0.25])

    def test_views_are_built_once_and_follow_learn(self):
        state = LearningState(3)
        means, counts = state.means, state.counts
        assert state.means is means and state.counts is counts
        state._learn(np.array([0, 2]), np.array([4.0, 1.0]), 5)
        assert state.means is means and state.counts is counts
        np.testing.assert_array_equal(means, [0.8, 0.0, 0.2])
        np.testing.assert_array_equal(counts, [5, 0, 5])
        assert not means.flags.writeable and not counts.flags.writeable

    @pytest.mark.parametrize("how", ["restore", "reset"])
    def test_views_are_replaced_by_restore_and_reset(self, how):
        state = LearningState(3, prior_mean=0.5)
        state.update(np.array([1]), np.array([2.0]), 4)
        snapshot = state.snapshot()
        state.update(np.array([0, 1]), np.array([1.0, 1.0]), 4)
        old_means, old_counts = state.means, state.counts
        if how == "restore":
            state.restore(snapshot)
            expected_means, expected_counts = [0.5, 0.5, 0.5], [0, 4, 0]
        else:
            state.reset()
            expected_means, expected_counts = [0.5, 0.5, 0.5], [0, 0, 0]
        means, counts = state.means, state.counts
        assert means is not old_means and counts is not old_counts
        np.testing.assert_array_equal(means, expected_means)
        np.testing.assert_array_equal(counts, expected_counts)
        state._learn(np.array([2]), np.array([4.0]), 4)
        np.testing.assert_array_equal(means, [0.5,
                                              expected_means[1], 1.0])
        np.testing.assert_array_equal(counts[2], 4)
        assert not means.flags.writeable and not counts.flags.writeable
        with pytest.raises(ValueError):
            means[0] = 0.9
        with pytest.raises(ValueError):
            counts[0] = 1

    def test_copied_state_views_follow_the_copy(self):
        state = LearningState(2)
        state.update(np.array([0]), np.array([1.0]), 2)
        clone = copy.deepcopy(state)
        clone._learn(np.array([1]), np.array([2.0]), 2)
        np.testing.assert_array_equal(clone.means, [0.5, 1.0])
        np.testing.assert_array_equal(clone.counts, [2, 2])
        np.testing.assert_array_equal(state.means, [0.5, 0.0])
        assert not clone.means.flags.writeable


class TestUCB:
    def test_unseen_sellers_have_infinite_index(self):
        state = LearningState(3)
        state.update(np.array([0]), np.array([1.0]), num_observations=2)
        ucb = state.ucb_values(coefficient=2.0)
        assert np.isfinite(ucb[0])
        assert np.isinf(ucb[1]) and np.isinf(ucb[2])

    def test_matches_equation_19(self):
        state = LearningState(2)
        state.update(np.array([0, 1]), np.array([2.0, 1.0]),
                     num_observations=4)
        coefficient = 3.0
        total = 8
        expected_bonus = np.sqrt(coefficient * np.log(total) / 4.0)
        ucb = state.ucb_values(coefficient)
        assert ucb[0] == pytest.approx(0.5 + expected_bonus)
        assert ucb[1] == pytest.approx(0.25 + expected_bonus)

    def test_bonus_shrinks_with_observations(self):
        state = LearningState(2)
        state.update(np.array([0, 1]), np.array([1.0, 1.0]), 2)
        first = state.exploration_bonuses(2.0)[0]
        for __ in range(5):
            state.update(np.array([0]), np.array([1.0]), 2)
        second = state.exploration_bonuses(2.0)[0]
        assert second < first

    def test_less_observed_seller_gets_larger_bonus(self):
        state = LearningState(2)
        state.update(np.array([0, 1]), np.array([1.0, 1.0]), 2)
        state.update(np.array([0]), np.array([1.0]), 6)
        bonuses = state.exploration_bonuses(2.0)
        assert bonuses[1] > bonuses[0]

    def test_rejects_nonpositive_coefficient(self):
        state = LearningState(2)
        with pytest.raises(ConfigurationError, match="coefficient"):
            state.ucb_values(0.0)

    def test_all_infinite_before_any_observation(self):
        state = LearningState(3)
        assert np.all(np.isinf(state.ucb_values(2.0)))


class TestSnapshotRestore:
    def test_round_trip(self):
        state = LearningState(3)
        state.update(np.array([0, 1]), np.array([1.0, 2.0]), 4)
        snapshot = state.snapshot()
        state.update(np.array([2]), np.array([3.0]), 4)
        state.restore(snapshot)
        np.testing.assert_array_equal(state.counts, [4, 4, 0])
        assert state.mean_of(1) == pytest.approx(0.5)

    def test_snapshot_is_a_copy(self):
        state = LearningState(2)
        state.update(np.array([0]), np.array([1.0]), 2)
        snapshot = state.snapshot()
        snapshot["counts"][0] = 99
        assert state.counts[0] == 2

    def test_restore_rejects_wrong_shape(self):
        state = LearningState(2)
        with pytest.raises(ConfigurationError, match="shape"):
            state.restore({"counts": np.zeros(3), "sums": np.zeros(3)})

    def test_reset(self):
        state = LearningState(2)
        state.update(np.array([0]), np.array([1.0]), 2)
        state.reset()
        assert state.total_count == 0

    def test_reset_mirrors_equal_a_fresh_state(self):
        state = LearningState(3, prior_mean=0.5)
        state.update(np.array([0, 2]), np.array([1.0, 0.3]), 2)
        state.reset()
        fresh = LearningState(3, prior_mean=0.5)
        np.testing.assert_array_equal(state.means, fresh.means)
        np.testing.assert_array_equal(state.ucb_values(2.0),
                                      fresh.ucb_values(2.0))
        assert state.total_count == fresh.total_count == 0

    def test_hand_built_snapshot_restores_bit_identically(self):
        # The checkpoint format: int64 counts, float sums.
        counts = np.array([6, 0, 3, 9], dtype=np.int64)
        sums = np.array([2.7, 0.0, 1.1, 8.3])
        state = LearningState(4, prior_mean=0.5)
        state.restore({"counts": counts, "sums": sums})
        assert state.total_count == 18
        np.testing.assert_array_equal(
            state.means, [2.7 / 6, 0.5, 1.1 / 3, 8.3 / 9])
        bonuses = np.sqrt(3.0 * np.log(18) / counts[[0, 2, 3]])
        ucb = state.ucb_values(3.0)
        np.testing.assert_array_equal(ucb[[0, 2, 3]],
                                      state.means[[0, 2, 3]] + bonuses)
        assert np.isposinf(ucb[1])
        snapshot = state.snapshot()
        assert snapshot["counts"].dtype == np.int64
        np.testing.assert_array_equal(snapshot["counts"], counts)
        np.testing.assert_array_equal(snapshot["sums"], sums)
