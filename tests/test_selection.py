"""Unit tests for the top-K rule of UCB-greedy seller selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selection import top_k_indices
from repro.core.state import LearningState
from repro.exceptions import SelectionError


class TestTopK:
    def test_selects_largest(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 3])

    def test_returns_sorted_indices(self):
        scores = np.array([0.9, 0.1, 0.8])
        result = top_k_indices(scores, 2)
        assert list(result) == sorted(result)

    def test_k_equals_size_returns_all(self):
        scores = np.array([0.3, 0.1])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [0, 1])

    def test_tie_break_by_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [0, 1])

    def test_infinite_scores_rank_first(self):
        scores = np.array([0.9, np.inf, 0.8, np.inf])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 3])

    def test_rejects_zero_k(self):
        with pytest.raises(SelectionError):
            top_k_indices(np.array([0.5]), 0)

    def test_rejects_oversized_k(self):
        with pytest.raises(SelectionError, match="cannot select"):
            top_k_indices(np.array([0.5]), 2)

    def test_rejects_2d_scores(self):
        with pytest.raises(SelectionError, match="1-D"):
            top_k_indices(np.array([[0.5]]), 1)


class TestSelectByUCB:
    def test_prefers_unseen_sellers(self):
        state = LearningState(4)
        state.update(np.array([0, 1]), np.array([2.0, 2.0]), 4)
        selected = top_k_indices(state.ucb_values(3.0), 2)
        np.testing.assert_array_equal(selected, [2, 3])

    def test_selects_top_ucb_when_all_seen(self):
        state = LearningState(3)
        state.update(np.array([0, 1, 2]), np.array([0.8, 2.0, 3.6]), 4)
        # Means 0.2, 0.5, 0.9; equal counts so the bonus is constant.
        selected = top_k_indices(state.ucb_values(3.0), 2)
        np.testing.assert_array_equal(selected, [1, 2])

    def test_exploration_can_override_mean(self):
        state = LearningState(2)
        # Seller 0: high mean, many observations; seller 1: lower mean,
        # few observations -> bigger bonus wins with a large coefficient.
        state.update(np.array([0]), np.array([90.0]), 100)
        state.update(np.array([1]), np.array([0.6]), 1)
        selected = top_k_indices(state.ucb_values(10.0), 1)
        np.testing.assert_array_equal(selected, [1])
