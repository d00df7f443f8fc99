"""Property-based tests (hypothesis) for learning state, selection, regret."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regret import RegretTracker, gap_statistics, theorem19_bound
from repro.core.selection import top_k_indices
from repro.core.state import LearningState

quality_vectors = st.lists(
    st.floats(0.0, 1.0), min_size=3, max_size=30
).map(np.array)


@st.composite
def update_sequences(draw):
    """A random sequence of (sellers, per-observation means) updates."""
    m = draw(st.integers(3, 10))
    num_updates = draw(st.integers(1, 15))
    num_obs = draw(st.integers(1, 8))
    updates = []
    for __ in range(num_updates):
        k = draw(st.integers(1, m))
        sellers = draw(
            st.permutations(list(range(m))).map(lambda p: sorted(p[:k]))
        )
        means = draw(
            st.lists(st.floats(0.0, 1.0), min_size=len(sellers),
                     max_size=len(sellers))
        )
        updates.append((np.array(sellers), np.array(means) * num_obs))
    return m, num_obs, updates


class TestLearningStateProperties:
    @given(data=update_sequences())
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_batch(self, data):
        m, num_obs, updates = data
        state = LearningState(m)
        sums = np.zeros(m)
        counts = np.zeros(m)
        for sellers, obs_sums in updates:
            state.update(sellers, obs_sums, num_obs)
            sums[sellers] += obs_sums
            counts[sellers] += num_obs
        seen = counts > 0
        np.testing.assert_allclose(state.means[seen], sums[seen] / counts[seen])
        np.testing.assert_array_equal(state.counts, counts.astype(int))

    @given(data=update_sequences())
    @settings(max_examples=40, deadline=None)
    def test_means_stay_in_unit_interval(self, data):
        m, num_obs, updates = data
        state = LearningState(m)
        for sellers, obs_sums in updates:
            state.update(sellers, obs_sums, num_obs)
        assert np.all(state.means >= 0.0)
        assert np.all(state.means <= 1.0 + 1e-12)

    @given(data=update_sequences(),
           coefficient=st.floats(0.1, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_ucb_dominates_mean(self, data, coefficient):
        m, num_obs, updates = data
        state = LearningState(m)
        for sellers, obs_sums in updates:
            state.update(sellers, obs_sums, num_obs)
        assert np.all(state.ucb_values(coefficient) >= state.means)

    @given(data=update_sequences())
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_identity(self, data):
        m, num_obs, updates = data
        state = LearningState(m)
        for sellers, obs_sums in updates[: len(updates) // 2]:
            state.update(sellers, obs_sums, num_obs)
        snapshot = state.snapshot()
        means_before = state.means.copy()
        for sellers, obs_sums in updates[len(updates) // 2:]:
            state.update(sellers, obs_sums, num_obs)
        state.restore(snapshot)
        np.testing.assert_array_equal(state.means, means_before)

    @given(data=update_sequences(), coefficient=st.floats(0.1, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_mirrors_equal_a_fresh_recompute(self, data, coefficient):
        # The maintained means, float counts and total must match a
        # state rebuilt from its raw snapshot, through restore and reset.
        m, num_obs, updates = data
        state = LearningState(m, prior_mean=0.5)
        half = len(updates) // 2
        for sellers, obs_sums in updates[:half]:
            state.update(sellers, obs_sums, num_obs)
        snapshot = state.snapshot()
        for sellers, obs_sums in updates[half:]:
            state.update(sellers, obs_sums, num_obs)
            state.update(np.array([], dtype=int), np.array([]), num_obs)
        for step in ("updated", "restored", "reset"):
            if step == "restored":
                state.restore(snapshot)
            elif step == "reset":
                state.reset()
            fresh = LearningState(m, prior_mean=0.5)
            fresh.restore(state.snapshot())
            counts = state.counts
            assert state.total_count == int(counts.sum())
            seen = counts > 0
            expected = np.full(m, 0.5)
            expected[seen] = state.snapshot()["sums"][seen] / counts[seen]
            np.testing.assert_array_equal(state.means, expected)
            np.testing.assert_array_equal(state.means, fresh.means)
            np.testing.assert_array_equal(state.ucb_values(coefficient),
                                          fresh.ucb_values(coefficient))


class TestSelectionProperties:
    @given(scores=st.lists(st.floats(-10.0, 10.0), min_size=1,
                           max_size=40).map(np.array),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_top_k_selects_a_maximiser_set(self, scores, data):
        k = data.draw(st.integers(1, scores.size))
        chosen = top_k_indices(scores, k)
        assert chosen.size == k
        assert np.unique(chosen).size == k
        # No unchosen score exceeds any chosen score.
        unchosen = np.setdiff1d(np.arange(scores.size), chosen)
        if unchosen.size:
            assert scores[unchosen].max() <= scores[chosen].min() + 1e-12


class TestRegretProperties:
    @given(qualities=quality_vectors, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_regret_nonnegative_and_monotone(self, qualities, data):
        k = data.draw(st.integers(1, qualities.size))
        tracker = RegretTracker(qualities, k=k, num_pois=3)
        rng = np.random.default_rng(data.draw(st.integers(0, 1_000)))
        for __ in range(10):
            selected = np.sort(
                rng.choice(qualities.size, size=k, replace=False)
            )
            tracker.record(selected)
        history = tracker.history
        assert np.all(history >= 0.0)
        assert np.all(np.diff(history) >= -1e-12)

    @given(qualities=quality_vectors, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_optimal_selection_is_zero_increment(self, qualities, data):
        k = data.draw(st.integers(1, qualities.size))
        tracker = RegretTracker(qualities, k=k, num_pois=2)
        gaps = (gap_statistics(qualities, k)
                if k < qualities.size else None)
        optimal = (gaps.optimal_set if gaps is not None
                   else np.arange(qualities.size))
        assert tracker.record(optimal) == 0.0

    @given(qualities=quality_vectors, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_bound_positive_when_gap_positive(self, qualities, data):
        k = data.draw(st.integers(1, qualities.size - 1))
        gaps = gap_statistics(qualities, k)
        bound = theorem19_bound(qualities.size, k, 5, 1_000,
                                gaps.delta_min, gaps.delta_max)
        assert bound >= 0.0
        # The bound scales as 1/delta_min^2, so it is representable in a
        # double only for non-degenerate gaps.
        if gaps.delta_min > 1e-6:
            assert np.isfinite(bound)

    @given(qualities=quality_vectors, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_delta_max_dominates_delta_min(self, qualities, data):
        k = data.draw(st.integers(1, qualities.size - 1))
        gaps = gap_statistics(qualities, k)
        assert gaps.delta_max >= gaps.delta_min - 1e-12
