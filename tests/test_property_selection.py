"""Property tests: count-class selection equals the full-vector top-K.

:meth:`UCBPolicy.select` evaluates Eq. 19 only over the learning
state's count-class pool.  Whatever the history, its selection must be
the same set, bit for bit, as ``reference_top_k(reference_ucb(...))``
over every seller — the naive references of :mod:`repro.verify.kernels`.
The histories mix the regimes where a pool could go wrong: restores and
resets mid-history, rounds that teach only part of the selection,
means one ulp apart whose indices round equal, never-observed sellers,
offline sellers at the head of a class, K = M, and a coefficient
override.  The pool's first depth is drawn too, so shallow pools (and
with them partial classes and rebuilds) show up at small M.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bandits.policies as policies
from repro.bandits.policies import UCBPolicy
from repro.core.state import LearningState
from repro.sim.rounds import PRIOR_MEAN
from repro.verify.kernels import reference_top_k, reference_ucb

#: Means that force float ties: a few bases and their 1-ulp neighbours.
_BASES = (0.3, 0.5, 0.7, 1.0)


def _tied_means(rng: np.random.Generator, size: int) -> np.ndarray:
    base = rng.choice(_BASES, size)
    step = rng.integers(-2, 1, size)
    means = base.copy()
    for _ in range(2):
        lower = step < 0
        means[lower] = np.nextafter(means[lower], 0.0)
        step[lower] += 1
    return means


def _pool_depth(multiple):
    """Pool ``multiple * K`` sellers per class, so small M has partial ones."""
    return mock.patch.object(policies, "_pool_depth",
                             lambda k, num_sellers: multiple * k)


def _expected(counts, sums, coefficient, k, online):
    scores = reference_ucb(counts, sums, PRIOR_MEAN, coefficient)
    if online is not None:
        scores[~online] = -np.inf
        k = min(k, int(np.count_nonzero(online)))
    return reference_top_k(scores, k)


def _head_offline_mask(rng, counts, sums):
    """Take each count class's best seller offline, plus a random few."""
    online = rng.random(counts.size) < 0.8
    means = np.where(counts > 0, sums / np.maximum(counts, 1), PRIOR_MEAN)
    for count in np.unique(counts):
        members = np.flatnonzero(counts == count)
        online[members[np.argmax(means[members])]] = False
    return online


@st.composite
def histories(draw):
    m = draw(st.integers(2, 60))
    k = draw(st.one_of(st.just(m), st.integers(1, m)))
    coefficient = draw(st.sampled_from([None, 0.05, 0.7, 6.0]))
    depth = draw(st.sampled_from([1, 2, 8]))
    steps = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    return m, k, coefficient, depth, steps, seed


class TestCountClassSelection:
    @given(histories())
    @settings(max_examples=150, deadline=None)
    def test_selection_equals_full_vector_top_k(self, history):
        m, k, coefficient, depth, steps, seed = history
        rng = np.random.default_rng(seed)
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        policy = UCBPolicy(exploration_coefficient=coefficient)
        policy.reset(m, k, steps + 1)
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros(m)
        saved = (state.snapshot(), counts.copy(), sums.copy())
        with _pool_depth(depth):
            for t in range(1, steps + 1):
                action = rng.random()
                if action < 0.08:
                    state.reset()
                    counts[:] = 0
                    sums[:] = 0.0
                elif action < 0.16:
                    state.restore(saved[0])
                    counts, sums = saved[1].copy(), saved[2].copy()
                elif action < 0.3:
                    # Counts that divide exactly, with means 1 ulp
                    # apart, so mean + bonus rounds equal inside a class;
                    # some sellers stay unobserved.
                    counts = rng.choice([0, 2, 4, 8], m).astype(np.int64)
                    sums = _tied_means(rng, m) * counts
                    state.restore({"counts": counts, "sums": sums})
                    counts, sums = counts.copy(), sums.copy()
                for online in (None, _head_offline_mask(rng, counts, sums)):
                    if online is not None and not online.any():
                        continue
                    selected = policy.select(t, state, rng, online=online)
                    np.testing.assert_array_equal(
                        selected,
                        _expected(counts, sums, policy.exploration_coefficient,
                                  k, online))
                # Teach the selection, minus the sellers a fault dropped
                # or quarantined, now and then a seller outside it.
                learned = selected[rng.random(selected.size) < 0.8]
                if rng.random() < 0.3:
                    learned = np.union1d(learned, rng.choice(m, 1))
                num_observations = int(rng.integers(1, 4))
                observed = (rng.uniform(0.0, 1.0, learned.size)
                            * num_observations)
                state.update(learned, observed, num_observations)
                counts[learned] += num_observations
                sums[learned] += observed
                if rng.random() < 0.2:
                    saved = (state.snapshot(), counts.copy(), sums.copy())

    def test_partial_class_tie_at_the_cut_defers_to_lower_index(self):
        # Twelve sellers, one class, all means equal: every index ties.
        # A pool of the first K sellers is exact because every seller it
        # leaves out has a higher index than every winner.
        m, k = 12, 3
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        counts = np.full(m, 4, dtype=np.int64)
        sums = np.full(m, 2.0)
        state.restore({"counts": counts, "sums": sums})
        policy = UCBPolicy()
        policy.reset(m, k, 2)
        with _pool_depth(1):
            selected = policy.select(1, state, None)
        np.testing.assert_array_equal(selected, [0, 1, 2])

    def test_left_out_seller_one_ulp_lower_with_lower_index_wins_tie(self):
        # Sellers 0-5 sit 1 ulp below sellers 6-11 in one class, so a
        # depth-K pool holds 6-8 only; the indices round equal, and the
        # top-3 must still be the lowest indices, 0-2.
        m, k = 12, 3
        means = np.full(m, 0.5)
        means[:6] = np.nextafter(0.5, 0.0)
        counts = np.full(m, 4, dtype=np.int64)
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        state.restore({"counts": counts, "sums": means * counts})
        ucb = state.ucb_values(k + 1.0)
        assert ucb[0] == ucb[6] and means[0] < means[6]
        policy = UCBPolicy()
        policy.reset(m, k, 2)
        with _pool_depth(1):
            assert state.count_classes(k).pool.tolist() == [6, 7, 8]
            selected = policy.select(1, state, None)
        np.testing.assert_array_equal(selected, [0, 1, 2])

    def test_seller_taught_outside_the_pool_joins_it(self):
        # A left-out seller learns a high mean and moves to a new class;
        # the pool must take it in, or its class would be invisible.
        m, k = 20, 2
        rng = np.random.default_rng(4)
        counts = np.full(m, 4, dtype=np.int64)
        sums = rng.uniform(0.0, 0.4, m) * counts
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        state.restore({"counts": counts, "sums": sums})
        policy = UCBPolicy(exploration_coefficient=0.05)
        policy.reset(m, k, 3)
        # A pool deep enough that the class bound alone would pass.
        with _pool_depth(4):
            policy.select(1, state, None)
            pool = state.count_classes(4 * k).pool
            assert pool.size == 4 * k
            outsider = int(np.setdiff1d(np.arange(m), pool)[0])
            state.update([outsider], [4.0], 4)
            counts[outsider] += 4
            sums[outsider] += 4.0
            selected = policy.select(1, state, None)
        expected = _expected(counts, sums, 0.05, k, None)
        assert outsider in expected
        np.testing.assert_array_equal(selected, expected)

    def test_unobserved_class_without_full_exploration(self):
        # Round 1 of the no-exploration ablation: every index is +inf,
        # and a shallow pool of never-observed sellers still answers.
        m, k = 50, 4
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        policy = UCBPolicy(initial_full_exploration=False)
        policy.reset(m, k, 20)
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros(m)
        rng = np.random.default_rng(0)
        with _pool_depth(1):
            for t in range(20):
                selected = policy.select(t, state, rng)
                np.testing.assert_array_equal(
                    selected,
                    _expected(counts, sums, k + 1.0, k, None))
                observed = rng.uniform(0.0, 2.0, k)
                state.update(selected, observed, 2)
                counts[selected] += 2
                sums[selected] += observed
