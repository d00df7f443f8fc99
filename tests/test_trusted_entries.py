"""The round core's trusted entries against their public, checked twins.

Each layer has one entry that skips the checks the round core holds by
construction (DESIGN.md, "Validate at the boundary"):
``LearningState._learn``, ``QualitySampler._sample_sums`` and
``selection._top_k``.  On valid input each must leave exactly the bits
its public method leaves.  The batched Stage-1 candidate evaluation of
``_solve_round_arrays`` is checked here too, row for row against one
candidate at a time.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incentive import _solve_round_arrays
from repro.core.selection import _top_k, top_k_indices
from repro.core.state import LearningState
from repro.quality import (
    BernoulliQuality,
    BetaQuality,
    DeterministicQuality,
    DriftingQuality,
    PoiHeterogeneousQuality,
    TruncatedGaussianQuality,
    UniformQuality,
)
from repro.quality.sampler import QualitySampler


@st.composite
def learning_rounds(draw):
    """Rounds of sorted unique selections with feasible sums."""
    m = draw(st.integers(2, 24))
    num_obs = draw(st.integers(1, 6))
    rounds = []
    for __ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(1, m))
        sellers = draw(st.permutations(range(m)).map(
            lambda order: np.sort(np.array(order[:k], dtype=np.int64))))
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                  max_size=k))
        rounds.append((sellers, np.array(fractions) * num_obs))
    depth = draw(st.integers(1, m))
    return m, num_obs, depth, rounds


def _mirrors(state: LearningState) -> dict[str, object]:
    classes = state._classes
    return {
        "counts": state._counts, "sums": state._sums,
        "counts_f": state._counts_f, "means": state._means,
        "total": state._total, "in_pool": state._in_pool,
        "pool": None if classes is None else classes.pool,
    }


class TestLearn:
    @given(data=learning_rounds(), build_pool=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_learn_leaves_the_bits_update_leaves(self, data, build_pool):
        m, num_obs, depth, rounds = data
        checked, trusted = LearningState(m), LearningState(m)
        if build_pool:
            checked.count_classes(depth)
            trusted.count_classes(depth)
        for sellers, sums in rounds:
            checked.update(sellers, sums, num_obs)
            trusted._learn(sellers, sums, num_obs)
            for name, value in _mirrors(checked).items():
                other = _mirrors(trusted)[name]
                if isinstance(value, np.ndarray):
                    assert value.dtype == other.dtype, name
                    assert value.tobytes() == other.tobytes(), name
                else:
                    assert value == other, name


def _models(m: int, num_pois: int) -> dict[str, object]:
    means = np.random.default_rng(3).uniform(0.0, 1.0, m)
    means[0], means[1] = 0.0, 1.0  # point masses under Beta/Bernoulli
    return {
        "truncated": TruncatedGaussianQuality(means, sigma=0.2),
        "bernoulli": BernoulliQuality(means),
        "beta": BetaQuality(means, concentration=5.0),
        "uniform": UniformQuality(means, width=0.5),
        "deterministic": DeterministicQuality(means),
        "drifting": DriftingQuality(means, amplitude=0.3, period=7.0),
        "poi_heterogeneous": PoiHeterogeneousQuality(means, num_pois),
    }


class TestSampleSums:
    @pytest.mark.parametrize("name", sorted(_models(2, 1)))
    def test_trusted_sums_match_sample_round(self, name):
        m, num_pois = 30, 6
        checked = QualitySampler(_models(m, num_pois)[name], num_pois,
                                 np.random.default_rng(11))
        trusted = QualitySampler(_models(m, num_pois)[name], num_pois,
                                 np.random.default_rng(11))
        picks = np.random.default_rng(5)
        for t in range(40):
            size = int(picks.integers(1, m + 1))
            sellers = np.sort(picks.choice(m, size=size, replace=False))
            expected = checked.sample_round(sellers, round_index=t).sums
            got = trusted._sample_sums(sellers, t)
            assert got.tobytes() == expected.tobytes(), (name, t)

    def test_drifting_model_follows_the_round(self):
        model = _models(10, 3)["drifting"]
        sampler = QualitySampler(model, 3, np.random.default_rng(0))
        sampler._sample_sums(np.arange(10), 42)
        assert model._round == 42


class TestTopK:
    def test_trusted_top_k_matches_public(self):
        rng = np.random.default_rng(2)
        for __ in range(300):
            size = int(rng.integers(1, 40))
            scores = np.round(rng.uniform(0.0, 1.0, size), 1)
            scores[rng.random(size) < 0.1] = np.inf
            k = int(rng.integers(1, size + 1))
            np.testing.assert_array_equal(_top_k(scores, k),
                                          top_k_indices(scores, k))


class TestBatchedStage1:
    def test_clipped_rounds_settle_one_candidate_bit_for_bit(self):
        # The (C, K) candidate batch must give each row the bits the
        # 1-D evaluation of that candidate gives, sign of zero included.
        rng = np.random.default_rng(7)
        clipped = 0
        for __ in range(2_000):
            k = int(rng.choice([1, 2, 3, 8, 9, 17, 40]))
            qualities = rng.uniform(1e-6, 1.0, k)
            cost_a = rng.uniform(0.05, 3.0, k)
            cost_b = rng.uniform(0.0, 3.0, k) * (rng.random() < 0.8)
            svc_lo = rng.uniform(0.0, 5.0)
            col_lo = rng.uniform(0.0, 2.0) if rng.random() < 0.7 else -0.0
            svc = (svc_lo, svc_lo + rng.uniform(0.01, 20.0))
            col = (col_lo, col_lo + rng.uniform(0.01, 10.0))
            tau_max = rng.uniform(0.5, 20.0) if rng.random() < 0.7 else math.inf
            service, collection, taus, interior = _solve_round_arrays(
                qualities, cost_a, cost_b, rng.uniform(0.001, 0.5),
                rng.uniform(0.0, 2.0), rng.uniform(1.0, 200.0), svc, col,
                tau_max, False)
            if interior:
                continue
            clipped += 1
            inv = 1.0 / (2.0 * qualities * cost_a)
            one = np.clip((collection - qualities * cost_b) * inv, 0.0,
                          tau_max)
            assert taus.tobytes() == one.tobytes()
            assert svc[0] <= service <= svc[1]
        assert clipped > 1_000
