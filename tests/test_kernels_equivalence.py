"""Kernels-vs-reference tests for the round loop and :mod:`repro.kernels`.

The kernels contract (DESIGN.md §15) is **bit-identity** for the
learning state, UCB indices, top-K, the estimation error, and whole-run
metric series: each kernel must be indistinguishable from the naive
reference kept in :mod:`repro.verify.kernels`, not merely close.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bandits.policies
import repro.sim.rounds
import repro.sim.runcore
from repro.bandits.policies import UCBPolicy
from repro.core.selection import top_k_indices
from repro.core.state import LearningState
from repro.exceptions import ConfigurationError, SelectionError
from repro.faults.model import FaultSpec
from repro.kernels.selection import estimation_error
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator
from repro.sim.results import SERIES_FIELDS
from repro.sim.rounds import PRIOR_MEAN, estimation_error_scalar
from repro.verify.kernels import (
    reference_means,
    reference_top_k,
    reference_ucb,
)


@st.composite
def state_histories(draw):
    """A seller count, K, and a random feasible update sequence."""
    m = draw(st.integers(2, 25))
    k = draw(st.integers(1, m))
    num_updates = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    updates = []
    for __ in range(num_updates):
        size = int(rng.integers(1, m + 1))
        sellers = np.sort(rng.choice(m, size=size, replace=False))
        num_obs = int(rng.integers(1, 6))
        sums = rng.uniform(0.0, 1.0, size) * num_obs
        updates.append((sellers, sums, num_obs))
    return m, k, updates


class TestSelectionKernels:
    @given(state_histories())
    @settings(max_examples=60, deadline=None)
    def test_state_and_ucb_bit_identical(self, history):
        m, k, updates = history
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        counts = np.zeros(m, dtype=np.int64)
        sums = np.zeros(m)
        coefficient = float(k + 1)
        for sellers, observed, num_obs in updates:
            state.update(sellers, observed, num_obs)
            counts[sellers] += num_obs
            sums[sellers] += observed
            assert state.total_count == int(counts.sum())
            np.testing.assert_array_equal(
                state.means, reference_means(counts, sums, PRIOR_MEAN))
            reference = reference_ucb(counts, sums, PRIOR_MEAN, coefficient)
            np.testing.assert_array_equal(state.ucb_values(coefficient),
                                          reference)
            np.testing.assert_array_equal(
                top_k_indices(state.ucb_values(coefficient), k),
                reference_top_k(reference, k),
            )

    @given(st.integers(2, 40), st.integers(0, 2**16), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_partition_matches_argsort_on_quantized_scores(
            self, m, seed, levels):
        # Coarse quantization forces massive ties — the regime where a
        # naive argpartition diverges from stable tie-breaking.
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels + 1, m).astype(float)
        for k in range(1, m + 1):
            np.testing.assert_array_equal(top_k_indices(scores, k),
                                          reference_top_k(scores, k))

    def test_partition_tie_breaks_by_ascending_index(self):
        scores = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 2])

    def test_partition_all_equal_scores(self):
        scores = np.full(7, 3.25)
        np.testing.assert_array_equal(top_k_indices(scores, 3),
                                      [0, 1, 2])

    def test_partition_infinite_scores_first(self):
        scores = np.array([0.1, np.inf, 0.2, np.inf, 0.3])
        np.testing.assert_array_equal(top_k_indices(scores, 3),
                                      [1, 3, 4])

    def test_partition_k_equals_m_is_arange(self):
        scores = np.array([0.3, 0.1, 0.2])
        np.testing.assert_array_equal(top_k_indices(scores, 3),
                                      np.arange(3))

    def test_partition_nan_delegates_to_reference(self):
        for scores in (np.array([0.5, np.nan, 0.9, 0.1]),
                       np.array([1.0, 2.0, np.nan]),
                       np.array([np.nan, np.nan, 0.2, 0.7])):
            for k in range(1, scores.size + 1):
                np.testing.assert_array_equal(top_k_indices(scores, k),
                                              reference_top_k(scores, k))

    def test_partition_rejects_bad_k(self):
        with pytest.raises(SelectionError):
            top_k_indices(np.array([1.0, 2.0]), 3)
        with pytest.raises(SelectionError):
            top_k_indices(np.array([1.0, 2.0]), 0)

    def test_ucb_scores_unseen_and_cold_start(self):
        state = LearningState(3, prior_mean=PRIOR_MEAN)
        state.update(np.array([1]), np.array([0.7]), 1)
        # total <= 1: every seller must be forced into exploration.
        assert np.all(np.isinf(state.ucb_values(3.0)))
        state.update(np.array([1, 2]), np.array([1.4, 1.2]), 2)
        # Unseen seller keeps an infinite index afterwards.
        scores = state.ucb_values(3.0)
        assert math.isinf(scores[0])
        assert np.all(np.isfinite(scores[1:]))

    def test_ucb_scores_rejects_bad_coefficient(self):
        state = LearningState(3)
        with pytest.raises(ConfigurationError, match="coefficient"):
            state.ucb_values(0.0)
        with pytest.raises(ConfigurationError, match="coefficient"):
            state.exploration_bonuses(-1.0)

    def test_estimation_error_matches_scalar_expression(self):
        rng = np.random.default_rng(3)
        means = rng.uniform(0.0, 1.0, 50)
        truth = rng.uniform(0.1, 1.0, 50)
        abs_error = np.abs(means - truth)
        # Only the touched sellers' means moved since the vector was built.
        touched = np.array([2, 7, 31])
        means[touched] = rng.uniform(0.0, 1.0, touched.size)
        assert estimation_error(means, truth, abs_error, touched) \
            == estimation_error_scalar(means, truth)
        np.testing.assert_array_equal(abs_error, np.abs(means - truth))

    def test_vector_state_snapshot_restore_round_trip(self):
        rng = np.random.default_rng(7)
        state = LearningState(9, prior_mean=PRIOR_MEAN)
        state.update(np.arange(5), rng.uniform(0.0, 3.0, 5), 3)
        snapshot = state.snapshot()
        restored = LearningState(9, prior_mean=PRIOR_MEAN)
        restored.restore(snapshot)
        np.testing.assert_array_equal(state.means, restored.means)
        np.testing.assert_array_equal(state.ucb_values(4.0),
                                      restored.ucb_values(4.0))
        assert state.total_count == restored.total_count


class ReferenceLearningState(LearningState):
    """A learning state whose every read is a from-scratch reference.

    It keeps the parent's private mirrors and pool, so a reference run
    must also select without them: see :func:`reference_select`.
    """

    def _raw(self):
        snapshot = self.snapshot()
        return snapshot["counts"], snapshot["sums"]

    @property
    def total_count(self) -> int:
        return int(self._raw()[0].sum())

    @property
    def means(self) -> np.ndarray:
        return reference_means(*self._raw(), PRIOR_MEAN)

    def ucb_values(self, coefficient: float) -> np.ndarray:
        return reference_ucb(*self._raw(), PRIOR_MEAN, coefficient)


def reference_select(policy, round_index, state, rng, online=None):
    """:meth:`UCBPolicy.select` as ``reference_top_k(reference_ucb(...))``.

    Eq. 19 over every seller from the raw counts and sums, offline
    sellers masked to ``-inf``: no pool, no mirror, no bound.
    """
    if round_index == 0 and policy._initial_full_exploration:
        if online is None:
            return np.arange(policy.num_sellers)
        return np.flatnonzero(online)
    raw = state.snapshot()
    scores = reference_ucb(raw["counts"], raw["sums"], PRIOR_MEAN,
                           policy.exploration_coefficient)
    k = policy.k
    if online is not None:
        scores[~online] = -np.inf
        k = min(k, int(np.count_nonzero(online)))
    return reference_top_k(scores, k)


@pytest.fixture
def on_references(monkeypatch):
    """Swap every round-loop kernel for its naive reference."""

    def install():
        # Every driver builds its learning state in the run core.
        monkeypatch.setattr(repro.sim.runcore, "LearningState",
                            ReferenceLearningState)
        monkeypatch.setattr(repro.bandits.policies, "top_k_indices",
                            reference_top_k)
        monkeypatch.setattr(UCBPolicy, "select", reference_select)
        monkeypatch.setattr(
            repro.sim.rounds, "_estimation_error",
            lambda means, truth, abs_error, touched:
                estimation_error_scalar(means, truth),
        )

    return install


def _run(*, m, k, seed, num_rounds=80, fault=None):
    config = SimulationConfig(num_sellers=m, num_selected=k, num_pois=4,
                              num_rounds=num_rounds, seed=seed)
    simulator = TradingSimulator(config)
    fault_model = (simulator.fault_model(fault)
                   if fault is not None else None)
    return simulator.run(UCBPolicy(), fault_model=fault_model)


class TestEngineDifferential:
    """Whole runs on the kernels vs the same runs on the references."""

    @pytest.mark.parametrize("m,k", [(12, 3), (20, 4), (6, 6), (9, 1),
                                     (120, 2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_clean_runs_bit_identical(self, m, k, seed, on_references):
        fast = _run(m=m, k=k, seed=seed)
        on_references()
        reference = _run(m=m, k=k, seed=seed)
        for field in SERIES_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(fast, field)),
                np.asarray(getattr(reference, field)), err_msg=field)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_faulty_runs_bit_identical(self, seed, on_references):
        fault = FaultSpec(dropout_rate=0.15, corruption_rate=0.05,
                          stall_rate=0.02)
        fast = _run(m=15, k=3, seed=seed, fault=fault)
        on_references()
        reference = _run(m=15, k=3, seed=seed, fault=fault)
        for field in SERIES_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(getattr(fast, field)),
                np.asarray(getattr(reference, field)), err_msg=field)

    def test_reference_run_never_reads_the_pool(self, on_references,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the reference run read the selection pool")

        on_references()
        monkeypatch.setattr(LearningState, "count_classes", refuse)
        monkeypatch.setattr(LearningState, "ucb_at", refuse)
        _run(m=30, k=3, seed=0, num_rounds=20)

    def test_runtime_churn_ledger_digest_identical(self, on_references):
        from repro.verify import RUNTIME_GOLDEN_CASE

        fast = RUNTIME_GOLDEN_CASE.compute()
        on_references()
        reference = RUNTIME_GOLDEN_CASE.compute()
        assert fast["ledger_digest"] == reference["ledger_digest"]
        assert fast["sessions_opened"] == reference["sessions_opened"]
        assert fast["messages_delivered"] == reference["messages_delivered"]


class TestKernelsVerifySection:
    def test_check_kernels_passes(self):
        from repro.verify.kernels import check_kernels

        checks = check_kernels(seed=0)
        assert all(c.passed for c in checks), [c.describe() for c in checks]
        assert {c.name for c in checks} == {
            "state-reference", "mutation-canary",
        }

    def test_mutation_canary_detects_kernel_defect(self):
        # The canary inverts the oracle: a 1% bonus inflation must FAIL
        # the state leg, or the reference oracle has no power.
        from repro.core import state
        from repro.verify.kernels import check_state_kernels

        original = state._MUTATION_SCALE
        try:
            state._MUTATION_SCALE = 1.01
            assert not check_state_kernels(seed=0, trials=10).passed
        finally:
            state._MUTATION_SCALE = original

    def test_runner_accepts_kernels_section(self):
        from repro.verify.runner import SECTIONS, run_verification

        assert "kernels" in SECTIONS
        report = run_verification(sections=("kernels",))
        assert "kernels" in report.sections
        assert report.passed
        assert list(report.sections) == ["kernels"]
        payload = report.to_dict()
        assert payload["kernels"]["passed"]
        assert "kernels: PASS" in report.to_text()
