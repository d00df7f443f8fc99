"""Engine strict mode: invariant checking without perturbing results."""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.rounds as rounds_module
from repro.bandits import RandomPolicy, UCBPolicy
from repro.exceptions import InvariantViolationError
from repro.faults import FaultSpec
from repro.obs import RingBufferSink, Tracer
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim.results import SERIES_FIELDS

CONFIG = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                          num_rounds=60, seed=11)


def run(config=CONFIG, *, policy=None, spec=None, **kwargs):
    simulator = TradingSimulator(config)
    model = simulator.fault_model(spec) if spec is not None else None
    return simulator.run(policy if policy is not None else UCBPolicy(),
                         fault_model=model, **kwargs)


def assert_runs_identical(reference, other):
    for field in SERIES_FIELDS:
        np.testing.assert_array_equal(
            getattr(reference, field), getattr(other, field), err_msg=field)


class TestStrictBitIdentity:
    def test_clean_run(self):
        assert_runs_identical(run(), run(strict=True))

    def test_faulty_run(self):
        spec = FaultSpec(dropout_rate=0.25, corruption_rate=0.1,
                         stall_rate=0.05)
        assert_runs_identical(run(spec=spec), run(spec=spec, strict=True))

    def test_k_equals_m_run(self):
        config = SimulationConfig(num_sellers=5, num_selected=5, num_pois=3,
                                  num_rounds=40, seed=3)
        assert_runs_identical(run(config), run(config, strict=True))

    def test_policy_without_ucb_values(self):
        # Policies that expose no index vector skip the top-K cross
        # check but still get every other invariant.
        assert_runs_identical(run(policy=RandomPolicy()),
                              run(policy=RandomPolicy(), strict=True))


class TestStrictCheckpointResume:
    def test_resumed_strict_run_equals_uninterrupted_default(self, tmp_path):
        """Resume replays invariant checks and stays bit-identical."""
        path = tmp_path / "strict.npz"
        reference = run()

        run(strict=True, checkpoint_path=path, checkpoint_every=15)
        assert path.exists()

        resumed = run(strict=True, checkpoint_path=path, resume=True)
        assert_runs_identical(reference, resumed)

    def test_resumed_strict_faulty_run(self, tmp_path):
        spec = FaultSpec(dropout_rate=0.2, corruption_rate=0.05)
        path = tmp_path / "strict-faulty.npz"
        reference = run(spec=spec)
        run(spec=spec, strict=True, checkpoint_path=path,
            checkpoint_every=15)
        resumed = run(spec=spec, strict=True, checkpoint_path=path,
                      resume=True)
        assert_runs_identical(reference, resumed)


class TestStrictCatchesMutations:
    def test_perturbed_collection_price_raises(self, monkeypatch):
        true_solve = rounds_module.solve_round_fast

        def perturbed(*args, **kwargs):
            p_j, p, taus = true_solve(*args, **kwargs)
            return p_j, p * 1.05 + 0.01, taus

        monkeypatch.setattr(rounds_module, "solve_round_fast", perturbed)
        # Default mode happily records the wrong equilibrium...
        run()
        # ...strict mode refuses it (which invariant fires first —
        # price feasibility or stationarity — depends on the round).
        with pytest.raises(InvariantViolationError, match="violated"):
            run(strict=True)

    def test_perturbed_sensing_times_raise(self, monkeypatch):
        true_solve = rounds_module.solve_round_fast

        def perturbed(*args, **kwargs):
            p_j, p, taus = true_solve(*args, **kwargs)
            return p_j, p, taus * 1.2 + 0.05

        monkeypatch.setattr(rounds_module, "solve_round_fast", perturbed)
        with pytest.raises(InvariantViolationError):
            run(strict=True)


class TestStrictSelectionCheck:
    def test_non_top_k_ucb_selection_is_caught(self):
        # Selection builds no full index vector; strict runs build one
        # for the cross-check, so a UCB subclass that swaps a winner
        # for a loser must still trip selection_top_k.
        class Faulty(UCBPolicy):
            def select(self, round_index, state, rng, online=None):
                selected = super().select(round_index, state, rng, online)
                if round_index != 7:
                    return selected
                loser = np.setdiff1d(np.arange(self.num_sellers),
                                     selected)[0]
                return np.sort(np.append(selected[1:], loser))

        with pytest.raises(InvariantViolationError,
                           match="selection_top_k.*round 7"):
            run(policy=Faulty(), strict=True)
        # The same policy passes when it behaves.
        run(policy=UCBPolicy(), strict=True)


class TestStrictObservability:
    def test_clean_strict_run_emits_no_violation_events(self):
        sink = RingBufferSink()
        run(strict=True, tracer=Tracer(sink))
        assert sink.of_kind("invariant_violation") == ()

    def test_compare_supports_strict(self):
        simulator = TradingSimulator(CONFIG)
        comparison = simulator.compare([UCBPolicy(), RandomPolicy()],
                                       strict=True)
        assert set(comparison.runs) == {"CMAB-HS", "random"}
