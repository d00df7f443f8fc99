"""The run scaffolding both drivers share: restore, codec errors, profiling.

* A failed :meth:`MarketRuntime.restore` changes nothing: the runtime
  plays on bit-identically to a twin that never saw the bad file.
* Every malformed learning-core field of a checkpoint raises
  :class:`PersistenceError` naming the field and the file, on the
  engine and on the runtime alike.
* A checkpointing engine run's profile shares add up to at most the
  wall clock: the round timer stops before the checkpoint write.  So
  do a runtime run's: its selection and the shared solve count inside
  its round timer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCBPolicy
from repro.exceptions import PersistenceError
from repro.faults import FaultSpec
from repro.obs import PhaseProfiler
from repro.runtime import ChurnSpec, MarketRuntime
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim.persistence import load_checkpoint, save_checkpoint
from repro.sim.results import SERIES_FIELDS

CONFIG = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                          num_rounds=30, seed=7)
CHURN = ChurnSpec(arrival_rate=0.3, departure_rate=0.15, min_online=2)
FAULTS = FaultSpec(dropout_rate=0.2, corruption_rate=0.1, stall_rate=0.05)


def _runtime() -> MarketRuntime:
    return MarketRuntime(CONFIG, UCBPolicy(), churn=CHURN)


def _engine_run(path, **kwargs):
    simulator = TradingSimulator(CONFIG)
    return simulator.run(UCBPolicy(),
                         fault_model=simulator.fault_model(FAULTS),
                         checkpoint_path=path, **kwargs)


def _write_checkpoint(driver: str, path) -> None:
    if driver == "engine":
        _engine_run(path, checkpoint_every=12, num_rounds=20)
    else:
        runtime = _runtime()
        runtime.advance(12)
        runtime.save(path)


def _restore(driver: str, path) -> None:
    if driver == "engine":
        _engine_run(path, resume=True, num_rounds=20)
    else:
        _runtime().restore(path)


def _without_inner_state(meta: dict, arrays: dict) -> None:
    meta["observation_rng_state"] = {
        key: value for key, value in meta["observation_rng_state"].items()
        if key != "state"
    }


def _garbage_policy_rng(meta: dict, arrays: dict) -> None:
    meta["policy_rng_state"] = "garbage"


def _short(name: str):
    def corrupt(meta: dict, arrays: dict) -> None:
        arrays[name] = arrays[name][:-1]
    return corrupt


def _over_long(name: str):
    def corrupt(meta: dict, arrays: dict) -> None:
        arrays[name] = np.concatenate([arrays[name], np.zeros(25)])
    return corrupt


CORRUPTIONS = {
    "policy_rng_state": _garbage_policy_rng,
    "selection_counts": _short("selection_counts"),
    "series_realized": _over_long("series_realized"),
    "state_counts": _short("state_counts"),
    "observation_rng_state": _without_inner_state,
}


class TestMalformedCheckpointFields:
    @pytest.mark.parametrize("field", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("driver", ["engine", "runtime"])
    def test_names_the_field_and_the_file(self, tmp_path, driver, field):
        path = tmp_path / "run.npz"
        _write_checkpoint(driver, path)
        meta, arrays = load_checkpoint(path)
        CORRUPTIONS[field](meta, arrays)
        save_checkpoint(path, meta, arrays)
        with pytest.raises(PersistenceError,
                           match=f"malformed {field!r}") as excinfo:
            _restore(driver, path)
        assert excinfo.value.path == str(path)


class TestFailedRuntimeRestore:
    def test_a_failed_restore_changes_nothing(self, tmp_path):
        path = tmp_path / "runtime.npz"
        source = _runtime()
        source.advance(12)
        source.save(path)
        meta, arrays = load_checkpoint(path)
        meta["next_session"] = "x"
        save_checkpoint(path, meta, arrays)

        live, twin = _runtime(), _runtime()
        live.advance(3)
        twin.advance(3)
        counts = live.learning_state.counts.copy()
        means = live.learning_state.means.copy()
        before = live.metrics()
        digest = live.ledger.digest()
        with pytest.raises(PersistenceError, match="next_session"):
            live.restore(path)
        assert live.next_round == 3
        np.testing.assert_array_equal(live.learning_state.counts, counts)
        np.testing.assert_array_equal(live.learning_state.means, means)
        np.testing.assert_array_equal(live.metrics().regret, before.regret)
        assert live.ledger.digest() == digest
        assert len(live.ledger) == 3

        finished, expected = live.run(), twin.run()
        for field in SERIES_FIELDS:
            np.testing.assert_array_equal(getattr(finished, field),
                                          getattr(expected, field),
                                          err_msg=field)
        assert live.ledger.digest() == twin.ledger.digest()


class TestCheckpointingProfile:
    def test_shares_sum_to_at_most_one(self, tmp_path):
        config = SimulationConfig(num_sellers=2_000, num_selected=5,
                                  num_pois=4, num_rounds=40, seed=3)
        profiler = PhaseProfiler(memory="off")
        with profiler.profile():
            TradingSimulator(config).run(
                UCBPolicy(), checkpoint_path=tmp_path / "run.npz",
                checkpoint_every=1, metrics=profiler.registry,
            )
        report = profiler.report()
        names = {phase.name for phase in report.phases}
        assert {"engine.round", "persistence.save_checkpoint"} <= names
        assert sum(phase.share for phase in report.phases) <= 1.0 + 1e-9

    def test_runtime_shares_sum_to_at_most_one(self):
        config = SimulationConfig(num_sellers=2_000, num_selected=5,
                                  num_pois=4, num_rounds=40, seed=3)
        profiler = PhaseProfiler(memory="off")
        runtime = MarketRuntime(config, UCBPolicy(),
                                metrics=profiler.bind(None))
        with profiler.profile():
            runtime.run()
        report = profiler.report()
        names = {phase.name for phase in report.phases}
        assert {"engine.round", "engine.selection", "engine.solve"} <= names
        assert sum(phase.share for phase in report.phases) <= 1.0 + 1e-9
        # Every driver times selection under one name, so the runtime
        # gets the selection rate the engine does.
        assert report.rates["selections_per_s"] > 0.0
