"""Pins the checkpoint format both drivers write.

Two tiny checkpoints are checked in under ``data/``:

* ``checkpoint_engine.npz`` — a faulty :class:`TradingSimulator` run
  (M=12, Thompson sampling, dropout/corruption/stall faults) cut by a
  graceful shutdown before round 10 of 20;
* ``checkpoint_runtime.npz`` — a churning :class:`MarketRuntime`
  (M=12) cut before round 15 of 30.

Each must resume to :class:`RunMetrics` (and, for the runtime, a trade
ledger) bit-identical to an uninterrupted run, and a checkpoint written
today at the same cut must carry the same metadata keys and values and
the same array names, dtypes and contents.  So any change to the codec
that moves a key, a dtype or a value, or that stops reading an older
file, fails here.

Regenerate the fixtures (only for a deliberate format change) with::

    PYTHONPATH=src python tests/test_checkpoint_format.py
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.bandits import ThompsonSamplingPolicy, UCBPolicy
from repro.exceptions import GracefulShutdownInterrupt
from repro.faults import FaultSpec
from repro.resilience import ScheduledAbort
from repro.runtime import ChurnSpec, MarketRuntime
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim.persistence import load_checkpoint
from repro.sim.results import SERIES_FIELDS

DATA = Path(__file__).parent / "data"
ENGINE_FIXTURE = DATA / "checkpoint_engine.npz"
RUNTIME_FIXTURE = DATA / "checkpoint_runtime.npz"

ENGINE_CONFIG = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                                 num_rounds=20, seed=5)
ENGINE_FAULTS = FaultSpec(dropout_rate=0.2, corruption_rate=0.1,
                          stall_rate=0.05)
ENGINE_CUT = 10

RUNTIME_CONFIG = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                                  num_rounds=30, seed=7)
RUNTIME_CHURN = ChurnSpec(arrival_rate=0.3, departure_rate=0.15, min_online=2)
RUNTIME_CUT = 15


def engine_run(path: Path | None = None, *, cut: bool = False,
               resume: bool = False):
    simulator = TradingSimulator(ENGINE_CONFIG)
    return simulator.run(
        ThompsonSamplingPolicy(),
        fault_model=simulator.fault_model(ENGINE_FAULTS),
        checkpoint_path=path, resume=resume,
        shutdown=ScheduledAbort([ENGINE_CUT]) if cut else None,
    )


def runtime(**kwargs) -> MarketRuntime:
    return MarketRuntime(RUNTIME_CONFIG, UCBPolicy(), churn=RUNTIME_CHURN,
                         **kwargs)


def write_engine_checkpoint(path: Path) -> None:
    with pytest.raises(GracefulShutdownInterrupt):
        engine_run(path, cut=True)


def write_runtime_checkpoint(path: Path) -> None:
    with pytest.raises(GracefulShutdownInterrupt):
        runtime().run(shutdown=ScheduledAbort([RUNTIME_CUT]),
                      checkpoint_path=path)


def assert_metrics_identical(expected, actual) -> None:
    assert expected.policy_name == actual.policy_name
    for field in SERIES_FIELDS:
        np.testing.assert_array_equal(getattr(actual, field),
                                      getattr(expected, field),
                                      err_msg=field)


def assert_same_format(fixture: Path, written: Path) -> None:
    fixture_meta, fixture_arrays = load_checkpoint(fixture)
    meta, arrays = load_checkpoint(written)
    assert set(meta) == set(fixture_meta)
    assert meta == fixture_meta
    assert set(arrays) == set(fixture_arrays)
    for name, array in fixture_arrays.items():
        assert arrays[name].dtype == array.dtype, name
        np.testing.assert_array_equal(arrays[name], array, err_msg=name)


def test_engine_fixture_resumes_bit_identical(tmp_path):
    path = tmp_path / "engine.npz"
    shutil.copyfile(ENGINE_FIXTURE, path)
    assert_metrics_identical(engine_run(),
                             engine_run(path, resume=True))


def test_runtime_fixture_resumes_bit_identical(tmp_path):
    path = tmp_path / "runtime.npz"
    shutil.copyfile(RUNTIME_FIXTURE, path)
    straight = runtime()
    expected = straight.run()
    resumed = runtime()
    actual = resumed.run(checkpoint_path=path, resume=True)
    assert_metrics_identical(expected, actual)
    assert resumed.ledger.digest() == straight.ledger.digest()


def test_engine_writes_the_pinned_format(tmp_path):
    path = tmp_path / "engine.npz"
    write_engine_checkpoint(path)
    assert_same_format(ENGINE_FIXTURE, path)


def test_runtime_writes_the_pinned_format(tmp_path):
    path = tmp_path / "runtime.npz"
    write_runtime_checkpoint(path)
    assert_same_format(RUNTIME_FIXTURE, path)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    write_engine_checkpoint(ENGINE_FIXTURE)
    write_runtime_checkpoint(RUNTIME_FIXTURE)
    print(f"wrote {ENGINE_FIXTURE} and {RUNTIME_FIXTURE}")
