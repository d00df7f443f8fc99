"""Characterisation of :class:`CMABHSMechanism` across nine configurations.

Each configuration's run is reduced to one SHA-256 digest over every
output of Algorithm 1 (selections, participants, prices, sensing times,
seller and platform profits, realized totals, estimates, final
means/counts, regret history, and the fault-log columns) plus the
per-round consumer profits.  The expected values in
``data/mechanism_characterisation.json`` pin the mechanism's behaviour
bit for bit, so any change to the round logic that moves an output
fails here.  Consumer profit alone is compared at ``rel=1e-12``: it is
the one output whose last bit depends on which ``log1p`` evaluates it.

Regenerate the fixture (only for a deliberate behaviour change) with::

    PYTHONPATH=src python tests/test_mechanism_characterisation.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.mechanism import CMABHSMechanism, TradingResult
from repro.entities.consumer import Consumer
from repro.entities.job import Job
from repro.entities.platform import Platform
from repro.entities.seller import SellerPopulation
from repro.experiments.illustrative import build_example_mechanism
from repro.faults import FaultLog, FaultModel, FaultSpec
from repro.quality.distributions import DeterministicQuality
from repro.sim.rng import RngFactory

FIXTURE = Path(__file__).parent / "data" / "mechanism_characterisation.json"


def _mechanism(m: int = 30, k: int = 5, rounds: int = 40, *,
               noise_free: bool = False, **kwargs) -> CMABHSMechanism:
    population = SellerPopulation.random(m, np.random.default_rng(11))
    model = (DeterministicQuality(population.expected_qualities)
             if noise_free else None)
    return CMABHSMechanism(
        population, Job.simple(num_pois=5, num_rounds=rounds),
        Platform.default(price_max=50.0), Consumer.default(), k=k,
        quality_model=model, seed=3, **kwargs,
    )


def _faulty(dropout: float) -> tuple[CMABHSMechanism, FaultModel]:
    spec = FaultSpec(dropout_rate=dropout, corruption_rate=0.1,
                     stall_rate=0.05)
    return _mechanism(), FaultModel(spec, RngFactory(5), 30)


def _run(name: str) -> tuple[TradingResult, FaultLog | None]:
    if name.startswith("example_seed"):
        return build_example_mechanism(int(name[-1])).run(), None
    if name.startswith("dropout_"):
        mechanism, model = _faulty(float(name[len("dropout_"):]))
        log = FaultLog()
        return mechanism.run(fault_model=model, fault_log=log), log
    mechanism = {
        "m30_k5": lambda: _mechanism(),
        "tau0_0.3": lambda: _mechanism(initial_sensing_time=0.3),
        "k_equals_m": lambda: _mechanism(m=6, k=6),
        "noise_free": lambda: _mechanism(noise_free=True),
    }[name]()
    return mechanism.run(), None


CONFIGURATIONS = (
    "example_seed0", "example_seed1", "example_seed2", "m30_k5",
    "tau0_0.3", "k_equals_m", "noise_free", "dropout_0.3", "dropout_0.8",
)


def characterise(name: str) -> tuple[str, list[float]]:
    """``(digest of every bit-exact output, consumer profits)``."""
    result, log = _run(name)
    digest = hashlib.sha256()

    def feed(value) -> None:
        array = np.ascontiguousarray(value)
        digest.update(str(array.dtype).encode())
        digest.update(np.int64(array.size).tobytes())
        digest.update(array.tobytes())

    for outcome in result.rounds:
        feed(np.int64(outcome.round_index))
        feed(np.asarray(outcome.selected, dtype=np.int64))
        feed(np.int8(outcome.participants is None))
        feed(np.asarray(outcome.active, dtype=np.int64))
        feed(np.array([outcome.service_price, outcome.collection_price,
                       outcome.platform_profit,
                       outcome.observed_quality_total,
                       outcome.mean_estimated_quality], dtype=np.float64))
        feed(np.asarray(outcome.sensing_times, dtype=np.float64))
        feed(np.asarray(outcome.seller_profits, dtype=np.float64))
        feed(np.asarray(outcome.estimated_qualities, dtype=np.float64))
    feed(result.final_means)
    feed(np.asarray(result.final_counts, dtype=np.int64))
    feed(np.float64(result.cumulative_regret))
    feed(result.regret_history)
    if log is not None:
        columns = log.to_arrays()
        for key in ("rounds", "kinds", "sellers"):
            feed(columns[key])
        # Corruption values may be NaN; compare them as NaN, not by
        # their payload bits.
        values = columns["values"]
        feed(np.isnan(values))
        feed(np.where(np.isnan(values), 0.0, values))
    profits = [float(r.consumer_profit) for r in result.rounds]
    return digest.hexdigest(), profits


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_mechanism_outputs_unchanged(name, expected):
    digest, profits = characterise(name)
    assert digest == expected[name]["digest"]
    assert profits == pytest.approx(expected[name]["consumer_profit"],
                                    rel=1e-12)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    record = {}
    for config in CONFIGURATIONS:
        config_digest, config_profits = characterise(config)
        record[config] = {"digest": config_digest,
                          "consumer_profit": config_profits}
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
