"""Verification subsystem benchmarks: strict-mode overhead and oracle cost.

Strict mode re-derives every round's invariants (stationarity, IR,
FOCs, count conservation, a brute-force top-K cross-check), so it is
expected to cost more than a default run — these benchmarks quantify
how much, so CI budgets and ``repro verify`` defaults stay honest.
"""

from __future__ import annotations

from conftest import run_once

from repro.bandits.policies import UCBPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator
from repro.verify import GOLDEN_CASES, run_oracle_suite

_CONFIG = dict(num_sellers=100, num_selected=8, num_pois=10,
               num_rounds=400, seed=21)


def _run(strict: bool):
    simulator = TradingSimulator(SimulationConfig(**_CONFIG))
    return simulator.run(UCBPolicy(), strict=strict)


def test_engine_default(benchmark):
    """Baseline: the engine without invariant checking."""
    metrics = benchmark.pedantic(_run, args=(False,), rounds=3, iterations=1)
    assert metrics.num_rounds == _CONFIG["num_rounds"]


def test_engine_strict(benchmark):
    """The same run with every per-round invariant checked."""
    metrics = benchmark.pedantic(_run, args=(True,), rounds=3, iterations=1)
    assert metrics.num_rounds == _CONFIG["num_rounds"]


def test_oracle_suite_edge_cases(benchmark):
    """The deterministic corner-case oracles (``--oracle-cases 0``)."""
    checks = run_once(benchmark, run_oracle_suite, seed=0, num_cases=0)
    assert all(c.passed for c in checks), [
        c.describe() for c in checks if not c.passed]


def test_golden_recompute(benchmark):
    """Recomputing the cheapest checked-in golden case."""
    case = min(GOLDEN_CASES, key=lambda c: c.num_rounds * c.num_sellers)
    payload = run_once(benchmark, case.compute)
    assert payload["case"]["name"] == case.name
