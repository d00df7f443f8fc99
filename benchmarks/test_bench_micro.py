"""Micro-benchmarks of the per-round hot paths.

These are proper statistical benchmarks (many iterations) of the
operations a trading round is made of — the numbers that determine how
long a 2*10^5-round paper-scale sweep takes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import record_benchmark

from repro.bandits.policies import UCBPolicy
from repro.core.incentive import solve_round_fast
from repro.core.state import LearningState
from repro.faults import FaultLog, FaultSpec
from repro.quality.distributions import TruncatedGaussianQuality
from repro.quality.sampler import QualitySampler
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator
from repro.sim.persistence import load_checkpoint, save_checkpoint

M, K, L = 300, 10, 10


@pytest.fixture(scope="module")
def round_inputs():
    rng = np.random.default_rng(0)
    return {
        "qualities": rng.uniform(0.3, 1.0, K),
        "cost_a": rng.uniform(0.1, 0.5, K),
        "cost_b": rng.uniform(0.1, 1.0, K),
    }


def test_solve_round_fast(benchmark, round_inputs):
    """Closed-form HS game solve for one round (K=10)."""
    result = benchmark(
        solve_round_fast,
        round_inputs["qualities"], round_inputs["cost_a"],
        round_inputs["cost_b"], 0.1, 1.0, 1_000.0,
        (0.0, 1_000.0), (0.0, 1_000.0),
    )
    assert result[0] > 0.0


def test_ucb_selection(benchmark):
    """UCB index computation + top-K pick over M=300 sellers."""
    state = LearningState(M)
    rng = np.random.default_rng(0)
    state.update(np.arange(M), rng.uniform(0.0, L, M), L)
    policy = UCBPolicy()
    policy.reset(M, K, 1_000)
    selected = benchmark(policy.select, 5, state, rng)
    assert selected.size == K


def test_state_update(benchmark):
    """Folding one round of observations into the learning state."""
    state = LearningState(M)
    sellers = np.arange(K)
    sums = np.random.default_rng(0).uniform(0.0, L, K)

    def update():
        state.update(sellers, sums, L)

    benchmark(update)


def test_quality_sampling(benchmark):
    """Drawing K x L truncated-Gaussian observations."""
    model = TruncatedGaussianQuality(
        np.random.default_rng(0).uniform(0.1, 1.0, M)
    )
    sampler = QualitySampler(model, L, np.random.default_rng(1))
    sellers = np.arange(K)
    observations = benchmark(sampler.sample_round, sellers)
    assert observations.per_poi.shape == (K, L)


def test_engine_round_throughput(benchmark):
    """Full engine rounds (selection + game + learning), per 500 rounds.

    With ``REPRO_BENCH_RECORD=1`` the best block also lands in the
    benchstore under ``engine.m300`` — the same name the committed
    baseline uses, so ``repro bench compare`` judges this exact
    workload.
    """
    _engine_throughput(benchmark, sellers=M, num_rounds=500,
                       bench_name="engine.m300")


def _engine_throughput(benchmark, *, sellers: int, num_rounds: int,
                       bench_name: str, bench_rounds: int = 3):
    """Time full engine rounds at scale and record a benchstore bar."""
    config = SimulationConfig(num_sellers=sellers, num_selected=K,
                              num_pois=L, num_rounds=num_rounds, seed=0)
    simulator = TradingSimulator(config)
    block_times: list[float] = []

    def run_block():
        start = time.perf_counter()
        run = simulator.run(UCBPolicy())
        block_times.append(time.perf_counter() - start)
        return run

    result = benchmark.pedantic(run_block, rounds=bench_rounds,
                                iterations=1)
    assert result.num_rounds == num_rounds
    record_benchmark(bench_name, rounds=num_rounds,
                     wall_s=min(block_times), sellers=sellers, selected=K)
    return result


def test_engine_round_throughput_m10k(benchmark):
    """Engine rounds at M=10k, where the O(M) selection pass dominates.

    With ``REPRO_BENCH_RECORD=1`` the best block lands in the benchstore
    under ``engine.m10k``; ``repro bench compare`` then gates
    regressions against the committed baseline.
    """
    _engine_throughput(benchmark, sellers=10_000, num_rounds=500,
                       bench_name="engine.m10k")


def test_engine_round_throughput_m100k(benchmark):
    """Engine rounds at M=100k — the scale headroom bar."""
    _engine_throughput(benchmark, sellers=100_000, num_rounds=120,
                       bench_name="engine.m100k", bench_rounds=2)


def test_checkpoint_round_trip_m20k(benchmark, tmp_path):
    """``save_checkpoint`` + ``load_checkpoint`` of a faulty M=20k run.

    The payload is the engine checkpoint of a 400-round faulty CMAB-HS
    run at M=20,000 (three length-M vectors, the per-round series and
    ~6k fault-log events) — the file the repository benchmark's
    ``faults_resume`` workload rewrites every 10 rounds.  With
    ``REPRO_BENCH_RECORD=1`` the best block lands in the benchstore
    under ``checkpoint.m20k``, one "round" per write + read.
    """
    sellers, writes_per_block = 20_000, 20
    config = SimulationConfig(num_sellers=sellers, num_selected=K,
                              num_pois=L, num_rounds=401, seed=0)
    simulator = TradingSimulator(config)
    source = tmp_path / "source.npz"
    simulator.run(
        UCBPolicy(),
        fault_model=simulator.fault_model(FaultSpec(
            dropout_rate=0.1, corruption_rate=0.05, stall_rate=0.05)),
        fault_log=FaultLog(), checkpoint_path=source, checkpoint_every=400,
    )
    meta, arrays = load_checkpoint(source)
    assert arrays["faultlog_rounds"].size > 5_000
    path = tmp_path / "bench.npz"
    block_times: list[float] = []

    def write_and_read_block():
        start = time.perf_counter()
        for _ in range(writes_per_block):
            save_checkpoint(path, meta, arrays)
            loaded = load_checkpoint(path)
        block_times.append(time.perf_counter() - start)
        return loaded

    loaded_meta, loaded_arrays = benchmark.pedantic(
        write_and_read_block, rounds=3, iterations=1)
    assert loaded_meta == meta
    np.testing.assert_array_equal(loaded_arrays["state_sums"],
                                  arrays["state_sums"])
    record_benchmark("checkpoint.m20k", rounds=writes_per_block,
                     wall_s=min(block_times), sellers=sellers, selected=K)
