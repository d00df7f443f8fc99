"""Determinism and crash-tolerance of the parallel replication sweep.

The contract under test: ``replicate_comparison(..., workers=N)`` is
**bit-identical** to the serial sweep for any worker count, chunk size,
checkpoint/resume split, or worker-crash schedule.  Equality is asserted
on the :class:`~repro.sim.replication.MetricSummary` dataclasses
themselves (exact float comparison, no tolerance).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bandits.policies import OptimalPolicy, RandomPolicy, UCBPolicy
from repro.faults import FaultSpec
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.parallel.worker import CRASH_MARKER_ENV, CRASH_TASK_ENV
from repro.sim.config import SimulationConfig
from repro.sim.persistence import load_checkpoint, save_checkpoint
from repro.sim.replication import replicate_comparison

CONFIG = SimulationConfig(num_sellers=10, num_selected=3, num_pois=3,
                          num_rounds=40, seed=0)


def factory(qualities: np.ndarray):
    return [OptimalPolicy(qualities), UCBPolicy(), RandomPolicy()]


def keep_first_seeds(path, keep: int) -> None:
    """Emulate a crash after ``keep`` seeds: drop the later seeds' records.

    The edit goes through the checkpoint API, so the file keeps a valid
    checksum.
    """
    meta, arrays = load_checkpoint(path)
    kept = meta["completed_seeds"][:keep]
    meta["completed_seeds"] = kept
    for key in ("seed_samples", "seed_durations"):
        meta[key] = {str(seed): meta[key][str(seed)] for seed in kept}
    save_checkpoint(path, meta, arrays)


def assert_bit_identical(reference, candidate):
    """Exact equality of seeds and every per-metric summary."""
    assert candidate.seeds == reference.seeds
    assert candidate.summaries == reference.summaries


@pytest.fixture(scope="module")
def serial():
    return replicate_comparison(CONFIG, factory, num_seeds=4)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial(self, serial, workers):
        parallel = replicate_comparison(CONFIG, factory, num_seeds=4,
                                        workers=workers)
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("chunk_size", [1, 2, 4])
    def test_any_chunking_matches_serial(self, serial, chunk_size):
        parallel = replicate_comparison(CONFIG, factory, num_seeds=4,
                                        workers=2, chunk_size=chunk_size)
        assert_bit_identical(serial, parallel)

    def test_random_shard_shapes_match_serial(self, serial):
        # Property-style: a seeded sample of (workers, chunk_size)
        # shapes — every sharding of the same seeds aggregates to the
        # same floats.
        rng = random.Random(1729)
        for __ in range(3):
            workers = rng.randint(2, 6)
            chunk_size = rng.choice([None, rng.randint(1, 4)])
            parallel = replicate_comparison(
                CONFIG, factory, num_seeds=4,
                workers=workers, chunk_size=chunk_size,
            )
            assert_bit_identical(serial, parallel)

    def test_traced_parallel_matches_untraced_serial(self, serial):
        sink = RingBufferSink()
        parallel = replicate_comparison(CONFIG, factory, num_seeds=4,
                                        workers=2, tracer=Tracer(sink))
        assert_bit_identical(serial, parallel)
        kinds = [event.kind for event in sink.events]
        assert kinds.count("seed_end") == 4
        assert kinds.count("worker_task_done") == 4

    def test_faulty_parallel_matches_faulty_serial(self):
        spec = FaultSpec(dropout_rate=0.2, corruption_rate=0.05)
        reference = replicate_comparison(CONFIG, factory, num_seeds=3,
                                         fault_spec=spec)
        parallel = replicate_comparison(CONFIG, factory, num_seeds=3,
                                        fault_spec=spec, workers=3)
        assert_bit_identical(reference, parallel)

    def test_parallel_records_all_seed_durations(self):
        parallel = replicate_comparison(CONFIG, factory, num_seeds=4,
                                        workers=2)
        assert sorted(parallel.seed_durations) == parallel.seeds
        assert all(d > 0 for d in parallel.seed_durations.values())


class TestCheckpointInterop:
    def test_parallel_sweep_resumes_serial_checkpoint(self, serial,
                                                      tmp_path):
        # Crash mid-sweep serially, resume with 4 workers: identical.
        path = tmp_path / "sweep.npz"
        replicate_comparison(CONFIG, factory, num_seeds=4,
                             checkpoint_path=path)
        keep_first_seeds(path, keep=2)
        resumed = replicate_comparison(CONFIG, factory, num_seeds=4,
                                       checkpoint_path=path, resume=True,
                                       workers=4)
        assert_bit_identical(serial, resumed)

    def test_serial_sweep_resumes_parallel_checkpoint(self, serial,
                                                      tmp_path):
        path = tmp_path / "sweep.npz"
        replicate_comparison(CONFIG, factory, num_seeds=4,
                             checkpoint_path=path, workers=2)
        keep_first_seeds(path, keep=1)
        resumed = replicate_comparison(CONFIG, factory, num_seeds=4,
                                       checkpoint_path=path, resume=True)
        assert_bit_identical(serial, resumed)

    def test_resumed_durations_cover_both_halves(self, tmp_path):
        path = tmp_path / "sweep.npz"
        replicate_comparison(CONFIG, factory, num_seeds=4,
                             checkpoint_path=path, workers=2)
        keep_first_seeds(path, keep=2)
        resumed = replicate_comparison(CONFIG, factory, num_seeds=4,
                                       checkpoint_path=path, resume=True,
                                       workers=2)
        # Durations of checkpointed seeds survive the resume, so the
        # cumulative timing spans the whole sweep, not just the rerun.
        assert sorted(resumed.seed_durations) == [0, 1, 2, 3]
        assert resumed.cumulative_seed_time > 0


class TestWorkerCrashRecovery:
    def test_crashed_seed_reruns_bit_identically(self, serial, monkeypatch,
                                                 tmp_path):
        # Kill the worker holding seed index 1 mid-sweep; the re-queued
        # seed lands on a fresh worker and the sweep still matches the
        # serial reference exactly.
        monkeypatch.setenv(CRASH_TASK_ENV, "1")
        monkeypatch.setenv(CRASH_MARKER_ENV, str(tmp_path / "marker"))
        registry = MetricsRegistry()
        parallel = replicate_comparison(CONFIG, factory, num_seeds=4,
                                        workers=2, chunk_size=1,
                                        metrics=registry)
        assert_bit_identical(serial, parallel)
        assert registry.counters["parallel.worker_crashes"] == 1
        assert registry.counters["parallel.tasks_requeued"] == 1
        assert registry.counters["seeds_completed"] == 4

    def test_crash_then_resume_with_other_worker_count(self, serial,
                                                       monkeypatch,
                                                       tmp_path):
        # A crash-recovered, checkpointed parallel sweep truncated and
        # resumed serially still reproduces the serial reference.
        monkeypatch.setenv(CRASH_TASK_ENV, "2")
        monkeypatch.setenv(CRASH_MARKER_ENV, str(tmp_path / "marker"))
        path = tmp_path / "sweep.npz"
        replicate_comparison(CONFIG, factory, num_seeds=4,
                             checkpoint_path=path, workers=2,
                             chunk_size=1)
        monkeypatch.delenv(CRASH_TASK_ENV)
        keep_first_seeds(path, keep=2)
        resumed = replicate_comparison(CONFIG, factory, num_seeds=4,
                                       checkpoint_path=path, resume=True)
        assert_bit_identical(serial, resumed)
