"""Integration tests: resilience runtime wired through engine/replication/executor.

Covers the recovery paths end-to-end: graceful shutdown at round and
seed boundaries with bit-identical resume, checkpoint quarantine and
generation rollback, watchdog stall kills in the worker pool, and the
OS-signal drain exercised against a real subprocess.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.bandits.policies import UCBPolicy
from repro.exceptions import GracefulShutdownInterrupt
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.parallel import ParallelExecutor
from repro.parallel.worker import (
    CRASH_MARKER_ENV,
    CRASH_TASK_ENV,
    STALL_MARKER_ENV,
    STALL_TASK_ENV,
)
from repro.resilience import ResiliencePolicy, ScheduledAbort, WatchdogConfig
from repro.resilience.chaos import _tamper
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim.persistence import load_checkpoint, save_checkpoint
from repro.sim.replication import replicate_comparison
from repro.sim.rng import seeded_generator
from repro.sim.results import SERIES_FIELDS
from repro.verify import check_recovery_equivalence

CONFIG = SimulationConfig(num_sellers=10, num_selected=3, num_rounds=40,
                          seed=2)


def assert_runs_identical(reference, resumed):
    for field in SERIES_FIELDS:
        np.testing.assert_array_equal(
            getattr(reference, field), getattr(resumed, field),
            err_msg=field,
        )


def factory(qualities):
    return [UCBPolicy()]


class TestEngineShutdown:
    def test_scheduled_abort_writes_resumable_checkpoint(self, tmp_path):
        path = tmp_path / "run.npz"
        reference = TradingSimulator(CONFIG).run(UCBPolicy())

        sink = RingBufferSink()
        with pytest.raises(GracefulShutdownInterrupt) as info:
            TradingSimulator(CONFIG).run(
                UCBPolicy(), checkpoint_path=path,
                shutdown=ScheduledAbort([20]), tracer=Tracer(sink),
            )
        assert info.value.checkpoint_path == str(path)
        assert path.exists()
        events = [e for e in sink.events if e.kind == "graceful_shutdown"]
        assert len(events) == 1
        assert events[0].payload["rounds_completed"] == 20

        resumed = TradingSimulator(CONFIG).run(
            UCBPolicy(), checkpoint_path=path, resume=True,
        )
        assert_runs_identical(reference, resumed)

    def test_abort_before_any_round_leaves_no_checkpoint(self, tmp_path):
        path = tmp_path / "run.npz"
        with pytest.raises(GracefulShutdownInterrupt) as info:
            TradingSimulator(CONFIG).run(
                UCBPolicy(), checkpoint_path=path,
                shutdown=ScheduledAbort([0]),
            )
        assert info.value.checkpoint_path is None
        assert not path.exists()


class TestEngineQuarantine:
    def test_corrupt_checkpoint_rolls_back_and_resumes_identically(
            self, tmp_path):
        path = tmp_path / "run.npz"
        reference = TradingSimulator(CONFIG).run(UCBPolicy())

        resilience = ResiliencePolicy(quarantine=True,
                                      checkpoint_generations=2)
        with pytest.raises(GracefulShutdownInterrupt):
            TradingSimulator(CONFIG).run(
                UCBPolicy(), checkpoint_path=path, checkpoint_every=10,
                shutdown=ScheduledAbort([30]), resilience=resilience,
            )
        # Rounds 10, 20 and the round-30 shutdown checkpoint rotated
        # through the generation chain, so a rollback target exists.
        assert os.path.exists(f"{path}.gen-1")

        path.write_bytes(b"not a checkpoint")

        sink = RingBufferSink()
        registry = MetricsRegistry()
        resumed = TradingSimulator(CONFIG).run(
            UCBPolicy(), checkpoint_path=path, resume=True,
            resilience=resilience, tracer=Tracer(sink), metrics=registry,
        )
        assert_runs_identical(reference, resumed)
        assert os.path.isdir(f"{path}.quarantine")
        assert registry.counters["resilience.checkpoints_quarantined"] == 1
        events = [e for e in sink.events
                  if e.kind == "checkpoint_quarantined"]
        assert len(events) == 1
        assert events[0].payload["path"] == str(path)
        assert f"{path}.quarantine" in events[0].payload["quarantined_to"]


class TestReplicationShutdown:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_sweep_resumes_identically(self, tmp_path, workers):
        path = tmp_path / "sweep.npz"
        reference = replicate_comparison(CONFIG, factory, num_seeds=5)

        with pytest.raises(GracefulShutdownInterrupt) as info:
            replicate_comparison(
                CONFIG, factory, num_seeds=5, workers=workers,
                checkpoint_path=path, shutdown=ScheduledAbort([2, 3, 4]),
            )
        assert info.value.checkpoint_path == str(path)
        assert path.exists()

        resumed = replicate_comparison(
            CONFIG, factory, num_seeds=5, workers=workers,
            checkpoint_path=path, resume=True,
        )
        check = check_recovery_equivalence(reference, resumed,
                                           case="interrupt")
        assert check.passed, check.detail

    def test_sweep_quarantine_rollback(self, tmp_path):
        path = tmp_path / "sweep.npz"
        reference = replicate_comparison(CONFIG, factory, num_seeds=4)

        resilience = ResiliencePolicy(quarantine=True,
                                      checkpoint_generations=2)
        with pytest.raises(GracefulShutdownInterrupt):
            replicate_comparison(
                CONFIG, factory, num_seeds=4, checkpoint_path=path,
                shutdown=ScheduledAbort([2, 3]), resilience=resilience,
            )
        path.write_bytes(b"{broken archive")

        resumed = replicate_comparison(
            CONFIG, factory, num_seeds=4, checkpoint_path=path,
            resume=True, resilience=resilience,
        )
        check = check_recovery_equivalence(reference, resumed,
                                           case="quarantine")
        assert check.passed, check.detail
        assert os.path.isdir(f"{path}.quarantine")

    @staticmethod
    def _abort_after_two_of_three(path, resilience):
        with pytest.raises(GracefulShutdownInterrupt):
            replicate_comparison(
                CONFIG, factory, num_seeds=3, checkpoint_path=path,
                shutdown=ScheduledAbort([2]), resilience=resilience,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_rolls_back_past_a_record_that_does_not_decode(
            self, tmp_path, workers):
        # The newest file loads and passes its checksum, but one seed's
        # record is malformed: the walk must judge it by the sweep's
        # decode, quarantine it, and resume from .gen-1.
        path = tmp_path / "sweep.npz"
        reference = replicate_comparison(CONFIG, factory, num_seeds=3)
        resilience = ResiliencePolicy(quarantine=True,
                                      checkpoint_generations=2)
        self._abort_after_two_of_three(path, resilience)
        meta, arrays = load_checkpoint(path)
        meta["seed_samples"]["1"] = "oops"
        save_checkpoint(path, meta, arrays)

        resumed = replicate_comparison(
            CONFIG, factory, num_seeds=3, checkpoint_path=path,
            resume=True, resilience=resilience, workers=workers,
        )
        check = check_recovery_equivalence(reference, resumed,
                                           case="undecodable")
        assert check.passed, check.detail
        assert resumed.summaries == reference.summaries
        assert (tmp_path / "sweep.npz.quarantine" / "sweep.npz").exists()

    def test_sweep_tampered_under_stale_footer_is_quarantined(
            self, tmp_path):
        path = tmp_path / "sweep.npz"
        reference = replicate_comparison(CONFIG, factory, num_seeds=3)
        resilience = ResiliencePolicy(quarantine=True,
                                      checkpoint_generations=2)
        self._abort_after_two_of_three(path, resilience)
        applied = _tamper(str(path), seeded_generator(0))
        assert not applied.get("skipped"), applied

        resumed = replicate_comparison(
            CONFIG, factory, num_seeds=3, checkpoint_path=path,
            resume=True, resilience=resilience,
        )
        assert resumed.summaries == reference.summaries
        assert (tmp_path / "sweep.npz.quarantine" / "sweep.npz").exists()


class TestRecoveryOracle:
    def test_identical_sweeps_pass_with_zero_error(self):
        first = replicate_comparison(CONFIG, factory, num_seeds=3)
        second = replicate_comparison(CONFIG, factory, num_seeds=3)
        check = check_recovery_equivalence(first, second)
        assert check.passed
        assert check.max_error == 0.0

    def test_divergent_sweeps_fail_with_detail(self):
        golden = replicate_comparison(CONFIG, factory, num_seeds=3)
        other = replicate_comparison(CONFIG, factory, num_seeds=2)
        check = check_recovery_equivalence(golden, other)
        assert not check.passed
        assert "seeds" in check.detail


def slow_square(payload, context):
    time.sleep(0.02)
    return payload * payload


class TestExecutorWatchdog:
    def test_stalled_worker_is_killed_and_task_requeued(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(STALL_TASK_ENV, "1")
        monkeypatch.setenv(STALL_MARKER_ENV, str(tmp_path / "stall.marker"))
        sink = RingBufferSink()
        registry = MetricsRegistry()
        executor = ParallelExecutor(
            slow_square, workers=2, chunk_size=1,
            # The per-task deadline is the stall detector; the generous
            # heartbeat limit keeps slow CI from tripping false kills.
            watchdog=WatchdogConfig(task_timeout_s=0.75,
                                    heartbeat_interval_s=0.1,
                                    heartbeat_timeout_s=10.0),
            tracer=Tracer(sink), metrics=registry,
        )
        results = executor.map(list(range(6)))
        assert [r.value for r in results] == [n * n for n in range(6)]
        assert os.path.exists(tmp_path / "stall.marker")
        assert registry.counters["parallel.watchdog_kills"] == 1
        kills = [e for e in sink.events if e.kind == "watchdog_kill"]
        assert len(kills) == 1
        assert kills[0].payload["reason"] == "task_deadline_exceeded"
        assert kills[0].payload["task"] == 1
        deadline_events = [e for e in sink.events
                           if e.kind == "task_deadline_exceeded"]
        assert len(deadline_events) == 1
        requeues = [e for e in sink.events if e.kind == "retry_attempt"]
        assert any(e.payload["op"] == "parallel.task-1" for e in requeues)

    def test_crash_requeue_emits_retry_attempt(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_TASK_ENV, "2")
        monkeypatch.setenv(CRASH_MARKER_ENV, str(tmp_path / "crash.marker"))
        sink = RingBufferSink()
        executor = ParallelExecutor(
            slow_square, workers=2, chunk_size=1,
            tracer=Tracer(sink),
        )
        results = executor.map(list(range(6)))
        assert [r.value for r in results] == [n * n for n in range(6)]
        requeues = [e for e in sink.events if e.kind == "retry_attempt"]
        assert [e.payload["op"] for e in requeues] == ["parallel.task-2"]
        assert requeues[0].payload["attempt"] == 1
        assert "exitcode" in requeues[0].payload["error"]


_CHILD_SCRIPT = """\
import sys

sys.path.insert(0, {src!r})

from repro.bandits.policies import UCBPolicy
from repro.exceptions import GracefulShutdownInterrupt
from repro.resilience import GracefulShutdown
from repro.sim import SimulationConfig
from repro.sim.replication import replicate_comparison

config = SimulationConfig(num_sellers=10, num_selected=3, num_rounds=40,
                          seed=2)
with GracefulShutdown() as stop:
    try:
        replicate_comparison(
            config, lambda qualities: [UCBPolicy()], num_seeds=60,
            checkpoint_path={checkpoint!r}, resume=True, shutdown=stop,
        )
    except GracefulShutdownInterrupt as interrupt:
        print("INTERRUPTED", interrupt.checkpoint_path, flush=True)
        sys.exit(42)
print("FINISHED", flush=True)
"""


class TestSignalInterrupt:
    """Satellite (d): a real OS signal interrupts a sweep mid-run.

    A subprocess runs a 60-seed sweep with :class:`GracefulShutdown`
    installed; the parent waits for the first checkpoint to land, sends
    the signal, and asserts the child drained to a resumable checkpoint
    that a fresh process finishes bit-identically.
    """

    @pytest.mark.parametrize("signum",
                             [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_to_resumable_checkpoint(self, tmp_path, signum):
        checkpoint = tmp_path / "sweep.npz"
        script = tmp_path / "child.py"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script.write_text(_CHILD_SCRIPT.format(src=src,
                                               checkpoint=str(checkpoint)))

        child = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,  # isolate from the test's signals
        )
        try:
            deadline = time.monotonic() + 60.0
            while not checkpoint.exists():
                assert child.poll() is None, child.communicate()[1]
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.01)
            child.send_signal(signum)
            stdout, stderr = child.communicate(timeout=60.0)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
                child.communicate()
        assert child.returncode == 42, (stdout, stderr)
        assert f"INTERRUPTED {checkpoint}" in stdout

        config = SimulationConfig(num_sellers=10, num_selected=3,
                                  num_rounds=40, seed=2)
        resumed = replicate_comparison(
            config, factory, num_seeds=60,
            checkpoint_path=checkpoint, resume=True,
        )
        reference = replicate_comparison(config, factory, num_seeds=60)
        check = check_recovery_equivalence(reference, resumed,
                                           case=signal.Signals(signum).name)
        assert check.passed, check.detail
