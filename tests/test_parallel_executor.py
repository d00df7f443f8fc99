"""Unit tests for the crash-tolerant process-pool executor."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, ParallelExecutionError
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.parallel import (
    ParallelExecutor,
    TaskSpec,
    default_worker_count,
    resolve_chunk_size,
)
from repro.parallel.worker import (
    CRASH_EXIT_CODE,
    CRASH_MARKER_ENV,
    CRASH_TASK_ENV,
)


def square(payload, context):
    return payload * payload


def square_with_telemetry(payload, context):
    context.metrics.counter("squares").inc()
    context.metrics.timer("square").observe(0.001)
    context.tracer.emit("profits", round_index=payload, value=payload)
    return payload * payload


def explode_on_three(payload, context):
    if payload == 3:
        raise ValueError("payload three is cursed")
    return payload


class TestTaskTypes:
    def test_task_spec_is_frozen(self):
        spec = TaskSpec(task_id=0, payload="x")
        with pytest.raises(AttributeError):
            spec.task_id = 1


class TestParameters:
    def test_default_worker_count_at_least_one(self):
        assert default_worker_count() >= 1

    def test_resolve_chunk_size_balances(self):
        # ~4 chunks per worker, never below 1.
        assert resolve_chunk_size(32, 4, None) == 2
        assert resolve_chunk_size(3, 4, None) == 1
        assert resolve_chunk_size(100, 2, 7) == 7

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            resolve_chunk_size(10, 2, 0)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ParallelExecutor(square, workers=2, chunk_size=-1)

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ParallelExecutor(square, workers=0)

    def test_rejects_bad_retries(self):
        with pytest.raises(ConfigurationError, match="max_task_retries"):
            ParallelExecutor(square, workers=1, max_task_retries=-1)


class TestExecution:
    def test_map_preserves_submission_order(self):
        executor = ParallelExecutor(square, workers=2)
        results = executor.map(list(range(10)))
        assert [r.task_id for r in results] == list(range(10))
        assert [r.value for r in results] == [n * n for n in range(10)]

    def test_map_empty(self):
        assert ParallelExecutor(square, workers=2).map([]) == []

    def test_as_completed_covers_every_task(self):
        executor = ParallelExecutor(square, workers=3, chunk_size=1)
        seen = {r.task_id: r.value for r in executor.as_completed([5, 6, 7])}
        assert seen == {0: 25, 1: 36, 2: 49}

    def test_results_carry_worker_and_duration(self):
        executor = ParallelExecutor(square, workers=2)
        for result in executor.map([1, 2, 3]):
            assert result.worker_id >= 0
            assert result.duration_s >= 0.0
            assert result.attempts == 1

    def test_more_workers_than_tasks(self):
        executor = ParallelExecutor(square, workers=8)
        assert [r.value for r in executor.map([4])] == [16]

    def test_runner_exception_fails_fast_with_traceback(self):
        executor = ParallelExecutor(explode_on_three, workers=2,
                                    chunk_size=1)
        with pytest.raises(ParallelExecutionError) as excinfo:
            executor.map(list(range(6)))
        message = str(excinfo.value)
        assert "payload three is cursed" in message
        assert "Traceback" in message

    def test_closure_runner_works_under_fork(self):
        offset = 100

        def add_offset(payload, context):
            return payload + offset

        executor = ParallelExecutor(add_offset, workers=2)
        assert [r.value for r in executor.map([1, 2])] == [101, 102]


class TestTelemetryMerge:
    def test_worker_metrics_merge_into_coordinator(self):
        registry = MetricsRegistry()
        executor = ParallelExecutor(square_with_telemetry, workers=2,
                                    metrics=registry)
        executor.map(list(range(8)))
        assert registry.counters["squares"] == 8
        assert registry.counters["parallel.tasks_completed"] == 8
        assert registry.counters["parallel.workers_started"] == 2
        assert registry.timer("square").count == 8
        assert registry.timer("parallel.task").count == 8

    def test_worker_events_replay_tagged_into_parent_tracer(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        executor = ParallelExecutor(square_with_telemetry, workers=2,
                                    tracer=tracer)
        executor.map(list(range(4)))
        kinds = [event.kind for event in sink.events]
        assert kinds.count("worker_started") == 2
        assert kinds.count("worker_task_done") == 4
        replayed = [e for e in sink.events if e.kind == "profits"]
        assert len(replayed) == 4
        assert all("worker" in e.payload for e in replayed)

    def test_untraced_run_ships_no_events(self):
        executor = ParallelExecutor(square_with_telemetry, workers=2)
        for result in executor.map(list(range(4))):
            assert result.events == ()


class TestCrashTolerance:
    def _crash_env(self, monkeypatch, tmp_path, task_id):
        monkeypatch.setenv(CRASH_TASK_ENV, str(task_id))
        monkeypatch.setenv(CRASH_MARKER_ENV,
                           str(tmp_path / "crash.marker"))

    def test_crashed_task_is_requeued_and_completes(self, monkeypatch,
                                                    tmp_path):
        self._crash_env(monkeypatch, tmp_path, task_id=2)
        registry = MetricsRegistry()
        sink = RingBufferSink()
        executor = ParallelExecutor(square, workers=2, chunk_size=1,
                                    metrics=registry, tracer=Tracer(sink))
        results = executor.map(list(range(6)))
        assert [r.value for r in results] == [n * n for n in range(6)]
        assert results[2].attempts == 2
        assert registry.counters["parallel.worker_crashes"] == 1
        assert registry.counters["parallel.tasks_requeued"] == 1
        # The replacement worker is a fresh process with a fresh id.
        assert registry.counters["parallel.workers_started"] == 3
        crashes = [e for e in sink.events if e.kind == "worker_crashed"]
        assert len(crashes) == 1
        assert crashes[0].payload["exitcode"] == CRASH_EXIT_CODE
        assert crashes[0].payload["lost_tasks"] == [2]

    def test_crash_mid_chunk_requeues_unfinished_tasks_only(
            self, monkeypatch, tmp_path):
        # One worker, one chunk of 4: tasks 0-1 finish, the crash on
        # task 2 loses tasks 2-3, and both complete on the replacement.
        self._crash_env(monkeypatch, tmp_path, task_id=2)
        registry = MetricsRegistry()
        executor = ParallelExecutor(square, workers=1, chunk_size=4,
                                    metrics=registry)
        results = executor.map(list(range(4)))
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert registry.counters["parallel.tasks_requeued"] == 2
        assert results[0].attempts == 1
        assert results[2].attempts == 2
        # Task 3 never *started* before the crash, so its replacement
        # run is its first attempt.
        assert results[3].attempts == 1

    def test_retry_budget_exhaustion_raises(self, monkeypatch, tmp_path):
        self._crash_env(monkeypatch, tmp_path, task_id=1)
        executor = ParallelExecutor(square, workers=1, chunk_size=1,
                                    max_task_retries=0)
        with pytest.raises(ParallelExecutionError, match="worker crash"):
            executor.map(list(range(3)))
