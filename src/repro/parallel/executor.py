"""A crash-tolerant process-pool executor with deterministic results.

:class:`ParallelExecutor` fans picklable tasks out to worker processes
and collects :class:`~repro.parallel.tasks.TaskResult`\\ s:

* **Chunked scheduling** — tasks are grouped into chunks to amortise
  queue round-trips; workers report per-task progress inside a chunk,
  so a crash only re-queues the genuinely unfinished tasks.
* **Crash tolerance** — a worker that dies (segfault, OOM kill,
  ``os._exit``) is detected via its process exitcode; the tasks it held
  are re-queued to a freshly spawned replacement (bounded by
  ``max_task_retries``), the crash is counted in the coordinator's
  metrics, and a ``worker_crashed`` trace event records it.  Runner
  *exceptions* are not retried — they indicate a bug and fail the run
  with a :class:`~repro.exceptions.ParallelExecutionError` carrying the
  worker traceback.
* **Ordered collection** — :meth:`map` returns results in submission
  order regardless of completion order; :meth:`as_completed` yields
  them as they finish (for incremental checkpointing).
* **Merged telemetry** — workers run local
  :class:`~repro.obs.MetricsRegistry` / ring-buffered tracer instances;
  the coordinator folds every returned snapshot into its own registry
  (:meth:`~repro.obs.MetricsRegistry.merge`) and replays worker events
  into the parent tracer tagged with ``worker=<id>``, bracketed by
  ``worker_started`` / ``worker_task_done`` / ``worker_crashed``
  events.

Determinism contract: the executor never reorders *computation* — each
task is a self-contained pure function of its payload — so any worker
count, chunk size, or crash/retry schedule yields the same result set,
and :meth:`map`'s ordering makes the collection deterministic too.

Start method: ``fork`` (on platforms that offer it) lets runners
close over arbitrary unpicklable state (workers inherit the parent's
memory); elsewhere the platform default applies, and under ``spawn``
the runner itself must be picklable.  Task payloads and results always
cross process boundaries and must be picklable under either method.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro.exceptions import ConfigurationError, ParallelExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import perf_counter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.tasks import TaskResult, TaskSpec
from repro.parallel.worker import worker_main
from repro.resilience.watchdog import (
    REASON_TASK_DEADLINE,
    WatchdogConfig,
    WorkerWatchdog,
)

__all__ = ["ParallelExecutor", "default_worker_count", "resolve_chunk_size"]

#: Seconds the coordinator blocks on the result queue before checking
#: worker liveness (small enough to notice crashes promptly, large
#: enough to keep the idle poll loop cold).
_POLL_INTERVAL_S = 0.05

#: Seconds a worker gets to exit after receiving its shutdown sentinel
#: before the coordinator terminates it.
_SHUTDOWN_GRACE_S = 2.0


def default_worker_count() -> int:
    """The host's CPU count (at least 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_chunk_size(num_tasks: int, workers: int,
                       chunk_size: int | None) -> int:
    """The chunk size to use for a batch.

    An explicit ``chunk_size`` wins; otherwise tasks are split so every
    worker sees about four chunks — big enough to amortise queue
    round-trips, small enough that the tail of the sweep still balances
    across workers and a crash loses little progress.
    """
    if chunk_size is not None:
        if chunk_size <= 0:
            raise ConfigurationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        return int(chunk_size)
    return max(1, num_tasks // (workers * 4))


class ParallelExecutor:
    """Run picklable tasks across worker processes, crash-tolerantly.

    Parameters
    ----------
    runner:
        ``runner(payload, context) -> value`` executed inside workers;
        ``context`` is a :class:`~repro.parallel.worker.WorkerContext`
        carrying the worker-local tracer and metrics registry.  Under
        the default ``fork`` start method the runner may close over
        arbitrary state (inherited at fork time, never pickled).
    workers:
        Worker process count; ``None`` uses the host CPU count.
    chunk_size:
        Tasks per scheduling chunk; ``None`` picks ~4 chunks per worker.
    max_task_retries:
        How many times one task may be re-queued after worker crashes
        before the run fails (runner exceptions never retry); ``0``
        fails the run on the first crash.  A crashed task is re-queued
        at once: the replacement worker is a fresh process, so there
        is nothing to back off from.
    watchdog:
        :class:`~repro.resilience.WatchdogConfig` arming stall
        detection: workers running one task longer than its per-task
        deadline, or falling heartbeat-silent, are killed and replaced
        under the crash budget (``watchdog_kill`` /
        ``task_deadline_exceeded`` trace events).  ``None`` (default)
        disables the watchdog and the worker-side heartbeat thread
        entirely.
    tracer:
        Coordinator-side tracer receiving ``worker_*`` lifecycle events
        and the replayed worker events (tagged ``worker=<id>``).
    metrics:
        Coordinator-side registry; worker snapshots are merged into it
        and the executor's own ``parallel.*`` counters/timers land
        there too.

    Workers start by ``fork`` where the platform offers it (else its
    default start method), and buffer their trace events for replay
    only when a ``tracer`` is given, in a ring of
    :data:`~repro.parallel.worker.RING_CAPACITY` events.
    """

    def __init__(self, runner: Callable[[Any, Any], Any], *,
                 workers: int | None = None,
                 chunk_size: int | None = None,
                 max_task_retries: int = 2,
                 watchdog: WatchdogConfig | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if workers is None:
            workers = default_worker_count()
        if workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {workers}"
            )
        if max_task_retries < 0:
            raise ConfigurationError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        if chunk_size is not None and chunk_size <= 0:
            raise ConfigurationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        self._runner = runner
        self._workers = int(workers)
        self._chunk_size = chunk_size
        self._max_attempts = int(max_task_retries) + 1
        self._watchdog_config = watchdog
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._capture_events = tracer is not None

    @property
    def workers(self) -> int:
        """Configured worker process count."""
        return self._workers

    # -- public API ----------------------------------------------------------------

    def map(self, payloads: Sequence[Any]) -> list[TaskResult]:
        """Run every payload; results in submission order.

        Raises
        ------
        ParallelExecutionError
            If a runner raised, or a task exceeded its crash-retry
            budget.
        """
        results = list(self.as_completed(payloads))
        results.sort(key=lambda result: result.task_id)
        return results

    def as_completed(self, payloads: Sequence[Any]) -> Iterator[TaskResult]:
        """Run every payload; yield results as workers finish them.

        ``TaskResult.task_id`` is the payload's submission index, so
        callers can re-associate out-of-order completions.
        """
        specs = [TaskSpec(task_id=index, payload=payload)
                 for index, payload in enumerate(payloads)]
        if not specs:
            return
        yield from self._execute(specs)

    # -- coordinator ---------------------------------------------------------------

    def _spawn_worker(self, worker_id: int, task_queue, result_queue,
                      watchdog: WorkerWatchdog | None = None):
        """Start one worker process and trace its birth."""
        config = self._watchdog_config
        heartbeat_interval_s = (
            config.heartbeat_interval_s
            if config is not None and config.heartbeat_timeout_s is not None
            else None
        )
        process = self._context.Process(
            target=worker_main,
            args=(worker_id, self._runner, task_queue, result_queue,
                  self._capture_events,
                  heartbeat_interval_s),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        if watchdog is not None:
            watchdog.worker_started(worker_id, perf_counter())
        self._metrics.counter("parallel.workers_started").inc()
        if self._tracer.enabled:
            self._tracer.emit("worker_started", worker=worker_id,
                              pid=process.pid)
        return process

    def _execute(self, specs: list[TaskSpec]) -> Iterator[TaskResult]:
        num_workers = min(self._workers, len(specs))
        chunk = resolve_chunk_size(len(specs), num_workers,
                                   self._chunk_size)
        task_queue = self._context.Queue()
        result_queue = self._context.Queue()
        for start in range(0, len(specs), chunk):
            task_queue.put(specs[start:start + chunk])

        spec_of = {spec.task_id: spec for spec in specs}
        pending = set(spec_of)
        attempts: dict[int, int] = {task_id: 0 for task_id in pending}
        assigned: dict[int, set[int]] = {}
        processes: dict[int, Any] = {}
        watchdog = (WorkerWatchdog(self._watchdog_config)
                    if self._watchdog_config is not None
                    and self._watchdog_config.enabled else None)
        next_worker_id = 0
        try:
            for _ in range(num_workers):
                processes[next_worker_id] = self._spawn_worker(
                    next_worker_id, task_queue, result_queue, watchdog
                )
                next_worker_id += 1

            while pending:
                try:
                    message = result_queue.get(timeout=_POLL_INTERVAL_S)
                except queue_module.Empty:
                    if watchdog is not None:
                        self._kill_stalled(watchdog, processes)
                    next_worker_id = self._reap_crashed(
                        processes, assigned, attempts, pending, spec_of,
                        task_queue, result_queue, next_worker_id, watchdog,
                    )
                    continue
                kind = message[0]
                if kind == "heartbeat":
                    __, worker_id = message
                    if watchdog is not None:
                        watchdog.heartbeat(worker_id, perf_counter())
                elif kind == "chunk_start":
                    __, worker_id, task_ids = message
                    assigned.setdefault(worker_id, set()).update(
                        task_id for task_id in task_ids
                        if task_id in pending
                    )
                elif kind == "task_start":
                    __, worker_id, task_id = message
                    if task_id in pending:
                        attempts[task_id] += 1
                    if watchdog is not None:
                        watchdog.task_started(worker_id, task_id,
                                              perf_counter())
                elif kind == "task_error":
                    __, worker_id, task_id, error_repr, trace_text = message
                    raise ParallelExecutionError(
                        f"task {task_id} raised in worker {worker_id}: "
                        f"{error_repr}\n{trace_text}"
                    )
                elif kind == "task_done":
                    (__, worker_id, task_id, value, duration,
                     snapshot, events) = message
                    assigned.get(worker_id, set()).discard(task_id)
                    if watchdog is not None:
                        watchdog.task_finished(worker_id)
                    if task_id not in pending:
                        continue  # duplicate from a crash re-queue race
                    pending.discard(task_id)
                    yield self._complete(task_id, value, worker_id,
                                         duration, attempts[task_id],
                                         snapshot, events)
        finally:
            self._shutdown(processes, task_queue, result_queue)

    def _kill_stalled(self, watchdog: WorkerWatchdog, processes) -> None:
        """Kill workers the watchdog diagnosed as stalled.

        SIGKILL, not SIGTERM: a genuinely wedged process (deadlocked
        native code, SIGSTOP) may not honour anything milder, and the
        point of the watchdog is that recovery cannot depend on the
        patient's cooperation.  The kill makes the process reap-able;
        :meth:`_reap_crashed` then re-queues its tasks under the crash
        budget exactly as for an organic crash.
        """
        for verdict in watchdog.poll(perf_counter()):
            process = processes.get(verdict.worker_id)
            if process is None or not process.is_alive():
                continue
            process.kill()
            self._metrics.counter("parallel.watchdog_kills").inc()
            if self._tracer.enabled:
                self._tracer.emit("watchdog_kill",
                                  worker=verdict.worker_id,
                                  reason=verdict.reason,
                                  task=verdict.task_id,
                                  elapsed_s=verdict.elapsed_s,
                                  limit_s=verdict.limit_s)
                if verdict.reason == REASON_TASK_DEADLINE:
                    self._tracer.emit("task_deadline_exceeded",
                                      worker=verdict.worker_id,
                                      task=verdict.task_id,
                                      elapsed_s=verdict.elapsed_s,
                                      limit_s=verdict.limit_s)

    def _complete(self, task_id: int, value, worker_id: int,
                  duration: float, attempt_count: int, snapshot,
                  events) -> TaskResult:
        """Merge one finished task's telemetry and build its result."""
        metrics = self._metrics
        metrics.counter("parallel.tasks_completed").inc()
        metrics.timer("parallel.task").observe(duration)
        if snapshot is not None:
            metrics.merge(snapshot)
        tracer = self._tracer
        if tracer.enabled:
            for event in events:
                payload = dict(event.payload)
                payload.setdefault("worker", worker_id)
                tracer.emit(event.kind, event.round_index, **payload)
            tracer.emit("worker_task_done", worker=worker_id,
                        task=task_id, duration_s=duration,
                        attempts=attempt_count)
        return TaskResult(
            task_id=task_id, value=value, worker_id=worker_id,
            duration_s=duration, attempts=max(1, attempt_count),
            metrics_snapshot=snapshot,
            events=tuple(events),
        )

    def _reap_crashed(self, processes, assigned, attempts, pending,
                      spec_of, task_queue, result_queue,
                      next_worker_id: int,
                      watchdog: WorkerWatchdog | None = None) -> int:
        """Re-queue the tasks of dead workers onto fresh replacements.

        A task that has already started ``max_task_retries + 1`` times
        fails the run; each re-queue emits a ``retry_attempt`` event.
        """
        for worker_id, process in list(processes.items()):
            if process.is_alive():
                continue
            # Dead before shutdown: a crash, whatever the exitcode says.
            del processes[worker_id]
            if watchdog is not None:
                watchdog.worker_gone(worker_id)
            lost = sorted(
                task_id for task_id in assigned.pop(worker_id, set())
                if task_id in pending
            )
            self._metrics.counter("parallel.worker_crashes").inc()
            if self._tracer.enabled:
                self._tracer.emit("worker_crashed", worker=worker_id,
                                  exitcode=process.exitcode,
                                  lost_tasks=list(lost))
            for task_id in lost:
                if attempts[task_id] >= self._max_attempts:
                    raise ParallelExecutionError(
                        f"task {task_id} was lost to {attempts[task_id]} "
                        f"worker crashes (the crash budget allows "
                        f"{self._max_attempts} attempts)"
                    )
                self._metrics.counter("parallel.tasks_requeued").inc()
                if self._tracer.enabled:
                    self._tracer.emit("retry_attempt",
                                      op=f"parallel.task-{task_id}",
                                      attempt=attempts[task_id],
                                      max_attempts=self._max_attempts,
                                      error=f"worker {worker_id} died "
                                            f"(exitcode "
                                            f"{process.exitcode})")
                task_queue.put([spec_of[task_id]])
            replacement = self._spawn_worker(next_worker_id, task_queue,
                                             result_queue, watchdog)
            processes[next_worker_id] = replacement
            next_worker_id += 1
        return next_worker_id

    @staticmethod
    def _shutdown(processes, task_queue, result_queue) -> None:
        """Stop workers and release the queues (idempotent, best-effort)."""
        for __ in processes:
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                break
        for process in processes.values():
            process.join(timeout=_SHUTDOWN_GRACE_S)
        for process in processes.values():
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_SHUTDOWN_GRACE_S)
        for q in (task_queue, result_queue):
            q.cancel_join_thread()
            q.close()
