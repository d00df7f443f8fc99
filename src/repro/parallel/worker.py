"""The worker process entrypoint of the parallel runtime.

Each worker is a plain :class:`multiprocessing.Process` running
:func:`worker_main`: pull a chunk of :class:`~repro.parallel.tasks.TaskSpec`\\ s
from the shared task queue, run each through the executor's runner, and
stream protocol messages back on the result queue.  The coordinator
never shares mutable state with workers — everything crosses through
the two queues, so a worker can die at any instant without corrupting
the sweep (the coordinator re-queues whatever the dead worker held).

Telemetry is worker-local: every task runs against a fresh
:class:`~repro.obs.MetricsRegistry` and (when capture is on) a
:class:`~repro.obs.RingBufferSink`-backed tracer, and the snapshot plus
the buffered events ride home inside the ``task_done`` message for the
coordinator to merge.

Liveness: when the coordinator runs a watchdog it asks for heartbeats —
a daemon thread putting ``("heartbeat", worker_id)`` on the result
queue at a fixed interval.  The heartbeat means "this process is alive
and its scheduler runs threads", *not* "the current task progresses";
a long-running task is normal and is bounded separately by the
coordinator's per-task deadline.  Without a watchdog no thread is
started and the worker is byte-for-byte the pre-watchdog one.

Fault injection (for tests and drills), each latched to exactly one
occurrence by an ``O_EXCL`` marker file:

* **crash** — set :data:`CRASH_TASK_ENV` to a task id and
  :data:`CRASH_MARKER_ENV` to a marker path, and the first worker to
  pick that task up dies hard (``os._exit``) before running it; the
  re-queued attempt on a fresh worker completes normally.
* **stall** — set :data:`STALL_TASK_ENV` / :data:`STALL_MARKER_ENV`,
  and the first worker to pick that task up wedges: heartbeats stop
  and the main thread sleeps indefinitely, simulating a process frozen
  mid-task.  Only the coordinator's watchdog can clear it (kill +
  replace); without a watchdog the run would hang, which is exactly
  the failure mode the watchdog exists for.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from repro.obs.timing import perf_counter

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, RingBufferSink, Tracer

__all__ = [
    "CRASH_TASK_ENV",
    "CRASH_MARKER_ENV",
    "CRASH_EXIT_CODE",
    "STALL_TASK_ENV",
    "STALL_MARKER_ENV",
    "WorkerContext",
    "worker_main",
]

#: Environment variable naming the task id whose next pickup should
#: kill the worker (test/drill hook; see the module docstring).
CRASH_TASK_ENV = "REPRO_PARALLEL_CRASH_TASK"

#: Environment variable naming the marker file that latches the
#: injected crash to exactly one occurrence.
CRASH_MARKER_ENV = "REPRO_PARALLEL_CRASH_MARKER"

#: Exit code of an injected worker crash (recognisable in
#: ``worker_crashed`` trace events).
CRASH_EXIT_CODE = 23

#: Environment variable naming the task id whose next pickup should
#: wedge the worker (heartbeats stop, main thread sleeps forever).
STALL_TASK_ENV = "REPRO_PARALLEL_STALL_TASK"

#: Environment variable naming the marker file that latches the
#: injected stall to exactly one occurrence.
STALL_MARKER_ENV = "REPRO_PARALLEL_STALL_MARKER"

#: Trace events one task buffers for replay; the oldest drop beyond it.
RING_CAPACITY = 100_000


@dataclass
class WorkerContext:
    """What a runner sees of the worker it executes inside.

    Attributes
    ----------
    worker_id:
        The executor-assigned worker number (stable across tasks, fresh
        for crash replacements).
    tracer:
        Worker-local tracer; the :data:`~repro.obs.NULL_TRACER` when the
        executor runs without event capture, so runners can emit
        unconditionally.
    metrics:
        Worker-local registry; its snapshot is shipped back with the
        task result and merged by the coordinator.
    """

    worker_id: int
    tracer: Tracer
    metrics: MetricsRegistry


def _claim_injection(task_env: str, marker_env: str, task_id: int) -> bool:
    """Whether this pickup wins the (single-shot) injection for ``task_id``.

    The marker file is created with ``O_EXCL`` so exactly one attempt
    triggers; every later attempt (on the replacement worker) sees the
    marker and runs normally.
    """
    target = os.environ.get(task_env)
    marker = os.environ.get(marker_env)
    if not target or not marker or int(target) != task_id:
        return False
    try:
        descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(descriptor)
    return True


def _maybe_injected_stall(task_id: int, beats_paused) -> None:
    """Wedge this worker if the stall-injection hook targets this task.

    Models a process frozen mid-task (deadlocked native code, SIGSTOP,
    a hung NFS read): heartbeats stop, the main thread never returns.
    The sleep loop runs until the coordinator's watchdog kills the
    process — there is deliberately no way out from the inside.
    """
    if not _claim_injection(STALL_TASK_ENV, STALL_MARKER_ENV, task_id):
        return
    beats_paused.set()
    while True:
        time.sleep(3600.0)


def _maybe_injected_crash(task_id: int, result_queue) -> None:
    """Die hard if the crash-injection hook targets this task (once)."""
    if not _claim_injection(CRASH_TASK_ENV, CRASH_MARKER_ENV, task_id):
        return
    # Flush this process's queue feeder first, so the coordinator has
    # the chunk_start/task_start messages that tell it what died —
    # modelling a worker that crashed *inside* the task, which is the
    # overwhelmingly dominant real-world window (task compute time
    # dwarfs the microseconds between dequeue and acknowledgement).
    result_queue.close()
    result_queue.join_thread()
    # A real crash: no protocol goodbye, no Python exit handlers — the
    # coordinator must notice via the process exitcode.
    os._exit(CRASH_EXIT_CODE)


def _start_heartbeat(worker_id: int, result_queue, interval_s: float,
                     beats_paused: threading.Event) -> None:
    """Start the daemon heartbeat thread.

    The thread dies with the process (daemon) and falls silent if the
    result queue is torn down — by then the coordinator has already
    moved on.  ``beats_paused`` lets the stall injector simulate a
    fully frozen process.
    """

    def beat() -> None:
        while True:
            time.sleep(interval_s)
            if beats_paused.is_set():
                continue
            try:
                result_queue.put(("heartbeat", worker_id))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                return

    threading.Thread(target=beat, daemon=True,
                     name=f"repro-heartbeat-{worker_id}").start()


def worker_main(worker_id: int, runner, task_queue, result_queue,
                capture_events: bool,
                heartbeat_interval_s: float | None = None) -> None:
    """Run tasks until the ``None`` sentinel arrives.

    Protocol messages put on ``result_queue`` (all picklable tuples,
    first element is the message kind):

    * ``("chunk_start", worker_id, [task_id, ...])`` — the worker took
      a chunk; the coordinator now knows what is at risk if it dies.
    * ``("task_start", worker_id, task_id)`` — one task began.
    * ``("task_done", worker_id, task_id, value, duration_s,
      metrics_snapshot, events)`` — one task finished.
    * ``("task_error", worker_id, task_id, error_repr, traceback)`` —
      the runner raised; the worker stays alive, the coordinator
      decides (it fails the whole run — an exception is a bug, not a
      fault to retry).
    * ``("heartbeat", worker_id)`` — liveness beacon, only when the
      coordinator asked for one (``heartbeat_interval_s`` not None).

    SIGINT is ignored in workers: a terminal Ctrl-C reaches the whole
    process group, and graceful shutdown means the *coordinator* stops
    feeding tasks and drains — workers must survive the signal to
    finish what they hold.  SIGTERM keeps its default handler so the
    coordinator's ``terminate()`` still works.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    beats_paused = threading.Event()
    if heartbeat_interval_s is not None:
        _start_heartbeat(worker_id, result_queue, heartbeat_interval_s,
                         beats_paused)
    while True:
        chunk = task_queue.get()
        if chunk is None:
            return
        result_queue.put(
            ("chunk_start", worker_id, [spec.task_id for spec in chunk])
        )
        for spec in chunk:
            result_queue.put(("task_start", worker_id, spec.task_id))
            _maybe_injected_crash(spec.task_id, result_queue)
            _maybe_injected_stall(spec.task_id, beats_paused)
            sink = (RingBufferSink(RING_CAPACITY)
                    if capture_events else None)
            tracer = Tracer(sink) if sink is not None else NULL_TRACER
            metrics = MetricsRegistry()
            context = WorkerContext(worker_id=worker_id, tracer=tracer,
                                    metrics=metrics)
            start = perf_counter()
            try:
                value = runner(spec.payload, context)
            except BaseException as error:  # every failure is shipped back
                result_queue.put((
                    "task_error", worker_id, spec.task_id,
                    f"{type(error).__name__}: {error}",
                    traceback.format_exc(),
                ))
                continue
            duration = perf_counter() - start
            result_queue.put((
                "task_done", worker_id, spec.task_id, value, duration,
                metrics.snapshot(),
                sink.events if sink is not None else (),
            ))
