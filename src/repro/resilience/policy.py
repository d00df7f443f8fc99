"""The resilience posture of a run: one flat policy and its retry engine.

A :class:`ResiliencePolicy` answers every "how does a run survive a
fault" question in four fields: how many times a checkpoint write may
be retried, how long retrying may go on (which also arms the parallel
watchdog's per-task deadline, see :func:`task_watchdog`), how many
checkpoint generations stay on disk, and whether a resume quarantines
bad checkpoints and rolls back instead of raising.

The wait before retry ``k`` is fixed at ``min(0.05 * 2**(k-1), 5)``
seconds.  There is no jitter: jitter only helps several writers that
contend for one resource, and here one coordinator writes each file.
The *sleeps* are wall-clock side effects that never feed back into
simulation state (the same contract as :mod:`repro.obs` timing).

The default :data:`NOOP_POLICY` (no retries, no deadline, a single
checkpoint generation, no quarantine) is behaviourally invisible: code
guarded by it runs exactly as unguarded code, which is what keeps
pre-existing invocations byte-identical.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    PersistenceError,
    RetryBudgetExceededError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import perf_counter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.watchdog import WatchdogConfig

__all__ = [
    "ResiliencePolicy",
    "NOOP_POLICY",
    "execute_with_policy",
    "task_watchdog",
]

T = TypeVar("T")

#: The failures a checkpoint write may be retried on; anything else
#: propagates at once (a bug is not a fault to paper over).
_RETRYABLE = (PersistenceError, OSError)


@dataclass(frozen=True)
class ResiliencePolicy:
    """The full resilience posture of a run.

    Attributes
    ----------
    max_retries:
        How many times a failed checkpoint write is retried (>= 0).
    timeout_s:
        Wall-clock budget in seconds (``None`` disables it): retrying a
        checkpoint write stops once it has passed, and it arms the
        parallel pool's per-task watchdog (see :func:`task_watchdog`).
    checkpoint_generations:
        How many checkpoint generations to keep on disk (>= 1).  With
        more than one, each write rotates the previous file into a
        ``.gen-k`` sibling, giving rollback targets.
    quarantine:
        Whether a checkpoint found on resume that does not load or does
        not decode is moved into a ``*.quarantine/`` directory and the
        run rolled back to the newest valid generation (or a fresh
        start), instead of raising
        :class:`~repro.exceptions.PersistenceError`.
    """

    max_retries: int = 0
    timeout_s: float | None = None
    checkpoint_generations: int = 1
    quarantine: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ConfigurationError(
                f"timeout_s must be positive (or None), got {self.timeout_s}"
            )
        if self.checkpoint_generations < 1:
            raise ConfigurationError(
                "checkpoint_generations must be >= 1, got "
                f"{self.checkpoint_generations}"
            )


#: The default posture: zero-cost when idle, byte-identical behaviour.
NOOP_POLICY = ResiliencePolicy()


def task_watchdog(policy: ResiliencePolicy) -> WatchdogConfig | None:
    """The parallel pool's watchdog armed by ``policy``'s deadline.

    One task is one seed (or one experiment), so the policy's
    ``timeout_s`` becomes the per-task deadline; without one the pool
    runs unwatched.
    """
    if policy.timeout_s is None:
        return None
    return WatchdogConfig(task_timeout_s=policy.timeout_s)


def execute_with_policy(
    operation: Callable[[], T],
    policy: ResiliencePolicy,
    *,
    label: str,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    sleep: Callable[[float], Any] = time.sleep,
) -> T:
    """Run ``operation`` under ``policy``, retrying I/O failures.

    A :class:`~repro.exceptions.PersistenceError` or :class:`OSError`
    is retried up to ``policy.max_retries`` times, waiting
    ``min(0.05 * 2**(k-1), 5)`` seconds before retry ``k``.  Once the
    retries run out the call raises
    :class:`~repro.exceptions.RetryBudgetExceededError`; once
    ``policy.timeout_s`` has passed (checked between attempts) it raises
    :class:`~repro.exceptions.DeadlineExceededError`.  Both chain the
    final failure.  Any other exception propagates immediately.

    Every retry emits a ``retry_attempt`` trace event (operation label,
    attempt number, delay, error) and bumps the
    ``resilience.retry_attempts`` counter.  With no retries allowed the
    operation is called exactly once and its error re-raised unwrapped,
    with no telemetry — the guard is free.

    ``sleep`` is injectable so tests can run dense retry schedules
    without wall-clock waits.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    start = perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            return operation()
        except _RETRYABLE as error:
            if policy.max_retries == 0:
                raise  # unguarded semantics, unwrapped traceback
            if attempt > policy.max_retries:
                raise RetryBudgetExceededError(
                    f"{label} failed on all {attempt} attempts "
                    f"(max_retries={policy.max_retries}): {error}"
                ) from error
            elapsed = perf_counter() - start
            if policy.timeout_s is not None and elapsed >= policy.timeout_s:
                raise DeadlineExceededError(
                    f"{label} exceeded its {policy.timeout_s:g}s "
                    f"deadline after {attempt} attempts "
                    f"({elapsed:.3f}s elapsed): {error}"
                ) from error
            delay = min(0.05 * 2.0 ** (attempt - 1), 5.0)
            if metrics is not None:
                metrics.counter("resilience.retry_attempts").inc()
            if tr.enabled:
                tr.emit("retry_attempt", op=label, attempt=attempt,
                        max_attempts=policy.max_retries + 1,
                        delay_s=delay,
                        error=f"{type(error).__name__}: {error}")
            sleep(delay)
