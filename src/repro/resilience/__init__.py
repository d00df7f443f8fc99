"""Deterministic resilience runtime: policy, watchdog, graceful shutdown.

Three composable layers harden long runs without perturbing results:

* :mod:`repro.resilience.policy` — the four-field
  :class:`ResiliencePolicy` (checkpoint-write retries, a deadline,
  checkpoint generations, quarantine) and the retry engine that
  applies it to checkpoint writes.
* :mod:`repro.resilience.watchdog` — a clock-injected stall detector
  for worker pools (per-task deadlines + heartbeat loss).
* :mod:`repro.resilience.shutdown` — cooperative SIGINT/SIGTERM drain
  and deterministic scheduled aborts.

The chaos harness that exercises all three lives in
:mod:`repro.resilience.chaos` (imported lazily by the CLI — it pulls in
the simulation engine, which this package otherwise never imports).

Everything defaults to a no-op posture (:data:`NOOP_POLICY`,
:data:`NO_WATCHDOG`, :data:`NEVER_STOP`): a run that does not opt in
is byte-identical to one built before this package existed.
"""

from repro.resilience.policy import (
    NOOP_POLICY,
    ResiliencePolicy,
    execute_with_policy,
    task_watchdog,
)
from repro.resilience.shutdown import (
    NEVER_STOP,
    GracefulShutdown,
    ScheduledAbort,
    ShutdownSignal,
)
from repro.resilience.watchdog import (
    NO_WATCHDOG,
    StallVerdict,
    WatchdogConfig,
    WorkerWatchdog,
)

__all__ = [
    "ResiliencePolicy",
    "execute_with_policy",
    "task_watchdog",
    "NOOP_POLICY",
    "WatchdogConfig",
    "WorkerWatchdog",
    "StallVerdict",
    "NO_WATCHDOG",
    "ShutdownSignal",
    "GracefulShutdown",
    "ScheduledAbort",
    "NEVER_STOP",
]
