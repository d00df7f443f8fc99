"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A simulation, job, or mechanism was configured with invalid values.

    Raised eagerly at construction time (for example ``K > M``, a negative
    round count, or an empty PoI set) so that misconfiguration never
    surfaces as a confusing numerical failure deep inside a run.
    """


class GameError(ReproError):
    """The Stackelberg game could not be solved for the given inputs."""


class InfeasibleStrategyError(GameError):
    """A strategy profile violates its feasible region.

    For example a negative sensing time, or a unit price outside the
    ``[p_min, p_max]`` interval declared by the incentive mechanism.
    """


class EquilibriumViolationError(GameError):
    """A claimed Stackelberg Equilibrium failed verification.

    Raised by :func:`repro.core.equilibrium.assert_equilibrium` when a
    profitable unilateral deviation is found for some participant.
    """


class VerificationError(ReproError):
    """The verification subsystem found a correctness failure.

    Base class for every failure raised by :mod:`repro.verify` — a
    broken runtime invariant, a closed-form/numeric oracle disagreement,
    or golden-trace drift.
    """


class InvariantViolationError(VerificationError):
    """A per-round runtime invariant failed in a strict-mode run.

    Raised by the engine's ``strict`` mode when an
    :class:`~repro.verify.invariants.InvariantMonitor` predicate fails —
    for example a Stage-3 stationarity residual out of tolerance, a
    negative seller profit at equilibrium, or a learning-counter
    conservation mismatch.
    """


class GoldenMismatchError(VerificationError):
    """A golden-trace comparison found drift against the stored values."""


class SelectionError(ReproError):
    """Seller selection failed (for example fewer candidates than ``K``)."""


class DataTraceError(ReproError):
    """A data trace could not be generated, parsed, or interpreted."""


class PersistenceError(ReproError):
    """A persisted artefact could not be written, read, or validated.

    Raised when a results file, checkpoint, or sweep snapshot is
    truncated, fails schema validation, or lacks required fields —
    instead of surfacing a raw ``ValueError``/``KeyError`` from the
    underlying JSON/NPZ machinery.

    Beyond the message, the exception carries structured context so
    recovery layers (checkpoint rollback, quarantine, retry policies)
    and humans reading logs can see *which* artefact failed and *why*
    without parsing prose:

    Attributes
    ----------
    path:
        Filesystem path of the offending artefact, or ``None`` when the
        failure is not file-bound (for example an in-memory payload).
    schema_found / schema_expected:
        The schema version read from the artefact and the version this
        library reads, when the failure is a schema mismatch
        (``None`` otherwise).

    The triggering low-level cause (``json.JSONDecodeError``,
    ``zipfile.BadZipFile``, ...) travels as ``__cause__`` via the usual
    ``raise ... from err`` chaining and is appended to ``str()``.
    """

    def __init__(self, message: str, *, path: "str | None" = None,
                 schema_found: "int | None" = None,
                 schema_expected: "int | None" = None) -> None:
        super().__init__(message)
        self.path = path
        self.schema_found = schema_found
        self.schema_expected = schema_expected

    def __str__(self) -> str:
        parts = [super().__str__()]
        if self.path is not None and self.path not in parts[0]:
            parts.append(f"[path: {self.path}]")
        if self.schema_found is not None or self.schema_expected is not None:
            parts.append(
                f"[schema: found {self.schema_found}, "
                f"expected {self.schema_expected}]"
            )
        if self.__cause__ is not None:
            parts.append(
                f"[cause: {type(self.__cause__).__name__}: {self.__cause__}]"
            )
        return " ".join(parts)


class ExperimentError(ReproError):
    """An experiment driver was asked to run with invalid parameters."""


class DeadlineExceededError(ReproError):
    """A guarded call kept failing past its policy's ``timeout_s``.

    Raised by :func:`repro.resilience.execute_with_policy` when a
    checkpoint write is still failing once the
    :class:`repro.resilience.ResiliencePolicy`'s ``timeout_s`` has
    passed (checked between attempts; an attempt in progress is never
    interrupted).
    """


class RetryBudgetExceededError(ReproError):
    """A guarded operation failed on every attempt its policy allowed.

    The final underlying failure travels as ``__cause__``; the message
    records the attempt count and the policy that governed it.
    """


class GracefulShutdownInterrupt(ReproError):
    """A run was interrupted by a graceful-shutdown request.

    Raised at a round/seed boundary after in-flight work has been
    drained and a final resumable checkpoint has been written (when
    checkpointing is configured), so callers can exit cleanly and a
    later ``--resume`` continues bit-identically.
    """

    def __init__(self, message: str, *, checkpoint_path: "str | None" = None,
                 ) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class ParallelExecutionError(ReproError):
    """A parallel batch could not be completed.

    Raised by the :mod:`repro.parallel` runtime when a task's runner
    raised inside a worker (the message carries the worker-side
    traceback), or when a task was lost to more worker crashes than
    ``max_task_retries`` allows.  Worker crashes within the retry
    budget are handled transparently and never surface as errors.
    """
