"""Unit tests for the retry/timeout/backoff policy engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import _build_resilience, build_parser
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    PersistenceError,
    RetryBudgetExceededError,
)
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.resilience import (
    NOOP_POLICY,
    ResiliencePolicy,
    WatchdogConfig,
    execute_with_policy,
    task_watchdog,
)


class _Sleeps(list):
    """An injected ``sleep`` that records each requested wait."""

    def __call__(self, delay: float) -> None:
        self.append(delay)


class TestBackoff:
    """The fixed wait before retry k: ``min(0.05 * 2**(k-1), 5)`` s."""

    def test_default_is_no_delay(self):
        slept = _Sleeps()
        with pytest.raises(OSError):
            execute_with_policy(_Flaky(failures=1), NOOP_POLICY,
                                label="op", sleep=slept)
        assert slept == []

    def test_exponential_growth_and_clamp(self):
        slept = _Sleeps()
        flaky = _Flaky(failures=8)
        assert execute_with_policy(flaky, ResiliencePolicy(max_retries=8),
                                   label="op", sleep=slept) == "ok"
        assert slept == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0]


class TestRetryPolicy:
    def test_default_is_noop(self):
        assert NOOP_POLICY.max_retries == 0

    def test_of_counts_retries_not_attempts(self):
        flaky = _Flaky(failures=99)
        with pytest.raises(RetryBudgetExceededError):
            execute_with_policy(flaky, ResiliencePolicy(max_retries=2),
                                label="op", sleep=_Sleeps())
        assert flaky.calls == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            ResiliencePolicy(max_retries=-2)


class TestDeadline:
    def test_default_disabled(self):
        assert NOOP_POLICY.timeout_s is None
        assert task_watchdog(NOOP_POLICY) is None
        assert task_watchdog(ResiliencePolicy(timeout_s=2.5)) == (
            WatchdogConfig(task_timeout_s=2.5))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="timeout_s"):
            ResiliencePolicy(timeout_s=0.0)


class TestResiliencePolicy:
    def test_default_is_noop(self):
        assert ResiliencePolicy() == NOOP_POLICY

    def test_has_exactly_four_fields(self):
        assert [f.name for f in dataclasses.fields(ResiliencePolicy)] == [
            "max_retries", "timeout_s", "checkpoint_generations",
            "quarantine",
        ]

    def test_any_armed_piece_breaks_noop(self):
        assert ResiliencePolicy(max_retries=1) != NOOP_POLICY
        assert ResiliencePolicy(timeout_s=1.0) != NOOP_POLICY
        assert ResiliencePolicy(checkpoint_generations=2) != NOOP_POLICY
        assert ResiliencePolicy(quarantine=True) != NOOP_POLICY

    def test_generations_validated(self):
        with pytest.raises(ConfigurationError, match="generations"):
            ResiliencePolicy(checkpoint_generations=0)

    def test_from_cli_defaults_to_noop(self):
        args = build_parser().parse_args(["replicate"])
        assert _build_resilience(args) == NOOP_POLICY

    def test_from_cli_arms_requested_pieces(self):
        args = build_parser().parse_args(
            ["replicate", "--timeout-s", "30", "--max-retries", "2"])
        assert _build_resilience(args) == ResiliencePolicy(
            max_retries=2, timeout_s=30.0)

    @pytest.mark.parametrize("module, name", [
        *(("repro.resilience", name) for name in (
            "Backoff", "RetryPolicy", "Deadline", "NO_RETRY",
            "NO_DEADLINE")),
        ("repro.resilience.policy", "_stable_label_hash"),
        *(("repro.sim.persistence", name) for name in (
            "save_sweep_checkpoint", "load_sweep_checkpoint",
            "recover_sweep_checkpoint", "_json_checksum",
            "_recover_generations", "SWEEP_CHECKPOINT_SCHEMA_VERSION")),
    ])
    def test_retired_names_are_gone(self, module, name):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})

    def test_from_cli_constructor_is_gone(self):
        assert not hasattr(ResiliencePolicy, "from_cli")


class _Flaky:
    """Fails ``failures`` times, then succeeds."""

    def __init__(self, failures: int,
                 error: BaseException | None = None) -> None:
        self.failures = failures
        self.calls = 0
        self.error = error if error is not None else OSError("disk hiccup")

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestExecuteWithPolicy:
    def test_success_is_silent(self):
        registry = MetricsRegistry()
        sink = RingBufferSink()
        result = execute_with_policy(
            lambda: 42, ResiliencePolicy(max_retries=3), label="op",
            tracer=Tracer(sink), metrics=registry,
        )
        assert result == 42
        assert registry.counters == {}
        assert sink.events == ()

    def test_retries_until_success_with_telemetry(self):
        flaky = _Flaky(failures=2)
        registry = MetricsRegistry()
        sink = RingBufferSink()
        slept = _Sleeps()
        result = execute_with_policy(
            flaky, ResiliencePolicy(max_retries=3), label="persist",
            tracer=Tracer(sink), metrics=registry, sleep=slept,
        )
        assert result == "ok"
        assert flaky.calls == 3
        assert slept == [0.05, 0.1]
        assert registry.counters["resilience.retry_attempts"] == 2
        events = [e for e in sink.events if e.kind == "retry_attempt"]
        assert [e.payload["attempt"] for e in events] == [1, 2]
        assert [e.payload["delay_s"] for e in events] == [0.05, 0.1]
        assert events[0].payload["op"] == "persist"
        assert "OSError" in events[0].payload["error"]

    def test_budget_exhaustion_chains_the_last_error(self):
        flaky = _Flaky(failures=99)
        slept = _Sleeps()
        with pytest.raises(RetryBudgetExceededError,
                           match="all 3 attempts") as info:
            execute_with_policy(flaky, ResiliencePolicy(max_retries=2),
                                label="op", sleep=slept)
        assert flaky.calls == 3
        assert slept == [0.05, 0.1]
        assert isinstance(info.value.__cause__, OSError)

    def test_noop_policy_raises_unwrapped(self):
        # The guard must be invisible: same exception type as unguarded.
        flaky = _Flaky(failures=1)
        with pytest.raises(OSError, match="disk hiccup"):
            execute_with_policy(flaky, NOOP_POLICY, label="op")
        assert flaky.calls == 1

    def test_unlisted_exception_propagates_immediately(self):
        flaky = _Flaky(failures=1, error=ValueError("a bug, not a fault"))
        with pytest.raises(ValueError, match="bug"):
            execute_with_policy(flaky, ResiliencePolicy(max_retries=5),
                                label="op")
        assert flaky.calls == 1

    def test_persistence_error_is_retryable_by_default(self):
        flaky = _Flaky(failures=1, error=PersistenceError("torn write"))
        assert execute_with_policy(flaky, ResiliencePolicy(max_retries=1),
                                   label="op", sleep=_Sleeps()) == "ok"

    def test_deadline_checked_between_attempts(self):
        # A zero-ish deadline expires before the first retry.
        flaky = _Flaky(failures=99)
        slept = _Sleeps()
        with pytest.raises(DeadlineExceededError, match="deadline"):
            execute_with_policy(
                flaky, ResiliencePolicy(max_retries=5, timeout_s=1e-9),
                label="op", sleep=slept,
            )
        assert flaky.calls == 1
        assert slept == []
