"""The ``repro verify`` entry point: one run, one verdict.

Ties the five verification legs together:

1. **Differential oracles** — closed forms vs numerical references
   (:func:`repro.verify.oracles.run_oracle_suite`).
2. **Golden traces** — canonical seeded runs vs checked-in JSON
   (:func:`repro.verify.golden.verify_goldens`).
3. **Strict-mode engine runs** — a clean and a fault-injected run with
   every per-round invariant checked, asserted bit-identical to the
   same runs without checking (the monitor must be purely
   observational).
4. **Runtime checks** — the event-driven market runtime vs the batch
   engine (bit-identical on a static population) plus the churn golden
   trace (:mod:`repro.verify.runtime`).
5. **Kernels checks** — the round loop's kernels vs naive references:
   bit-identity for the learning state, UCB indices, top-K, and
   estimation error, ``<= 1e-9`` for the batched stage solves, plus a
   mutation canary (:mod:`repro.verify.kernels`).

The result is a :class:`VerificationReport` with a human-readable
rendering, a JSON payload for CI artefacts, and a single ``passed``
bit that becomes the process exit code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import InvariantViolationError
from repro.verify.compare import DEFAULT_TOLERANCE, Mismatch, ToleranceSpec
from repro.verify.golden import GOLDEN_CASES, verify_goldens
from repro.verify.kernels import KernelsCheckResult, check_kernels
from repro.verify.oracles import OracleSuiteReport, run_oracle_suite
from repro.verify.runtime import RuntimeCheckResult, check_runtime

if TYPE_CHECKING:  # type-only: the engine is imported lazily at runtime
    from repro.sim.results import RunMetrics

__all__ = ["StrictCheckResult", "VerificationReport", "run_verification"]

#: Section names accepted by :func:`run_verification`'s ``sections``.
SECTIONS = ("oracles", "goldens", "strict", "runtime", "kernels")

#: RunMetrics fields compared bit-for-bit between strict/default runs.
_BIT_IDENTICAL_FIELDS = (
    "realized_revenue", "expected_revenue", "regret", "consumer_profit",
    "platform_profit", "seller_profit_mean", "service_price",
    "collection_price", "total_sensing_time", "selection_counts",
    "estimation_error",
)


@dataclass(frozen=True)
class StrictCheckResult:
    """Outcome of the strict-mode leg.

    Attributes
    ----------
    passed:
        No invariant fired and the strict run was bit-identical to the
        default run on both scenarios.
    detail:
        What was run and, on failure, which guarantee broke.
    """

    passed: bool
    detail: str


@dataclass
class VerificationReport:
    """Everything one verification run found.

    Sections not requested are ``None`` and excluded from the verdict.
    """

    oracles: OracleSuiteReport | None
    goldens: dict[str, list[Mismatch]] | None
    strict: StrictCheckResult | None
    runtime: RuntimeCheckResult | None = None
    kernels: KernelsCheckResult | None = None

    @property
    def passed(self) -> bool:
        """Whether every section that ran is clean."""
        if self.oracles is not None and not self.oracles.passed:
            return False
        if self.goldens is not None and any(self.goldens.values()):
            return False
        if self.strict is not None and not self.strict.passed:
            return False
        if self.runtime is not None and not self.runtime.passed:
            return False
        if self.kernels is not None and not self.kernels.passed:
            return False
        return True

    def to_dict(self) -> dict:
        """JSON-ready payload (the ``--report`` artefact)."""
        payload: dict = {"passed": self.passed}
        if self.oracles is not None:
            payload["oracles"] = self.oracles.to_dict()
        if self.goldens is not None:
            payload["goldens"] = {
                "passed": not any(self.goldens.values()),
                "cases": {
                    name: [mismatch.describe() for mismatch in mismatches]
                    for name, mismatches in self.goldens.items()
                },
            }
        if self.strict is not None:
            payload["strict"] = {
                "passed": self.strict.passed,
                "detail": self.strict.detail,
            }
        if self.runtime is not None:
            payload["runtime"] = self.runtime.to_dict()
        if self.kernels is not None:
            payload["kernels"] = self.kernels.to_dict()
        return payload

    def to_text(self, max_failures: int = 10) -> str:
        """Human-readable rendering for the terminal."""
        lines = []
        if self.oracles is not None:
            status = "PASS" if self.oracles.passed else "FAIL"
            lines.append(
                f"oracles: {status} ({len(self.oracles.checks)} checks, "
                f"{self.oracles.num_failed} failed)"
            )
            for check in self.oracles.failures()[:max_failures]:
                lines.append(f"  {check.describe()}")
        if self.goldens is not None:
            drifted = {name: mismatches
                       for name, mismatches in self.goldens.items()
                       if mismatches}
            status = "PASS" if not drifted else "FAIL"
            lines.append(
                f"goldens: {status} ({len(self.goldens)} cases, "
                f"{len(drifted)} drifted)"
            )
            for name, mismatches in drifted.items():
                lines.append(f"  {name}: {len(mismatches)} mismatches")
                for mismatch in mismatches[:max_failures]:
                    lines.append(f"    {mismatch.describe()}")
        if self.strict is not None:
            status = "PASS" if self.strict.passed else "FAIL"
            lines.append(f"strict: {status} ({self.strict.detail})")
        if self.runtime is not None:
            status = "PASS" if self.runtime.passed else "FAIL"
            lines.append(
                f"runtime: {status} ({self.runtime.equivalence_detail})"
            )
            for mismatch in self.runtime.golden_mismatches[:max_failures]:
                lines.append(f"  {mismatch.describe()}")
        if self.kernels is not None:
            status = "PASS" if self.kernels.passed else "FAIL"
            lines.append(
                f"kernels: {status} ({len(self.kernels.checks)} checks, "
                f"{len(self.kernels.failures())} failed)"
            )
            for check in self.kernels.failures()[:max_failures]:
                lines.append(f"  {check.describe()}")
        lines.append(f"verification: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _run_strict_check(num_rounds: int, seed: int) -> StrictCheckResult:
    """Strict vs default runs: invariants hold AND results stay identical."""
    from repro.bandits.policies import UCBPolicy
    from repro.faults.model import FaultSpec
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import TradingSimulator

    scenarios = (
        ("clean", None),
        ("faulty", FaultSpec(dropout_rate=0.2, corruption_rate=0.05,
                             stall_rate=0.05)),
    )
    for label, spec in scenarios:
        config = SimulationConfig(num_sellers=12, num_selected=3,
                                  num_pois=4, num_rounds=num_rounds,
                                  seed=seed)

        def run(strict: bool) -> RunMetrics:
            simulator = TradingSimulator(config)
            fault_model = (simulator.fault_model(spec)
                           if spec is not None else None)
            return simulator.run(UCBPolicy(), fault_model=fault_model,
                                 strict=strict)

        default = run(strict=False)
        try:
            checked = run(strict=True)
        except InvariantViolationError as error:
            return StrictCheckResult(
                False, f"{label} run violated an invariant: {error}"
            )
        for field in _BIT_IDENTICAL_FIELDS:
            if not np.array_equal(getattr(default, field),
                                  getattr(checked, field)):
                return StrictCheckResult(
                    False,
                    f"strict {label} run diverged from the default run "
                    f"in {field} — the monitor must not perturb results",
                )
    return StrictCheckResult(
        True,
        f"clean + faulty strict runs of {num_rounds} rounds: all "
        "invariants held, results bit-identical to default runs",
    )


def run_verification(*, seed: int = 0, oracle_cases: int = 12,
                     goldens_dir: str | None = None,
                     sections: tuple[str, ...] | None = None,
                     strict_rounds: int = 60,
                     tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                     ) -> VerificationReport:
    """Run the requested verification sections and collect one report.

    Parameters
    ----------
    seed:
        Seed for the oracle suite's randomized game instances and the
        strict-mode scenario configs.
    oracle_cases:
        Number of randomized games per oracle (edge cases always run).
    goldens_dir:
        Override the golden store location (tests); ``None`` uses the
        checked-in directory.
    sections:
        Subset of :data:`SECTIONS` to run; ``None`` runs everything.
    strict_rounds:
        Rounds per strict-mode scenario.
    tolerance:
        Golden-comparison tolerance.
    """
    wanted = SECTIONS if sections is None else tuple(sections)
    unknown = set(wanted) - set(SECTIONS)
    if unknown:
        from repro.exceptions import ConfigurationError

        raise ConfigurationError(
            f"unknown verification sections {sorted(unknown)}; "
            f"valid: {list(SECTIONS)}"
        )
    oracles = (run_oracle_suite(seed=seed, num_cases=oracle_cases)
               if "oracles" in wanted else None)
    goldens = (verify_goldens(goldens_dir, GOLDEN_CASES, tolerance)
               if "goldens" in wanted else None)
    strict = (_run_strict_check(strict_rounds, seed)
              if "strict" in wanted else None)
    runtime = (check_runtime(seed=seed, goldens_dir=goldens_dir,
                             tolerance=tolerance)
               if "runtime" in wanted else None)
    kernels = check_kernels(seed=seed) if "kernels" in wanted else None
    return VerificationReport(oracles=oracles, goldens=goldens,
                              strict=strict, runtime=runtime,
                              kernels=kernels)
