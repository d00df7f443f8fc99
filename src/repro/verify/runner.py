"""The ``repro verify`` entry point: one run, one verdict.

Ties the five sections together, each a list of
:class:`~repro.verify.compare.Check`:

1. **oracles** — closed forms vs numerical references, one check per
   comparison (:func:`repro.verify.oracles.run_oracle_suite`).
2. **goldens** — the three canonical engine runs vs their checked-in
   JSON, one check per case (:func:`repro.verify.golden.verify_goldens`).
3. **strict** — a clean and a fault-injected run with every per-round
   invariant checked, each asserted bit-identical to the same run
   without checking (the monitor must be purely observational); one
   check per run.
4. **runtime** — the event-driven market runtime vs the batch engine
   (bit-identical on a static population), plus the churn golden
   (:mod:`repro.verify.runtime`).
5. **kernels** — the learning state, UCB indices, top-K, selection and
   estimation error vs naive references, bit for bit, plus a mutation
   canary proving that oracle catches a 1% defect
   (:mod:`repro.verify.kernels`).

The result is a :class:`VerificationReport` with a human-readable
rendering, a JSON payload for CI artefacts, and a single ``passed``
bit that becomes the process exit code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.exceptions import ConfigurationError, InvariantViolationError
from repro.verify.compare import (
    DEFAULT_TOLERANCE,
    Check,
    ToleranceSpec,
    first_diverging_field,
)
from repro.verify.golden import GOLDEN_CASES, verify_goldens
from repro.verify.kernels import check_kernels
from repro.verify.oracles import run_oracle_suite
from repro.verify.runtime import check_runtime

__all__ = ["SECTIONS", "VerificationReport", "run_verification"]

#: Section names accepted by :func:`run_verification`'s ``sections``.
SECTIONS = ("oracles", "goldens", "strict", "runtime", "kernels")


@dataclass
class VerificationReport:
    """Every check one verification run made, by section.

    ``sections`` maps each section that ran to its checks, in
    :data:`SECTIONS` order; sections not requested are absent.
    """

    sections: dict[str, list[Check]]

    @property
    def passed(self) -> bool:
        """Whether every check of every section that ran held."""
        return all(check.passed for checks in self.sections.values()
                   for check in checks)

    def to_dict(self) -> dict:
        """JSON-ready payload (the ``--report`` artefact)."""
        payload: dict = {"passed": self.passed}
        for name, checks in self.sections.items():
            failures = [check for check in checks if not check.passed]
            payload[name] = {
                "passed": not failures,
                "num_checks": len(checks),
                "num_failed": len(failures),
                "failures": [asdict(check) for check in failures],
            }
        return payload

    def to_text(self, max_failures: int = 10) -> str:
        """Human-readable rendering for the terminal."""
        lines = []
        for name, checks in self.sections.items():
            failures = [check for check in checks if not check.passed]
            lines.append(f"{name}: {'FAIL' if failures else 'PASS'} "
                         f"({len(checks)} checks, {len(failures)} failed)")
            lines.extend(f"  {check.describe()}"
                         for check in failures[:max_failures])
        lines.append(f"verification: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _run_strict_checks(num_rounds: int, seed: int) -> list[Check]:
    """Strict vs default runs: invariants hold AND results stay identical."""
    from repro.bandits.policies import UCBPolicy
    from repro.faults.model import FaultSpec
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import TradingSimulator

    config = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                              num_rounds=num_rounds, seed=seed)
    checks = []
    for label, spec in (
            ("clean", None),
            ("faulty", FaultSpec(dropout_rate=0.2, corruption_rate=0.05,
                                 stall_rate=0.05))):

        def run(strict: bool):
            simulator = TradingSimulator(config)
            fault_model = (simulator.fault_model(spec)
                           if spec is not None else None)
            return simulator.run(UCBPolicy(), fault_model=fault_model,
                                 strict=strict)

        default = run(strict=False)
        try:
            field = first_diverging_field(default, run(strict=True))
        except InvariantViolationError as error:
            checks.append(Check(label, False,
                                f"{label} run violated an invariant: "
                                f"{error}"))
            continue
        checks.append(Check(
            label, field is None,
            f"strict {label} run of {num_rounds} rounds: all invariants "
            "held, results bit-identical to the default run"
            if field is None else
            f"strict {label} run diverged from the default run in "
            f"{field} — the monitor must not perturb results",
        ))
    return checks


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
        Seed for the oracle suite's randomized game instances, the
        strict-mode and batch-equivalence configs, and the kernels
        histories.
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
        raise ConfigurationError(
            f"unknown verification sections {sorted(unknown)}; "
            f"valid: {list(SECTIONS)}"
        )
    legs = {
        "oracles": lambda: run_oracle_suite(seed=seed,
                                            num_cases=oracle_cases),
        "goldens": lambda: verify_goldens(goldens_dir, GOLDEN_CASES,
                                          tolerance),
        "strict": lambda: _run_strict_checks(strict_rounds, seed),
        "runtime": lambda: check_runtime(seed=seed, goldens_dir=goldens_dir,
                                         tolerance=tolerance),
        "kernels": lambda: check_kernels(seed=seed),
    }
    return VerificationReport({name: legs[name]() for name in SECTIONS
                               if name in wanted})
