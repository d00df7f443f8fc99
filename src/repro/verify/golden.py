"""Golden-trace regression store.

A *golden* is the output of one canonical seeded run serialized to a
checked-in JSON file.  Verifying re-runs the identical configuration
and diffs the fresh numbers against the stored ones with a tight
tolerance: any unintended change to the engine, solvers, learner,
fault handling or event runtime shows up as a concrete
``path: expected != actual`` drift report instead of silently shifting
the paper's figures.

Two case types share the store, and each computes its own payload:

* :class:`GoldenCase` — a batch-engine run, pinned by every
  :class:`~repro.sim.results.RunMetrics` series plus the summary
  scalars.  The three :data:`GOLDEN_CASES` cover a plain CMAB-HS run,
  the ``K = M`` corner where selection and exploration pricing
  degenerate, and a fault-injected run exercising the degradation
  paths (``repro verify --only goldens``).
* :class:`RuntimeGoldenCase` — one churning
  :class:`~repro.runtime.MarketRuntime` run (seeded arrivals and
  departures with sinusoidal drift), pinned by its trade ledger's
  SHA-256 digest exactly and its summary scalars and session/message
  counters within the tolerance (:data:`RUNTIME_GOLDEN_CASE`, checked
  by ``repro verify --only runtime``).

Goldens are written through the same
:func:`~repro.sim.persistence.atomic_write_json` /
:func:`~repro.sim.persistence.normalize_json_value` pipeline as
experiment results, so float formatting and NaN/inf handling cannot
diverge between the two stores.  Intentional changes are blessed with
``repro verify --update-goldens``, which rewrites all four files for
review in the diff.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

from repro.exceptions import PersistenceError
from repro.faults.model import FaultSpec
from repro.sim.config import SimulationConfig
from repro.sim.persistence import atomic_write_json, denormalize_json_value
from repro.sim.results import SERIES_FIELDS
from repro.verify.compare import (
    DEFAULT_TOLERANCE,
    Check,
    ToleranceSpec,
    diff_values,
    join_problems,
)

__all__ = [
    "GoldenCase",
    "RuntimeGoldenCase",
    "GOLDEN_CASES",
    "RUNTIME_GOLDEN_CASE",
    "golden_directory",
    "golden_path",
    "update_goldens",
    "verify_goldens",
]


@dataclass(frozen=True)
class _RunCase:
    """The seeded run every golden case pins.

    Attributes
    ----------
    name:
        Stable identifier; also the golden's file stem.
    num_sellers, num_selected, num_pois, num_rounds, seed:
        The :class:`~repro.sim.config.SimulationConfig` overrides (all
        other parameters use the Table-II defaults).
    """

    name: str
    num_sellers: int
    num_selected: int
    num_pois: int
    num_rounds: int
    seed: int

    def config(self) -> SimulationConfig:
        """The simulation configuration this case runs."""
        return SimulationConfig(
            num_sellers=self.num_sellers,
            num_selected=self.num_selected,
            num_pois=self.num_pois,
            num_rounds=self.num_rounds,
            seed=self.seed,
        )


@dataclass(frozen=True)
class GoldenCase(_RunCase):
    """One canonical seeded batch-engine run.

    Attributes
    ----------
    dropout_rate, corruption_rate, stall_rate:
        Fault-injection probabilities; all zero means a clean run.
    """

    dropout_rate: float = 0.0
    corruption_rate: float = 0.0
    stall_rate: float = 0.0

    def fault_spec(self) -> FaultSpec | None:
        """The fault probabilities, or ``None`` for a clean run."""
        spec = FaultSpec(dropout_rate=self.dropout_rate,
                         corruption_rate=self.corruption_rate,
                         stall_rate=self.stall_rate)
        return spec if spec.enabled else None

    def compute(self, *, strict: bool = False) -> dict:
        """Run the case from scratch and return its golden payload.

        The payload embeds the case parameters themselves, so editing
        :data:`GOLDEN_CASES` without regenerating the files is itself a
        detected drift.
        """
        # Imported here, not at module level: the engine's strict mode
        # imports this package, and import cycles bite at module level.
        from repro.bandits.policies import UCBPolicy
        from repro.sim.engine import TradingSimulator

        simulator = TradingSimulator(self.config())
        spec = self.fault_spec()
        fault_model = (simulator.fault_model(spec) if spec is not None
                       else None)
        metrics = simulator.run(UCBPolicy(), fault_model=fault_model,
                                strict=strict)
        return {
            "case": asdict(self),
            "policy": metrics.policy_name,
            "summary": metrics.summary(),
            "series": {field: getattr(metrics, field).tolist()
                       for field in SERIES_FIELDS},
        }


@dataclass(frozen=True)
class RuntimeGoldenCase(_RunCase):
    """The canonical churning event-runtime run."""

    arrival_rate: float
    departure_rate: float
    min_online: int
    drift_amplitude: float
    drift_period: float

    def compute(self) -> dict:
        """Run the case from scratch and return its golden payload."""
        from repro.quality.drift import SinusoidalDrift
        from repro.runtime.arrivals import ChurnSpec
        from repro.runtime.market import MarketRuntime

        spec = ChurnSpec(
            arrival_rate=self.arrival_rate,
            departure_rate=self.departure_rate,
            min_online=self.min_online,
            drift=SinusoidalDrift(amplitude=self.drift_amplitude,
                                  period=self.drift_period),
        )
        runtime = MarketRuntime(self.config(), churn=spec)
        metrics = runtime.run()
        return {
            "case": asdict(self),
            "policy": metrics.policy_name,
            "ledger_digest": runtime.ledger.digest(),
            "summary": metrics.summary(),
            "sessions_opened": runtime.sessions_opened,
            "sessions_closed": runtime.sessions_closed,
            "messages_delivered": runtime.kernel.messages_delivered,
            "messages_dropped": runtime.kernel.messages_dropped,
        }


#: The batch-engine cases ``repro verify --only goldens`` re-checks.
GOLDEN_CASES: tuple[GoldenCase, ...] = (
    GoldenCase("ucb-small", num_sellers=20, num_selected=4, num_pois=5,
               num_rounds=150, seed=0),
    GoldenCase("ucb-k-equals-m", num_sellers=6, num_selected=6, num_pois=4,
               num_rounds=80, seed=1),
    GoldenCase("ucb-faulty", num_sellers=15, num_selected=3, num_pois=5,
               num_rounds=120, seed=2, dropout_rate=0.15,
               corruption_rate=0.05, stall_rate=0.02),
)

#: The churn case ``repro verify --only runtime`` re-checks.
RUNTIME_GOLDEN_CASE = RuntimeGoldenCase(
    "runtime-churn", num_sellers=16, num_selected=4, num_pois=5,
    num_rounds=120, seed=5, arrival_rate=0.25, departure_rate=0.12,
    min_online=2, drift_amplitude=0.5, drift_period=40.0,
)

GoldenLike = GoldenCase | RuntimeGoldenCase


def golden_directory() -> str:
    """The checked-in directory holding the golden JSON files."""
    return os.path.join(os.path.dirname(__file__), "goldens")


def golden_path(case: GoldenLike, directory: str | None = None) -> str:
    """Where ``case``'s golden file lives."""
    base = directory if directory is not None else golden_directory()
    return os.path.join(base, f"{case.name}.json")


def update_goldens(directory: str | None = None,
                   cases: tuple[GoldenLike, ...] = (
                       *GOLDEN_CASES, RUNTIME_GOLDEN_CASE),
                   ) -> list[str]:
    """Recompute and rewrite every golden file; returns the paths written."""
    base = directory if directory is not None else golden_directory()
    os.makedirs(base, exist_ok=True)
    paths = []
    for case in cases:
        path = golden_path(case, base)
        atomic_write_json(path, case.compute())
        paths.append(path)
    return paths


def verify_goldens(directory: str | None = None,
                   cases: tuple[GoldenLike, ...] = GOLDEN_CASES,
                   tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                   ) -> list[Check]:
    """Re-run every case and diff it against its stored golden.

    One :class:`~repro.verify.compare.Check` per case, named after it;
    a failing check's detail lists the mismatches.  A missing golden
    file fails its case with a pointer at the update command rather
    than raising, so one absent file does not mask drift in the others.

    Raises
    ------
    PersistenceError
        If a golden file exists but is not valid JSON.
    """
    checks = []
    for case in cases:
        path = golden_path(case, directory)
        if not os.path.exists(path):
            checks.append(Check(
                case.name, False,
                f"golden file {path} does not exist — bless it with "
                "'repro verify --update-goldens'",
            ))
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                expected = denormalize_json_value(json.load(handle))
        except json.JSONDecodeError as error:
            raise PersistenceError(
                f"golden file {path} is corrupt: {error}"
            ) from error
        mismatches = diff_values(expected, case.compute(), tolerance)
        count = len(mismatches)
        checks.append(Check(
            case.name, not mismatches,
            f"{count} mismatch{'es' if count != 1 else ''}: "
            + join_problems([mismatch.describe() for mismatch in mismatches])
            if mismatches else f"matches {path}",
        ))
    return checks
