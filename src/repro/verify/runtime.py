"""Runtime verification: batch-equivalence oracle + churn golden trace.

Two legs, both part of ``repro verify --only runtime``:

1. **Batch equivalence (differential oracle)** — a static-population
   :class:`~repro.runtime.MarketRuntime` run must be *bit-identical* to
   :class:`~repro.sim.engine.TradingSimulator` on the same seed, across
   every :class:`~repro.sim.results.RunMetrics` field the strict-mode
   check pins, and its trade ledger must agree with its own metric
   series row for row.  The two engines share the round bodies
   (:mod:`repro.sim.rounds`) and RNG stream construction, so any
   divergence means the event re-hosting perturbed the simulation.
2. **Churn golden trace** — one canonical churning runtime run (seeded
   arrivals/departures with sinusoidal intensity drift) is pinned by a
   checked-in JSON golden: the trade ledger's SHA-256 digest exactly,
   the summary scalars and session/message counters within the golden
   tolerance.  Same seed + same event script → same ledger, or verify
   fails.

Intentional changes are blessed with ``repro verify --update-goldens``,
which rewrites the churn golden alongside the engine goldens.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from repro.exceptions import PersistenceError
from repro.sim.config import SimulationConfig
from repro.sim.persistence import atomic_write_json, denormalize_json_value
from repro.verify.compare import (
    DEFAULT_TOLERANCE,
    Mismatch,
    ToleranceSpec,
    diff_values,
)

__all__ = [
    "RuntimeGoldenCase",
    "RUNTIME_GOLDEN_CASE",
    "RuntimeCheckResult",
    "check_batch_equivalence",
    "compute_runtime_golden",
    "update_runtime_golden",
    "verify_runtime_golden",
    "check_runtime",
]

#: RunMetrics fields the batch-equivalence oracle compares bit-for-bit
#: (the same set the strict-mode check pins; telemetry is wall-clock).
_EQUIVALENCE_FIELDS = (
    "realized_revenue", "expected_revenue", "regret", "consumer_profit",
    "platform_profit", "seller_profit_mean", "service_price",
    "collection_price", "total_sensing_time", "selection_counts",
    "estimation_error",
)


@dataclass(frozen=True)
class RuntimeGoldenCase:
    """The canonical churning runtime run the golden store pins."""

    name: str
    num_sellers: int
    num_selected: int
    num_pois: int
    num_rounds: int
    seed: int
    arrival_rate: float
    departure_rate: float
    min_online: int
    drift_amplitude: float
    drift_period: float

    def config(self) -> SimulationConfig:
        """The simulation configuration this case runs."""
        return SimulationConfig(
            num_sellers=self.num_sellers,
            num_selected=self.num_selected,
            num_pois=self.num_pois,
            num_rounds=self.num_rounds,
            seed=self.seed,
        )


#: The checked-in churn case (file stem = case name).
RUNTIME_GOLDEN_CASE = RuntimeGoldenCase(
    "runtime-churn", num_sellers=16, num_selected=4, num_pois=5,
    num_rounds=120, seed=5, arrival_rate=0.25, departure_rate=0.12,
    min_online=2, drift_amplitude=0.5, drift_period=40.0,
)


@dataclass(frozen=True)
class RuntimeCheckResult:
    """Outcome of the runtime section.

    Attributes
    ----------
    equivalence_passed / equivalence_detail:
        The batch-equivalence oracle's verdict and narrative.
    golden_mismatches:
        Drift of the churn golden (empty = clean).
    """

    equivalence_passed: bool
    equivalence_detail: str
    golden_mismatches: list[Mismatch]

    @property
    def passed(self) -> bool:
        """Whether both legs are clean."""
        return self.equivalence_passed and not self.golden_mismatches

    def to_dict(self) -> dict:
        """JSON-ready payload for the ``--report`` artefact."""
        return {
            "passed": self.passed,
            "equivalence": {"passed": self.equivalence_passed,
                            "detail": self.equivalence_detail},
            "golden": {
                "passed": not self.golden_mismatches,
                "mismatches": [mismatch.describe()
                               for mismatch in self.golden_mismatches],
            },
        }


def check_batch_equivalence(*, seed: int = 0,
                            num_rounds: int = 60) -> tuple[bool, str]:
    """Static-population runtime vs batch engine, bit for bit.

    Returns ``(passed, detail)``; the detail names the first diverging
    field on failure.
    """
    from repro.bandits.policies import UCBPolicy
    from repro.runtime.market import MarketRuntime
    from repro.sim.engine import TradingSimulator

    config = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                              num_rounds=num_rounds, seed=seed)
    batch = TradingSimulator(config).run(UCBPolicy())
    runtime = MarketRuntime(config)
    live = runtime.run()
    for field in _EQUIVALENCE_FIELDS:
        if not np.array_equal(np.asarray(getattr(batch, field)),
                              np.asarray(getattr(live, field))):
            return False, (
                f"runtime diverged from the batch engine in {field} "
                f"(seed {seed}, {num_rounds} rounds) — the event "
                "re-hosting must not perturb the simulation"
            )
    ledger = runtime.ledger
    if len(ledger) != num_rounds:
        return False, (
            f"trade ledger has {len(ledger)} records for {num_rounds} "
            "rounds"
        )
    for record in ledger.records:
        t = record.round_index
        # Bit-exact on purpose: the ledger is written from the same
        # settled values the series hold.
        settled = np.array([record.service_price, record.collection_price,
                            record.tau_total, record.realized])
        series_row = np.array([live.service_price[t],
                               live.collection_price[t],
                               live.total_sensing_time[t],
                               live.realized_revenue[t]])
        if not np.array_equal(settled, series_row):
            return False, (
                f"trade ledger disagrees with the metric series at "
                f"round {t}"
            )
    return True, (
        f"static-population runtime bit-identical to the batch engine "
        f"over {num_rounds} rounds (seed {seed}); ledger consistent "
        "with the metric series"
    )


def compute_runtime_golden(
        case: RuntimeGoldenCase = RUNTIME_GOLDEN_CASE) -> dict:
    """Run the churn case from scratch and return its golden payload."""
    from repro.quality.drift import SinusoidalDrift
    from repro.runtime.arrivals import ChurnSpec
    from repro.runtime.market import MarketRuntime

    spec = ChurnSpec(
        arrival_rate=case.arrival_rate,
        departure_rate=case.departure_rate,
        min_online=case.min_online,
        drift=SinusoidalDrift(amplitude=case.drift_amplitude,
                              period=case.drift_period),
    )
    runtime = MarketRuntime(case.config(), churn=spec)
    metrics = runtime.run()
    return {
        "case": asdict(case),
        "policy": metrics.policy_name,
        "ledger_digest": runtime.ledger.digest(),
        "summary": metrics.summary(),
        "sessions_opened": runtime.sessions_opened,
        "sessions_closed": runtime.sessions_closed,
        "messages_delivered": runtime.kernel.messages_delivered,
        "messages_dropped": runtime.kernel.messages_dropped,
    }


def _golden_path(directory: str | None = None) -> str:
    from repro.verify.golden import golden_directory

    base = directory if directory is not None else golden_directory()
    return os.path.join(base, f"{RUNTIME_GOLDEN_CASE.name}.json")


def update_runtime_golden(directory: str | None = None) -> str:
    """Recompute and rewrite the churn golden; returns the path."""
    path = _golden_path(directory)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_json(path, compute_runtime_golden())
    return path


def verify_runtime_golden(directory: str | None = None,
                          tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                          ) -> list[Mismatch]:
    """Re-run the churn case and diff against its stored golden.

    The ledger digest is a string, so any bit of drift in any settled
    trade fails exactly; the float summary uses the golden tolerance.
    """
    path = _golden_path(directory)
    if not os.path.exists(path):
        return [Mismatch(
            "", "<golden file>", "<missing>",
            f"runtime golden {path} does not exist — bless it with "
            "'repro verify --update-goldens'",
        )]
    try:
        with open(path, encoding="utf-8") as handle:
            expected = denormalize_json_value(json.load(handle))
    except json.JSONDecodeError as error:
        raise PersistenceError(
            f"runtime golden {path} is corrupt: {error}"
        ) from error
    return diff_values(expected, compute_runtime_golden(), tolerance)


def check_runtime(*, seed: int = 0, num_rounds: int = 60,
                  goldens_dir: str | None = None,
                  tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                  ) -> RuntimeCheckResult:
    """Run both runtime legs and collect one result."""
    passed, detail = check_batch_equivalence(seed=seed,
                                             num_rounds=num_rounds)
    mismatches = verify_runtime_golden(goldens_dir, tolerance)
    return RuntimeCheckResult(equivalence_passed=passed,
                              equivalence_detail=detail,
                              golden_mismatches=mismatches)
