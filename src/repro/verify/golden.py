"""Golden-trace regression store.

A *golden* is the full per-round output of one canonical seeded
simulation — every :class:`~repro.sim.results.RunMetrics` series plus
the summary scalars — serialized to a checked-in JSON file.  Verifying
re-runs the identical configuration and diffs the fresh numbers against
the stored ones with a tight tolerance: any unintended change to the
engine, solvers, learner, or fault handling shows up as a concrete
``path: expected != actual`` drift report instead of silently shifting
the paper's figures.

The canonical cases are deliberately small (seconds, not minutes) but
cover the engine's distinct regimes: a plain CMAB-HS run, the ``K = M``
corner where selection and exploration pricing degenerate, and a
fault-injected run exercising the degradation paths.

Goldens are written through the same
:func:`~repro.sim.persistence.atomic_write_json` /
:func:`~repro.sim.persistence.normalize_json_value` pipeline as sweep
checkpoints, so float formatting and NaN/inf handling cannot diverge
between the two stores.  Intentional changes are blessed with
``repro verify --update-goldens`` (regenerating the files for review in
the diff).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

from repro.exceptions import PersistenceError
from repro.faults.model import FaultSpec
from repro.sim.config import SimulationConfig
from repro.sim.persistence import atomic_write_json, denormalize_json_value
from repro.verify.compare import (
    DEFAULT_TOLERANCE,
    Mismatch,
    ToleranceSpec,
    diff_values,
)

__all__ = [
    "GoldenCase",
    "GOLDEN_CASES",
    "golden_directory",
    "golden_path",
    "compute_golden",
    "update_goldens",
    "verify_goldens",
]

#: RunMetrics array fields pinned per round (everything but telemetry,
#: which carries wall-clock timers and is intentionally unpinned).
_SERIES_FIELDS = (
    "realized_revenue", "expected_revenue", "regret", "consumer_profit",
    "platform_profit", "seller_profit_mean", "service_price",
    "collection_price", "total_sensing_time", "estimation_error",
    "selection_counts",
)


@dataclass(frozen=True)
class GoldenCase:
    """One canonical seeded run pinned by the golden store.

    Attributes
    ----------
    name:
        Stable identifier; also the golden's file stem.
    num_sellers, num_selected, num_pois, num_rounds, seed:
        The :class:`~repro.sim.config.SimulationConfig` overrides (all
        other parameters use the Table-II defaults).
    dropout_rate, corruption_rate, stall_rate:
        Fault-injection probabilities; all zero means a clean run.
    """

    name: str
    num_sellers: int
    num_selected: int
    num_pois: int
    num_rounds: int
    seed: int
    dropout_rate: float = 0.0
    corruption_rate: float = 0.0
    stall_rate: float = 0.0

    def config(self) -> SimulationConfig:
        """The simulation configuration this case runs."""
        return SimulationConfig(
            num_sellers=self.num_sellers,
            num_selected=self.num_selected,
            num_pois=self.num_pois,
            num_rounds=self.num_rounds,
            seed=self.seed,
        )

    def fault_spec(self) -> FaultSpec | None:
        """The fault probabilities, or ``None`` for a clean run."""
        spec = FaultSpec(dropout_rate=self.dropout_rate,
                         corruption_rate=self.corruption_rate,
                         stall_rate=self.stall_rate)
        return spec if spec.enabled else None


#: The canonical cases every ``repro verify`` run re-checks.
GOLDEN_CASES: tuple[GoldenCase, ...] = (
    GoldenCase("ucb-small", num_sellers=20, num_selected=4, num_pois=5,
               num_rounds=150, seed=0),
    GoldenCase("ucb-k-equals-m", num_sellers=6, num_selected=6, num_pois=4,
               num_rounds=80, seed=1),
    GoldenCase("ucb-faulty", num_sellers=15, num_selected=3, num_pois=5,
               num_rounds=120, seed=2, dropout_rate=0.15,
               corruption_rate=0.05, stall_rate=0.02),
)


def golden_directory() -> str:
    """The checked-in directory holding the golden JSON files."""
    return os.path.join(os.path.dirname(__file__), "goldens")


def golden_path(case: GoldenCase, directory: str | None = None) -> str:
    """Where ``case``'s golden file lives."""
    base = directory if directory is not None else golden_directory()
    return os.path.join(base, f"{case.name}.json")


def compute_golden(case: GoldenCase, *, strict: bool = False) -> dict:
    """Run ``case`` from scratch and return its golden payload.

    The payload embeds the case parameters themselves, so editing
    :data:`GOLDEN_CASES` without regenerating the files is itself a
    detected drift.
    """
    # Imported here, not at module level: the engine's strict mode
    # imports this package, and import cycles bite at module level only.
    from repro.bandits.policies import UCBPolicy
    from repro.sim.engine import TradingSimulator

    simulator = TradingSimulator(case.config())
    spec = case.fault_spec()
    fault_model = simulator.fault_model(spec) if spec is not None else None
    metrics = simulator.run(UCBPolicy(), fault_model=fault_model,
                            strict=strict)
    series = {
        field: getattr(metrics, field).tolist() for field in _SERIES_FIELDS
    }
    return {
        "case": asdict(case),
        "policy": metrics.policy_name,
        "summary": metrics.summary(),
        "series": series,
    }


def update_goldens(directory: str | None = None,
                   cases: tuple[GoldenCase, ...] = GOLDEN_CASES) -> list[str]:
    """Recompute and rewrite every golden file; returns the paths written."""
    base = directory if directory is not None else golden_directory()
    os.makedirs(base, exist_ok=True)
    paths = []
    for case in cases:
        path = golden_path(case, base)
        atomic_write_json(path, compute_golden(case))
        paths.append(path)
    return paths


def _load_golden(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as error:
        raise PersistenceError(f"golden file {path} is corrupt: {error}") \
            from error
    return denormalize_json_value(payload)


def verify_goldens(directory: str | None = None,
                   cases: tuple[GoldenCase, ...] = GOLDEN_CASES,
                   tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                   ) -> dict[str, list[Mismatch]]:
    """Re-run every case and diff against its stored golden.

    Returns a mapping from case name to its mismatches — empty lists
    everywhere means no drift.  A missing golden file is reported as a
    single mismatch pointing at the update command rather than raised,
    so one absent file does not mask drift in the others.
    """
    results: dict[str, list[Mismatch]] = {}
    for case in cases:
        path = golden_path(case, directory)
        if not os.path.exists(path):
            results[case.name] = [Mismatch(
                "", "<golden file>", "<missing>",
                f"golden file {path} does not exist — bless it with "
                "'repro verify --update-goldens'",
            )]
            continue
        expected = _load_golden(path)
        actual = compute_golden(case)
        results[case.name] = diff_values(expected, actual, tolerance)
    return results
