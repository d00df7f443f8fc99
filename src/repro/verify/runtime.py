"""Runtime verification: batch-equivalence oracle + churn golden trace.

Two checks make up ``repro verify --only runtime``:

1. **Batch equivalence (differential oracle)** — a static-population
   :class:`~repro.runtime.MarketRuntime` run must be *bit-identical* to
   :class:`~repro.sim.engine.TradingSimulator` on the same seed, across
   every :data:`~repro.sim.results.SERIES_FIELDS` array, and its trade
   ledger must agree with its own metric series row for row.  The two
   engines share the round bodies (:mod:`repro.sim.rounds`) and RNG
   stream construction, so any divergence means the event re-hosting
   perturbed the simulation.
2. **Churn golden trace** — :data:`~repro.verify.golden.RUNTIME_GOLDEN_CASE`
   against its checked-in golden, through the golden store
   (:func:`~repro.verify.golden.verify_goldens`).  Same seed + same
   event script → same ledger, or verify fails.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import SimulationConfig
from repro.verify.compare import (
    DEFAULT_TOLERANCE,
    Check,
    ToleranceSpec,
    first_diverging_field,
)
from repro.verify.golden import RUNTIME_GOLDEN_CASE, verify_goldens

__all__ = ["check_batch_equivalence", "check_runtime"]


def check_batch_equivalence(*, seed: int = 0, num_rounds: int = 60) -> Check:
    """Static-population runtime vs batch engine, bit for bit.

    On failure the detail names the first diverging field.
    """
    from repro.bandits.policies import UCBPolicy
    from repro.runtime.market import MarketRuntime
    from repro.sim.engine import TradingSimulator

    def fail(detail: str) -> Check:
        return Check("batch-equivalence", False, detail)

    config = SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                              num_rounds=num_rounds, seed=seed)
    batch = TradingSimulator(config).run(UCBPolicy())
    runtime = MarketRuntime(config)
    live = runtime.run()
    field = first_diverging_field(batch, live)
    if field is not None:
        return fail(
            f"runtime diverged from the batch engine in {field} "
            f"(seed {seed}, {num_rounds} rounds) — the event "
            "re-hosting must not perturb the simulation"
        )
    ledger = runtime.ledger
    if len(ledger) != num_rounds:
        return fail(f"trade ledger has {len(ledger)} records for "
                    f"{num_rounds} rounds")
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
            return fail(f"trade ledger disagrees with the metric series "
                        f"at round {t}")
    return Check(
        "batch-equivalence", True,
        f"static-population runtime bit-identical to the batch engine "
        f"over {num_rounds} rounds (seed {seed}); ledger consistent "
        "with the metric series"
    )


def check_runtime(*, seed: int = 0, num_rounds: int = 60,
                  goldens_dir: str | None = None,
                  tolerance: ToleranceSpec = DEFAULT_TOLERANCE,
                  ) -> list[Check]:
    """The batch-equivalence check, then the churn-golden check."""
    return [check_batch_equivalence(seed=seed, num_rounds=num_rounds),
            *verify_goldens(goldens_dir, (RUNTIME_GOLDEN_CASE,), tolerance)]
