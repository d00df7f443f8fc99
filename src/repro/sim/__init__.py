"""Trading-simulation engine, configuration, metrics, and results."""

from repro.sim.config import TABLE_II, SimulationConfig
from repro.sim.engine import TradingSimulator, run_seed_comparison
from repro.sim.metrics import (
    delta_profit_series,
    moving_average,
    regret_growth_rate,
    revenue_share,
)
from repro.sim.persistence import (
    experiment_result_from_dict,
    load_checkpoint,
    load_experiment_result,
    load_run_metrics,
    save_checkpoint,
    save_experiment_result,
    save_run_metrics,
)
from repro.sim.replication import (
    MetricSummary,
    ReplicationResult,
    replicate_comparison,
)
from repro.sim.results import PolicyComparison, RunMetrics
from repro.sim.rng import RngFactory

__all__ = [
    "SimulationConfig",
    "TABLE_II",
    "TradingSimulator",
    "run_seed_comparison",
    "RunMetrics",
    "PolicyComparison",
    "RngFactory",
    "delta_profit_series",
    "moving_average",
    "regret_growth_rate",
    "revenue_share",
    "save_run_metrics",
    "load_run_metrics",
    "save_experiment_result",
    "load_experiment_result",
    "save_checkpoint",
    "load_checkpoint",
    "experiment_result_from_dict",
    "MetricSummary",
    "ReplicationResult",
    "replicate_comparison",
]
