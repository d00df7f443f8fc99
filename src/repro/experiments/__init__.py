"""Experiment drivers — one module per paper table/figure.

Importing this package registers every experiment; run them via::

    from repro.experiments import run_experiment, Scale
    result = run_experiment("fig7", Scale.SMALL)
    print(result.to_text())

or from the command line: ``python -m repro run fig7``.
"""

from repro.experiments import (  # imported for registration
    fig07_revenue_regret_vs_n,
    fig08_delta_profit_vs_n,
    fig09_revenue_regret_vs_m,
    fig10_delta_profit_vs_m,
    fig11_revenue_regret_vs_k,
    fig12_avg_profit_vs_k,
    fig13_poc_vs_price,
    fig14_profit_vs_sensing_time,
    fig15_profit_vs_cost_a6,
    fig16_strategy_vs_cost_a6,
    fig17_profit_vs_theta,
    fig18_strategy_vs_theta,
    illustrative,
    tables,
)
from repro.experiments.hs_setup import RoundSetup, build_round_game, solve_round
from repro.experiments.registry import (
    ExperimentResult,
    Scale,
    Series,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.reporting import (
    ascii_chart,
    render_experiment,
    sparkline,
)
from repro.experiments.sweeps import (
    PAPER_POLICY_SET,
    SweepPoint,
    default_policies,
    run_parameter_sweep,
)

# Imported last (it depends on the registry above): registers the
# extension experiments (ext-drift, ext-poa, ext-replication).
import repro.extensions  # noqa: E402

__all__ = [
    "Scale",
    "Series",
    "ExperimentResult",
    "run_experiment",
    "get_experiment",
    "list_experiments",
    "PAPER_POLICY_SET",
    "default_policies",
    "run_parameter_sweep",
    "SweepPoint",
    "RoundSetup",
    "build_round_game",
    "solve_round",
    "sparkline",
    "ascii_chart",
    "render_experiment",
]
