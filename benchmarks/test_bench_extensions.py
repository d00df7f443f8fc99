"""Benches for the extension experiments (beyond the paper).

* ``ext-drift`` — sliding-window UCB under drifting qualities;
* budgeted trading — revenue within a fixed consumer budget.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.bandits.policies import OptimalPolicy, RandomPolicy, UCBPolicy
from repro.experiments import run_experiment
from repro.extensions.budget import run_budgeted_comparison
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator


def test_ext_drift(benchmark, scale):
    result = run_once(benchmark, run_experiment, "ext-drift", scale)
    print()
    print(result.to_text())
    gains = result.series("window_gain", "sw-ucb gain over vanilla (%)")
    # The window's relative standing improves as drift grows.
    assert gains.y[-1] > gains.y[0]
    # Learning (either variant) beats random at every amplitude.
    random = result.series("total_revenue", "random").y
    vanilla = result.series("total_revenue", "CMAB-HS").y
    assert np.all(vanilla > random)


def test_ext_price_of_anarchy(benchmark, scale):
    result = run_once(benchmark, run_experiment, "ext-poa", scale)
    print()
    print(result.to_text())
    poa = result.series("price_of_anarchy", "optimal / SE").y
    assert np.all(poa >= 1.0 - 1e-9)
    # The hierarchy is quite efficient at paper parameters but never
    # exactly optimal: the SE under-provides sensing time.
    se_time = result.series("total_sensing_time", "SE").y
    opt_time = result.series("total_sensing_time", "social optimum").y
    assert np.all(opt_time > se_time)
    # Welfare grows with omega for both regimes.
    for label in ("SE welfare", "optimal welfare"):
        series = result.series("welfare", label)
        assert np.all(np.diff(series.y) > 0.0), label


def test_ext_replication(benchmark, scale):
    result = run_once(benchmark, run_experiment, "ext-replication", scale)
    print()
    print(result.to_text())
    means = result.series("revenue", "mean").y
    # Ordering stable under replication: optimal > CMAB-HS > random
    # (policy indices 0, 1, 4 per the x_label).
    assert means[0] > means[1] > means[4]
    note = next(n for n in result.notes if "separation" in n)
    separation = float(note.split(":")[1].split("pooled")[0])
    assert separation > 3.0


def test_ext_budgeted_trading(benchmark, scale):
    def compare():
        config = SimulationConfig(num_sellers=40, num_selected=6,
                                  num_pois=5, num_rounds=1_500, seed=9)
        simulator = TradingSimulator(config)
        policies = [
            OptimalPolicy(simulator.population.expected_qualities),
            UCBPolicy(),
            RandomPolicy(),
        ]
        return run_budgeted_comparison(simulator, policies,
                                       budget=100_000.0)

    comparison = run_once(benchmark, compare)
    print()
    print(f"budget = {comparison.budget:.0f}")
    print(comparison.to_table())
    optimal = comparison.runs["optimal"]
    random = comparison.runs["random"]
    # A budget-limited consumer gets more quality per unit budget from
    # the quality-aware policies.
    assert (optimal.revenue_per_unit_budget
            > random.revenue_per_unit_budget)
