"""Result containers of trading simulations.

A :class:`RunMetrics` holds the per-round series of one policy's run; a
:class:`PolicyComparison` groups runs of several policies on the same
instance and computes the paper's Delta-metrics against the omniscient
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["RunMetrics", "PolicyComparison", "SERIES_FIELDS"]

#: The :class:`RunMetrics` arrays of a run: everything but the name and
#: the wall-clock telemetry.  Goldens, saved runs and every bit-identity
#: check read this one tuple; golden files serialise in this order.
SERIES_FIELDS = (
    "realized_revenue", "expected_revenue", "regret", "consumer_profit",
    "platform_profit", "seller_profit_mean", "service_price",
    "collection_price", "total_sensing_time", "estimation_error",
    "selection_counts",
)


@dataclass(frozen=True)
class RunMetrics:
    """Per-round series of one simulation run.

    All arrays have length ``N`` (the number of rounds).

    Attributes
    ----------
    policy_name:
        Display name of the policy.
    realized_revenue:
        Observed quality totals per round (Definition 8's revenue).
    expected_revenue:
        Ground-truth expected revenue per round (``L * sum q_i``).
    regret:
        *Cumulative* pseudo-regret after each round (Eq. 34).
    consumer_profit, platform_profit, seller_profit_mean:
        PoC, PoP, PoS(s) per round; PoS(s) is the mean profit per
        selected seller (DESIGN.md deviation #4).
    service_price, collection_price:
        SoC and SoP per round.
    total_sensing_time:
        Sum of the selected sellers' sensing times per round.
    selection_counts:
        How many times each seller was selected, shape ``(M,)``.
    estimation_error:
        Mean absolute quality-estimation error ``mean_i |qbar_i - q_i|``
        after each round (never-observed sellers count at their prior).
    telemetry:
        Snapshot of the run's :class:`~repro.obs.MetricsRegistry`
        (counters / gauges / timers) when one was attached to the run;
        ``None`` otherwise.  Purely informational: never part of the
        persisted series and never compared between runs.
    """

    policy_name: str
    realized_revenue: np.ndarray
    expected_revenue: np.ndarray
    regret: np.ndarray
    consumer_profit: np.ndarray
    platform_profit: np.ndarray
    seller_profit_mean: np.ndarray
    service_price: np.ndarray
    collection_price: np.ndarray
    total_sensing_time: np.ndarray
    selection_counts: np.ndarray
    estimation_error: np.ndarray
    telemetry: dict | None = None

    def __post_init__(self) -> None:
        n = self.realized_revenue.size
        for name in ("expected_revenue", "regret", "consumer_profit",
                     "platform_profit", "seller_profit_mean",
                     "service_price", "collection_price",
                     "total_sensing_time", "estimation_error"):
            if getattr(self, name).size != n:
                raise ConfigurationError(
                    f"series {name!r} has length {getattr(self, name).size}, "
                    f"expected {n}"
                )

    @property
    def num_rounds(self) -> int:
        """Number of rounds in the run."""
        return int(self.realized_revenue.size)

    @property
    def total_realized_revenue(self) -> float:
        """Total revenue over the whole run (the Fig. 7/9/11 y-axis)."""
        return float(self.realized_revenue.sum())

    @property
    def total_expected_revenue(self) -> float:
        """Total expected revenue over the whole run."""
        return float(self.expected_revenue.sum())

    @property
    def final_regret(self) -> float:
        """Cumulative pseudo-regret at the end of the run."""
        return float(self.regret[-1])

    @property
    def final_estimation_error(self) -> float:
        """Mean absolute quality-estimation error after the last round."""
        return float(self.estimation_error[-1])

    @property
    def mean_consumer_profit(self) -> float:
        """Average PoC per round."""
        return float(self.consumer_profit.mean())

    @property
    def mean_platform_profit(self) -> float:
        """Average PoP per round."""
        return float(self.platform_profit.mean())

    @property
    def mean_seller_profit(self) -> float:
        """Average PoS(s) per round."""
        return float(self.seller_profit_mean.mean())

    def summary(self) -> dict[str, float]:
        """The headline scalars of this run, keyed by metric name."""
        return {
            "total_revenue": self.total_realized_revenue,
            "expected_revenue": self.total_expected_revenue,
            "regret": self.final_regret,
            "mean_poc": self.mean_consumer_profit,
            "mean_pop": self.mean_platform_profit,
            "mean_pos": self.mean_seller_profit,
        }


@dataclass
class PolicyComparison:
    """Runs of several policies on the same simulated instance.

    Attributes
    ----------
    runs:
        Mapping from policy display name to its metrics.
    optimal_name:
        Which run is the omniscient reference for Delta-metrics.
    """

    runs: dict[str, RunMetrics] = field(default_factory=dict)
    optimal_name: str = "optimal"

    def add(self, metrics: RunMetrics) -> None:
        """Register one policy's run (name must be unique)."""
        if metrics.policy_name in self.runs:
            raise ConfigurationError(
                f"duplicate run for policy {metrics.policy_name!r}"
            )
        self.runs[metrics.policy_name] = metrics

    def __getitem__(self, policy_name: str) -> RunMetrics:
        return self.runs[policy_name]

    def __contains__(self, policy_name: str) -> bool:
        return policy_name in self.runs

    @property
    def optimal(self) -> RunMetrics:
        """The omniscient reference run.

        Raises
        ------
        ConfigurationError
            If no run named ``optimal_name`` was added.
        """
        if self.optimal_name not in self.runs:
            raise ConfigurationError(
                f"no {self.optimal_name!r} run registered for Delta-metrics"
            )
        return self.runs[self.optimal_name]

    def delta_profits(self, policy_name: str) -> dict[str, float]:
        """The paper's Delta-PoC / Delta-PoP / Delta-PoS(s) metrics.

        Defined as the *average per-round* profit difference between the
        optimal algorithm and the given one (Section V-B): positive when
        the policy under-performs the omniscient reference.
        """
        run = self.runs[policy_name]
        reference = self.optimal
        return {
            "delta_poc": reference.mean_consumer_profit - run.mean_consumer_profit,
            "delta_pop": reference.mean_platform_profit - run.mean_platform_profit,
            "delta_pos": reference.mean_seller_profit - run.mean_seller_profit,
        }

    def revenue_table(self) -> list[tuple[str, float, float]]:
        """(policy, total revenue, final regret) rows, insertion order."""
        return [
            (name, run.total_realized_revenue, run.final_regret)
            for name, run in self.runs.items()
        ]
