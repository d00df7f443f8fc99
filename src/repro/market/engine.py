"""The multi-consumer market simulator.

Each round:

1. the platform ranks all sellers by their UCB indices (shared learning
   state — quality knowledge is the platform's asset, amortised across
   consumers);
2. an :class:`~repro.market.allocation.AllocationStrategy` partitions the
   top sellers into disjoint per-consumer sets;
3. each consumer's three-stage Stackelberg game is solved in closed form
   on its own set (its own ``omega``, shared platform cost parameters);
4. every allocated seller collects data; the shared state updates.

The result tracks per-consumer profit series and the platform's total
profit, so allocation strategies can be compared on welfare and fairness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.incentive import solve_round_fast
from repro.core.state import LearningState
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.market.allocation import AllocationStrategy
from repro.market.spec import ConsumerSpec
from repro.quality.distributions import (
    QualityModel,
    TruncatedGaussianQuality,
)
from repro.quality.sampler import QualitySampler
from repro.sim.rng import seed_sequence, seeded_generator
from repro.sim.rounds import PRIOR_MEAN, QUALITY_FLOOR

__all__ = ["MarketRunResult", "MarketSimulator"]


@dataclass
class MarketRunResult:
    """Per-consumer and platform outcomes of a market run.

    Attributes
    ----------
    allocation_name:
        The allocation strategy that produced the run.
    consumer_profits:
        ``consumer_id -> per-round profit array``.
    consumer_mean_quality:
        ``consumer_id -> per-round mean allocated estimated quality``.
    platform_profit:
        Per-round platform profit summed over all consumers' games.
    realized_revenue:
        Per-round observed quality total across all allocated sellers.
    """

    allocation_name: str
    consumer_profits: dict[int, np.ndarray]
    consumer_mean_quality: dict[int, np.ndarray]
    platform_profit: np.ndarray
    realized_revenue: np.ndarray

    @property
    def num_rounds(self) -> int:
        """Number of rounds in the run."""
        return int(self.platform_profit.size)

    def total_welfare(self) -> float:
        """Sum of all consumers' profits plus the platform's."""
        consumers = sum(
            float(series.sum()) for series in self.consumer_profits.values()
        )
        return consumers + float(self.platform_profit.sum())

    def fairness_gap(self) -> float:
        """Best-minus-worst mean consumer profit (0 = perfectly even)."""
        means = [float(series.mean())
                 for series in self.consumer_profits.values()]
        return max(means) - min(means)

    def consumer_totals(self) -> dict[int, float]:
        """Total profit per consumer."""
        return {
            consumer_id: float(series.sum())
            for consumer_id, series in self.consumer_profits.items()
        }


class MarketSimulator:
    """Simulates one platform serving several consumers.

    Parameters
    ----------
    population:
        The candidate sellers (shared by all consumers).
    specs:
        The consumers; their total demand ``sum k_c`` must not exceed the
        population size.
    theta, lam:
        Platform aggregation-cost parameters, applied per consumer's
        aggregation job.
    collection_price_bounds:
        The platform's price interval (shared across games).
    num_pois:
        PoIs per round (``L``) — drives the learning rate, as in the
        single-consumer mechanism.
    quality_model:
        Observation model; defaults to the truncated Gaussian around the
        population's qualities.
    seed:
        Master seed for observation noise and allocation randomness.
    """

    def __init__(self, population: SellerPopulation,
                 specs: list[ConsumerSpec], theta: float = 0.1,
                 lam: float = 1.0,
                 collection_price_bounds: tuple[float, float] = (0.0, 5.0),
                 num_pois: int = 10,
                 quality_model: QualityModel | None = None,
                 seed: int = 0) -> None:
        if not specs:
            raise ConfigurationError("a market needs at least one consumer")
        demand = sum(spec.k for spec in specs)
        if demand > len(population):
            raise ConfigurationError(
                f"consumers demand {demand} sellers per round but the "
                f"population has only {len(population)}"
            )
        ids = [spec.consumer_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("consumer ids must be unique")
        if num_pois <= 0:
            raise ConfigurationError(
                f"num_pois must be positive, got {num_pois}"
            )
        self._population = population
        self._specs = list(specs)
        self._theta = float(theta)
        self._lam = float(lam)
        self._col_bounds = collection_price_bounds
        self._num_pois = int(num_pois)
        self._seed = int(seed)
        if quality_model is None:
            quality_model = TruncatedGaussianQuality(
                population.expected_qualities
            )
        if quality_model.num_sellers != len(population):
            raise ConfigurationError(
                "quality model covers a different number of sellers than "
                "the population"
            )
        self._quality_model = quality_model

    @property
    def total_demand(self) -> int:
        """Sellers allocated per round across all consumers."""
        return sum(spec.k for spec in self._specs)

    def run(self, strategy: AllocationStrategy,
            num_rounds: int) -> MarketRunResult:
        """Run the market for ``num_rounds`` rounds under one strategy."""
        if num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {num_rounds}"
            )
        m = len(self._population)
        seq = seed_sequence([self._seed, 0xC0FFEE])
        obs_seed, alloc_seed = seq.spawn(2)
        sampler = QualitySampler(
            self._quality_model, self._num_pois,
            seeded_generator(obs_seed),
        )
        alloc_rng = seeded_generator(alloc_seed)
        state = LearningState(m, prior_mean=PRIOR_MEAN)
        cost_a_all = self._population.cost_a
        cost_b_all = self._population.cost_b
        coefficient = float(self.total_demand + 1)

        consumer_profits = {
            spec.consumer_id: np.empty(num_rounds) for spec in self._specs
        }
        mean_quality = {
            spec.consumer_id: np.empty(num_rounds) for spec in self._specs
        }
        platform = np.empty(num_rounds)
        revenue = np.empty(num_rounds)

        for t in range(num_rounds):
            if t == 0:
                ranked = alloc_rng.permutation(m)
            else:
                ucb = state.ucb_values(coefficient)
                ranked = np.argsort(-ucb, kind="stable")
            allocation = strategy.allocate(ranked, self._specs, alloc_rng)
            platform_round = 0.0
            union: list[np.ndarray] = []
            for spec in self._specs:
                sellers = allocation[spec.consumer_id]
                union.append(sellers)
                means = np.maximum(state.means[sellers], QUALITY_FLOOR)
                p_j, p, taus = solve_round_fast(
                    means, cost_a_all[sellers], cost_b_all[sellers],
                    self._theta, self._lam, spec.omega,
                    spec.service_price_bounds, self._col_bounds,
                )
                total = float(taus.sum())
                aggregation = (
                    self._theta * total * total + self._lam * total
                )
                q_bar = float(means.mean())
                consumer_profits[spec.consumer_id][t] = (
                    spec.omega * np.log1p(q_bar * total) - p_j * total
                )
                mean_quality[spec.consumer_id][t] = q_bar
                platform_round += (p_j - p) * total - aggregation
            platform[t] = platform_round
            selected = np.sort(np.concatenate(union))
            observations = sampler.sample_round(selected, round_index=t)
            state.update(selected, observations.sums, self._num_pois)
            revenue[t] = observations.total

        return MarketRunResult(
            allocation_name=strategy.name,
            consumer_profits=consumer_profits,
            consumer_mean_quality=mean_quality,
            platform_profit=platform,
            realized_revenue=revenue,
        )

    def compare(self, strategies: list[AllocationStrategy],
                num_rounds: int) -> dict[str, MarketRunResult]:
        """Run every strategy on the same instance; keyed by name."""
        results: dict[str, MarketRunResult] = {}
        for strategy in strategies:
            if strategy.name in results:
                raise ConfigurationError(
                    f"duplicate allocation strategy {strategy.name!r}"
                )
            results[strategy.name] = self.run(strategy, num_rounds)
        return results
