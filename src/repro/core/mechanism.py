"""The CMAB-HS data-trading mechanism (Algorithm 1).

Orchestrates one full data-trading job:

1. **Initial exploration** (round 0): select *all* sellers with a fixed
   sensing time ``tau^0``; pay sellers the maximum collection price and
   charge the consumer the break-even service price (steps 2-4).
2. **Exploit + explore** (rounds 1..N-1): select the top-``K`` sellers by
   UCB index (steps 7-10), play the three-stage hierarchical Stackelberg
   game on the selected set (step 11, Theorems 14-16), collect data, and
   fold the observed qualities back into the learning state (step 12,
   Eqs. 17-18).

The mechanism returns the complete bandit policy ``chi`` and the strategy
profile ``<p^J*, p*, tau*>`` of every round, exactly the outputs of
Algorithm 1, plus per-round profits for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.entities.consumer import Consumer
from repro.entities.job import Job
from repro.entities.platform import Platform
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.faults import FaultLog, FaultModel
from repro.game.profits import GameInstance, StrategyProfile
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.quality.distributions import QualityModel, TruncatedGaussianQuality

__all__ = ["RoundOutcome", "TradingResult", "CMABHSMechanism"]

@dataclass(frozen=True)
class RoundOutcome:
    """Everything that happened in one trading round.

    Attributes
    ----------
    round_index:
        0-based round number ``t``.
    selected:
        Indices of the selected sellers (all ``M`` in round 0).
    service_price, collection_price:
        The strategies ``p^J,t*`` and ``p^t*``.
    sensing_times:
        The sellers' strategies ``tau^t*``, aligned with ``selected``.
    consumer_profit, platform_profit:
        Leader profits of the round.
    seller_profits:
        Per-selected-seller profits, aligned with ``selected``.
    observed_quality_total:
        Realised revenue of the round (sum of all quality observations).
    mean_estimated_quality:
        ``qbar^t`` of the selected set when the game was played.
    estimated_qualities:
        Per-seller estimates ``qbar_i^t`` the round's game was solved
        with, aligned with ``selected``.
    participants:
        Under fault injection: the sellers that actually took part in
        settlement after dropouts (``sensing_times``,
        ``seller_profits``, and ``estimated_qualities`` align with this
        set).  ``None`` on the clean path, meaning "all of
        ``selected``".
    """

    round_index: int
    selected: np.ndarray
    service_price: float
    collection_price: float
    sensing_times: np.ndarray
    consumer_profit: float
    platform_profit: float
    seller_profits: np.ndarray
    observed_quality_total: float
    mean_estimated_quality: float
    estimated_qualities: np.ndarray
    participants: np.ndarray | None = None

    @property
    def active(self) -> np.ndarray:
        """The sellers settlement actually covered this round."""
        return self.participants if self.participants is not None else self.selected

    @property
    def strategy(self) -> StrategyProfile:
        """The round's joint strategy as a :class:`StrategyProfile`."""
        return StrategyProfile(self.service_price, self.collection_price,
                               self.sensing_times)

    @property
    def total_sensing_time(self) -> float:
        """Total sensing time contributed this round."""
        return float(self.sensing_times.sum())


@dataclass
class TradingResult:
    """The output of a full CMAB-HS run (Algorithm 1's return value).

    Attributes
    ----------
    rounds:
        Per-round outcomes in order.
    final_means:
        The final estimated qualities ``qbar_i^N``.
    final_counts:
        The final observation counts ``n_i^N``.
    cumulative_regret:
        Pseudo-regret versus the omniscient top-``K`` policy (Eq. 34).
    regret_history:
        Cumulative regret after each round.
    """

    rounds: list[RoundOutcome]
    final_means: np.ndarray
    final_counts: np.ndarray
    cumulative_regret: float
    regret_history: np.ndarray

    @property
    def num_rounds(self) -> int:
        """Number of rounds actually played."""
        return len(self.rounds)

    @property
    def selection_matrix(self) -> np.ndarray:
        """The bandit policy ``chi`` as an ``(N, M)`` 0/1 matrix."""
        m = self.final_means.size
        chi = np.zeros((self.num_rounds, m), dtype=np.int8)
        for outcome in self.rounds:
            chi[outcome.round_index, outcome.selected] = 1
        return chi

    @property
    def realized_revenue(self) -> float:
        """Total observed quality across the whole run (Definition 8)."""
        return float(sum(r.observed_quality_total for r in self.rounds))

    def profits(self) -> dict[str, np.ndarray]:
        """Per-round profit series keyed by participant."""
        return {
            "consumer": np.array([r.consumer_profit for r in self.rounds]),
            "platform": np.array([r.platform_profit for r in self.rounds]),
            "sellers_mean": np.array([
                float(r.seller_profits.mean()) if r.seller_profits.size
                else 0.0
                for r in self.rounds
            ]),
        }

    def strategies(self) -> dict[str, np.ndarray]:
        """Per-round strategy series keyed by participant."""
        return {
            "service_price": np.array([r.service_price for r in self.rounds]),
            "collection_price": np.array(
                [r.collection_price for r in self.rounds]
            ),
            "total_sensing_time": np.array(
                [r.total_sensing_time for r in self.rounds]
            ),
        }


class CMABHSMechanism:
    """Run the CMAB-HS data-trading mechanism end to end.

    Parameters
    ----------
    population:
        The ``M`` candidate sellers.
    job:
        The consumer's data-collection job (supplies ``L``, ``N``, ``T``).
    platform, consumer:
        The two leader parties (supply cost/valuation parameters and
        price bounds).
    k:
        Number of sellers selected per exploitation round.
    quality_model:
        Observation model; defaults to the paper's truncated Gaussian
        around the population's expected qualities.
    initial_sensing_time:
        The fixed ``tau^0`` of the initial exploration round.
    exploration_coefficient:
        UCB confidence constant; ``None`` means the paper's ``K+1``.
    seed:
        Master seed for observation noise.
    """

    def __init__(self, population: SellerPopulation, job: Job,
                 platform: Platform, consumer: Consumer, k: int,
                 quality_model: QualityModel | None = None,
                 initial_sensing_time: float = 1.0,
                 exploration_coefficient: float | None = None,
                 seed: int = 0) -> None:
        if not (1 <= k <= len(population)):
            raise ConfigurationError(
                f"k must be in [1, {len(population)}], got {k}"
            )
        if not (initial_sensing_time > 0.0):
            raise ConfigurationError(
                "initial_sensing_time must be positive, got "
                f"{initial_sensing_time}"
            )
        if initial_sensing_time > job.round_duration:
            raise ConfigurationError(
                "initial_sensing_time exceeds the round duration T"
            )
        if exploration_coefficient is not None and exploration_coefficient <= 0:
            raise ConfigurationError("exploration_coefficient must be positive")
        self._population = population
        self._job = job
        self._platform = platform
        self._consumer = consumer
        self._k = int(k)
        self._tau0 = float(initial_sensing_time)
        self._coefficient = (
            float(exploration_coefficient)
            if exploration_coefficient is not None
            else float(k + 1)
        )
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

    # -- public API --------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of sellers selected per exploitation round."""
        return self._k

    @property
    def exploration_coefficient(self) -> float:
        """The UCB confidence constant (``K+1`` unless overridden)."""
        return self._coefficient

    def build_game(self, selected: np.ndarray,
                   estimated_qualities: np.ndarray) -> GameInstance:
        """The validated game instance of one round (for verification)."""
        # Call-time import: repro.sim imports repro.core.
        from repro.sim.rounds import QUALITY_FLOOR

        return GameInstance(
            qualities=np.maximum(estimated_qualities, QUALITY_FLOOR),
            cost_a=self._population.cost_a[selected],
            cost_b=self._population.cost_b[selected],
            theta=self._platform.aggregation_cost.theta,
            lam=self._platform.aggregation_cost.lam,
            omega=self._consumer.valuation.omega,
            service_price_bounds=(self._consumer.price_min,
                                  self._consumer.price_max),
            collection_price_bounds=(self._platform.price_min,
                                     self._platform.price_max),
            max_sensing_time=self._job.round_duration,
        )

    def run(self, num_rounds: int | None = None, *,
            fault_model: FaultModel | None = None,
            fault_log: FaultLog | None = None,
            tracer: Tracer | None = None,
            metrics: MetricsRegistry | None = None) -> TradingResult:
        """Execute Algorithm 1 for ``num_rounds`` rounds (default: job's N).

        Round 0 explores every seller; every later round selects the
        top-``K`` UCB indices.  Each round is played by the shared
        round bodies of :mod:`repro.sim.rounds`, the same ones the batch
        engine and the event runtime drive.

        With a ``fault_model``, seller failures are injected and each
        round degrades gracefully as
        :func:`~repro.sim.rounds.play_degraded_round` describes; an
        all-zero fault model is bit-identical to running without one.

        ``tracer`` and ``metrics`` attach the observability layer:
        structured per-round events (selection with UCB indices, the
        equilibrium ``<p^J*, p*, tau*>``, profits, fault injections)
        and counter/gauge/timer telemetry under the engine's names
        (``engine.selection``, ``engine.solve``, ``engine.round``).
        Both are read-only observers — they never touch an RNG stream,
        so traced runs are bit-identical to untraced ones.
        """
        n = int(num_rounds) if num_rounds is not None else self._job.num_rounds
        if n <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {n}")
        m = len(self._population)
        if fault_model is not None and fault_model.num_sellers != m:
            raise ConfigurationError(
                "fault model covers a different number of sellers than "
                "the population"
            )
        # Call-time imports: repro.sim and repro.bandits import
        # repro.core, so top-level imports would be circular.
        from repro.bandits.policies import UCBPolicy
        from repro.sim.config import SimulationConfig
        from repro.sim.rng import RngFactory, seeded_generator
        from repro.sim.runcore import RunCore

        tr = tracer if tracer is not None else NULL_TRACER
        config = SimulationConfig(
            num_sellers=m, num_selected=self._k,
            num_pois=self._job.num_pois, num_rounds=n,
            theta=self._platform.aggregation_cost.theta,
            lam=self._platform.aggregation_cost.lam,
            omega=self._consumer.valuation.omega,
            service_price_bounds=(self._consumer.price_min,
                                  self._consumer.price_max),
            collection_price_bounds=(self._platform.price_min,
                                     self._platform.price_max),
            initial_sensing_time=self._tau0,
            max_sensing_time=self._job.round_duration, seed=self._seed,
        )
        policy = UCBPolicy(self._coefficient)
        # Algorithm 1 starts every estimate at 0 and draws its noise
        # from the seed itself; the policy stream (UCB draws nothing
        # from it) is the factory's, as for every driver.
        core = RunCore.start(
            config, RngFactory(self._seed), self._population,
            self._quality_model, policy, n, tracer=tr, metrics=metrics,
            kind="cmab_hs_run", driver={},
            observation_rng=seeded_generator(self._seed), prior_mean=0.0,
        )
        ctx = core.ctx
        state, tracker, series = ctx.state, ctx.tracker, ctx.series
        log = fault_log
        if log is None and fault_model is not None:
            log = FaultLog()
        run_start = core.run_start(0, mechanism="cmab-hs",
                                   faults=fault_model is not None)
        rounds: list[RoundOutcome] = []
        for t in range(n):
            core.begin_round(t)
            selected = core.select(t)
            settled = core.play(t, selected, fault_model, log)
            estimates = settled.estimates
            rounds.append(RoundOutcome(
                round_index=t,
                selected=selected,
                service_price=float(series["service"][t]),
                collection_price=float(series["collection"][t]),
                sensing_times=settled.sensing_times,
                consumer_profit=float(series["consumer"][t]),
                platform_profit=float(series["platform"][t]),
                seller_profits=settled.seller_profits,
                observed_quality_total=float(series["realized"][t]),
                mean_estimated_quality=(float(estimates.mean())
                                        if estimates.size else 0.0),
                estimated_qualities=estimates,
                participants=(None if fault_model is None
                              else settled.participants),
            ))
            core.end_round(t)
        core.run_end(n, n, run_start)
        return TradingResult(
            rounds=rounds,
            final_means=state.means.copy(),
            final_counts=np.asarray(state.counts, dtype=np.int64).copy(),
            cumulative_regret=tracker.cumulative_regret,
            regret_history=tracker.history,
        )
