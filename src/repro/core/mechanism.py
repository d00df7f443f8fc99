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
from repro.obs.timing import perf_counter

import numpy as np

from repro.core.incentive import (
    FormulaVariant,
    initial_round_prices,
    solve_round_fast,
)
from repro.core.regret import RegretTracker
from repro.core.state import LearningState, observation_mask
from repro.entities.consumer import Consumer
from repro.entities.job import Job
from repro.entities.platform import Platform
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.faults import FaultKind, FaultLog, FaultModel
from repro.game.profits import GameInstance, StrategyProfile
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.quality.distributions import QualityModel, TruncatedGaussianQuality
from repro.quality.sampler import QualitySampler

__all__ = ["RoundOutcome", "TradingResult", "CMABHSMechanism"]

#: Estimated qualities are floored here before entering the game — the
#: closed forms divide by ``qbar_i`` and an all-zero observation run
#: (possible under a Bernoulli model) must not produce a division by zero.
_QUALITY_FLOOR = 1e-6


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
    formula_variant:
        Which closed-form stage-2 constant to use (see
        :class:`~repro.core.incentive.FormulaVariant`).
    seed:
        Master seed for observation noise.
    """

    def __init__(self, population: SellerPopulation, job: Job,
                 platform: Platform, consumer: Consumer, k: int,
                 quality_model: QualityModel | None = None,
                 initial_sensing_time: float = 1.0,
                 exploration_coefficient: float | None = None,
                 formula_variant: FormulaVariant = FormulaVariant.DERIVED,
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
        self._variant = formula_variant
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
        return GameInstance(
            qualities=np.maximum(estimated_qualities, _QUALITY_FLOOR),
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

        With a ``fault_model``, seller failures are injected and each
        round degrades gracefully: dropped sellers are removed from
        settlement (the game is re-solved on the survivors, and an
        empty survivor set settles as a no-trade round), corrupted
        reports are quarantined by feasibility validation before they
        can poison ``qbar_i``, and stalled reports miss the round's
        revenue but still reach the learner.  Without one, behaviour is
        bit-identical to the original mechanism.

        ``tracer`` and ``metrics`` attach the observability layer:
        structured per-round events (selection with UCB indices, the
        equilibrium ``<p^J*, p*, tau*>``, profits, fault injections)
        and counter/gauge/timer telemetry.  Both are read-only
        observers — they never touch an RNG stream, so traced runs are
        bit-identical to untraced ones.
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
        tr = tracer if tracer is not None else NULL_TRACER
        reg = metrics if metrics is not None else MetricsRegistry()
        num_pois = self._job.num_pois
        # Call-time import: repro.sim imports repro.core, so a
        # top-level import of repro.sim.rng would be circular.
        from repro.sim.rng import seeded_generator

        sampler = QualitySampler(
            self._quality_model, num_pois, seeded_generator(self._seed)
        )
        state = LearningState(m)
        tracker = RegretTracker(
            self._population.expected_qualities, self._k, num_pois
        )
        log = fault_log
        if log is None and fault_model is not None:
            log = FaultLog()
        run_start = perf_counter()
        if tr.enabled:
            tr.emit("run_start", mechanism="cmab-hs", num_rounds=n,
                    num_sellers=m, num_selected=self._k, num_pois=num_pois,
                    seed=self._seed, faults=fault_model is not None)
        rounds: list[RoundOutcome] = []
        for t in range(n):
            round_start = perf_counter()
            if tr.enabled:
                tr.emit("round_start", round_index=t)
            select_start = perf_counter()
            selected = np.arange(m) if t == 0 else self._select(state)
            reg.timer("mechanism.selection").observe(
                perf_counter() - select_start
            )
            if tr.enabled:
                ucb = (None if t == 0
                       else state.ucb_values(self._coefficient)[selected])
                tr.emit("selection", round_index=t, selected=selected,
                        explore=t == 0, ucb=ucb,
                        duration_s=perf_counter() - select_start)
            plan = None
            participants = selected
            if fault_model is not None:
                plan = fault_model.plan_round(t, selected, num_pois)
                fault_model.log_plan(plan, log, tracer=tr)
                reg.counter("fault_events").inc(
                    plan.dropped.size + plan.corrupted.size
                    + plan.stalled.size
                )
                participants = selected[~np.isin(selected, plan.dropped)]
                if 0 < participants.size < selected.size:
                    reg.counter("degraded_resolves").inc()
                    if log is not None:
                        log.record(t, FaultKind.DEGRADED,
                                   value=float(participants.size))
                    if tr.enabled:
                        tr.emit("fault", round_index=t,
                                fault=FaultKind.DEGRADED.value,
                                survivors=participants.size)
            if participants.size == 0:
                reg.counter("no_trade_rounds").inc()
                if log is not None:
                    log.record(t, FaultKind.NO_TRADE)
                if tr.enabled:
                    tr.emit("fault", round_index=t,
                            fault=FaultKind.NO_TRADE.value)
                outcome = self._no_trade_round(t, selected)
            elif t == 0:
                outcome = self._play_initial_round(
                    selected, state, sampler, plan=plan,
                    participants=participants, log=log, tr=tr, reg=reg,
                )
            else:
                outcome = self._play_round(
                    t, selected, state, sampler, plan=plan,
                    participants=participants, log=log, tr=tr, reg=reg,
                )
            tracker.record(selected)
            rounds.append(outcome)
            reg.counter("rounds").inc()
            reg.gauge("cumulative_regret").set(tracker.cumulative_regret)
            reg.timer("mechanism.round").observe(perf_counter() - round_start)
            if tr.enabled:
                tr.emit("profits", round_index=t,
                        consumer=outcome.consumer_profit,
                        platform=outcome.platform_profit,
                        sellers_mean=(float(outcome.seller_profits.mean())
                                      if outcome.seller_profits.size
                                      else 0.0),
                        realized=outcome.observed_quality_total)
                tr.emit("round_end", round_index=t,
                        duration_s=perf_counter() - round_start)
        if tr.enabled:
            tr.emit("run_end", mechanism="cmab-hs", rounds_played=n,
                    total_revenue=float(
                        sum(r.observed_quality_total for r in rounds)
                    ),
                    final_regret=tracker.cumulative_regret,
                    duration_s=perf_counter() - run_start)
            tr.flush()
        return TradingResult(
            rounds=rounds,
            final_means=state.means.copy(),
            final_counts=np.asarray(state.counts, dtype=np.int64).copy(),
            cumulative_regret=tracker.cumulative_regret,
            regret_history=tracker.history,
        )

    # -- internals -----------------------------------------------------------------

    def _select(self, state: LearningState) -> np.ndarray:
        ucb = state.ucb_values(self._coefficient)
        order = np.argsort(-ucb, kind="stable")
        return np.sort(order[: self._k])

    def _collect(self, t: int, participants: np.ndarray,
                 state: LearningState, sampler: QualitySampler,
                 plan, log: FaultLog | None,
                 tr: Tracer = NULL_TRACER,
                 reg: MetricsRegistry | None = None) -> float:
        """Sample one round's data, quarantine garbage, learn, settle.

        Returns the round's creditable observed-quality total.  On the
        clean path (``plan is None``) this is exactly the original
        sample-then-update sequence.
        """
        observations = sampler.sample_round(participants, round_index=t)
        if plan is None:
            state.update(participants, observations.sums,
                         self._job.num_pois)
            return observations.total
        delivered = observations.sums.copy()
        if plan.corrupted.size:
            position = {int(s): i for i, s in enumerate(participants)}
            for seller, garbage in zip(plan.corrupted, plan.corrupted_sums):
                delivered[position[int(seller)]] = garbage
        valid = observation_mask(delivered, self._job.num_pois)
        invalid_positions = np.flatnonzero(~valid)
        if reg is not None and invalid_positions.size:
            reg.counter("quarantined_reports").inc(invalid_positions.size)
        for pos in invalid_positions:
            if log is not None:
                log.record(t, FaultKind.QUARANTINE, int(participants[pos]),
                           float(delivered[pos]))
            if tr.enabled:
                tr.emit("fault", round_index=t,
                        fault=FaultKind.QUARANTINE.value,
                        seller=int(participants[pos]),
                        value=float(delivered[pos]))
        # Stalled reports arrive after settlement but still reach the
        # learner; quarantined ones reach neither.
        state.update(participants[valid], delivered[valid],
                     self._job.num_pois)
        settle = valid & ~np.isin(participants, plan.stalled)
        return float(delivered[settle].sum())

    def _no_trade_round(self, t: int, selected: np.ndarray) -> RoundOutcome:
        """Fallback when every selected seller dropped out.

        The round settles with no trade: zero profits on every side,
        prices pinned to their lower bounds, empty strategy vectors,
        and nothing learned.
        """
        empty = np.empty(0)
        return RoundOutcome(
            round_index=t,
            selected=selected,
            service_price=self._consumer.price_min,
            collection_price=self._platform.price_min,
            sensing_times=empty,
            consumer_profit=0.0,
            platform_profit=0.0,
            seller_profits=empty,
            observed_quality_total=0.0,
            mean_estimated_quality=0.0,
            estimated_qualities=empty,
            participants=np.empty(0, dtype=int),
        )

    def _play_initial_round(self, selected: np.ndarray, state: LearningState,
                            sampler: QualitySampler, *, plan=None,
                            participants: np.ndarray | None = None,
                            log: FaultLog | None = None,
                            tr: Tracer = NULL_TRACER,
                            reg: MetricsRegistry | None = None
                            ) -> RoundOutcome:
        """Round 0: explore all sellers at fixed time and break-even prices."""
        if participants is None:
            participants = selected
        taus = np.full(participants.size, self._tau0)
        game = GameInstance(
            qualities=np.full(participants.size, 0.5),  # placeholder; unused by pricing
            cost_a=self._population.cost_a[participants],
            cost_b=self._population.cost_b[participants],
            theta=self._platform.aggregation_cost.theta,
            lam=self._platform.aggregation_cost.lam,
            omega=self._consumer.valuation.omega,
            service_price_bounds=(self._consumer.price_min,
                                  self._consumer.price_max),
            collection_price_bounds=(self._platform.price_min,
                                     self._platform.price_max),
            max_sensing_time=self._job.round_duration,
        )
        solve_start = perf_counter()
        service_price, collection_price = initial_round_prices(game, self._tau0)
        solve_elapsed = perf_counter() - solve_start
        if reg is not None:
            reg.timer("mechanism.solve").observe(solve_elapsed)
        if tr.enabled:
            tr.emit("equilibrium", round_index=0,
                    service_price=service_price,
                    collection_price=collection_price,
                    tau_total=float(taus.sum()), explore=True,
                    duration_s=solve_elapsed)
        observed_total = self._collect(0, participants, state, sampler,
                                       plan, log, tr, reg)
        means = state.means[participants]
        seller_profits = (
            collection_price * taus
            - (self._population.cost_a[participants] * taus * taus
               + self._population.cost_b[participants] * taus) * means
        )
        total = float(taus.sum())
        aggregation = self._platform.aggregation_cost(total)
        platform_profit = (service_price - collection_price) * total - aggregation
        consumer_profit = self._consumer.profit(
            service_price, total, float(means.mean())
        )
        return RoundOutcome(
            round_index=0,
            selected=selected,
            service_price=service_price,
            collection_price=collection_price,
            sensing_times=taus,
            consumer_profit=consumer_profit,
            platform_profit=platform_profit,
            seller_profits=seller_profits,
            observed_quality_total=observed_total,
            mean_estimated_quality=float(means.mean()),
            estimated_qualities=means.copy(),
            participants=None if plan is None else participants,
        )

    def _play_round(self, t: int, selected: np.ndarray, state: LearningState,
                    sampler: QualitySampler, *, plan=None,
                    participants: np.ndarray | None = None,
                    log: FaultLog | None = None,
                    tr: Tracer = NULL_TRACER,
                    reg: MetricsRegistry | None = None) -> RoundOutcome:
        """Rounds 1..N-1: HS game on the surviving set, then learn."""
        if participants is None:
            participants = selected
        means = np.maximum(state.means[participants], _QUALITY_FLOOR)
        cost_a = self._population.cost_a[participants]
        cost_b = self._population.cost_b[participants]
        theta = self._platform.aggregation_cost.theta
        lam = self._platform.aggregation_cost.lam
        solve_start = perf_counter()
        service_price, collection_price, taus = solve_round_fast(
            means, cost_a, cost_b, theta, lam,
            self._consumer.valuation.omega,
            (self._consumer.price_min, self._consumer.price_max),
            (self._platform.price_min, self._platform.price_max),
            self._job.round_duration,
            paper_variant=(self._variant is FormulaVariant.PAPER),
        )
        solve_elapsed = perf_counter() - solve_start
        if reg is not None:
            reg.timer("mechanism.solve").observe(solve_elapsed)
        if tr.enabled:
            tr.emit("equilibrium", round_index=t,
                    service_price=service_price,
                    collection_price=collection_price,
                    tau_total=float(taus.sum()), explore=False,
                    duration_s=solve_elapsed)
        seller_profits = (
            collection_price * taus
            - (cost_a * taus * taus + cost_b * taus) * means
        )
        total = float(taus.sum())
        aggregation = theta * total * total + lam * total
        platform_profit = (service_price - collection_price) * total - aggregation
        mean_quality = float(means.mean())
        consumer_profit = (
            self._consumer.valuation(total, mean_quality)
            - service_price * total
        )
        observed_total = self._collect(t, participants, state, sampler,
                                       plan, log, tr, reg)
        return RoundOutcome(
            round_index=t,
            selected=selected,
            service_price=service_price,
            collection_price=collection_price,
            sensing_times=taus,
            consumer_profit=consumer_profit,
            platform_profit=platform_profit,
            seller_profits=seller_profits,
            observed_quality_total=observed_total,
            mean_estimated_quality=mean_quality,
            estimated_qualities=means.copy(),
            participants=None if plan is None else participants,
        )
