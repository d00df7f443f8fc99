"""The round bodies shared by the batch engine and the event runtime.

One trading round — selection already done — is the same computation
whether it is driven by :class:`~repro.sim.engine.TradingSimulator`'s
synchronous ``for t in range(n)`` loop or fired as a scheduled event by
:class:`~repro.runtime.MarketRuntime`'s discrete-event kernel.  This
module holds that computation exactly once, so "a static-population
runtime run reproduces the batch engine bit for bit" is true *by
construction* rather than by parallel maintenance of two copies.

Two bodies:

* :func:`play_clean_round` — the happy path (sample, learn, solve the
  three-stage game, settle, account profits);
* :func:`play_degraded_round` — the graceful-degradation path driven by
  a :class:`~repro.faults.RoundFaultPlan`.  The batch engine feeds it
  plans drawn by a :class:`~repro.faults.FaultModel`; the event runtime
  reuses the *same* machinery for organic churn by synthesising plans
  whose ``dropped`` set is the sellers that departed mid-round.

Both consume randomness only through the sampler handed to them, in a
fixed call order, so callers control bit-identity entirely through
stream construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.core.incentive import solve_round_fast
from repro.core.regret import RegretTracker
from repro.core.state import LearningState, observation_mask
from repro.faults import FaultKind, FaultLog, FaultModel, RoundFaultPlan
from repro.kernels.selection import estimation_error as _estimation_error
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import perf_counter
from repro.obs.tracer import Tracer
from repro.quality.sampler import QualitySampler

if TYPE_CHECKING:  # runtime import would cycle: repro.verify runs rounds
    from repro.verify.invariants import InvariantMonitor

__all__ = [
    "PRIOR_MEAN",
    "QUALITY_FLOOR",
    "SERIES_NAMES",
    "RoundContext",
    "play_clean_round",
    "play_faulty_round",
    "play_degraded_round",
]

#: Neutral estimate used for sellers that have never been observed when a
#: policy (for example ``random``) drags them into the game unseen.
PRIOR_MEAN = 0.5

#: Floor applied to estimated qualities entering the game (the closed
#: forms divide by ``qbar_i``).
QUALITY_FLOOR = 1e-6

#: Metric series written round-by-round (regret lives in the tracker).
SERIES_NAMES = (
    "realized", "expected", "consumer", "platform", "sellers_mean",
    "service", "collection", "totals", "estimation_error",
)


@dataclass
class RoundContext:
    """Everything a round body needs, bundled once per run.

    The batch engine builds one of these at the top of
    :meth:`~repro.sim.engine.TradingSimulator.run`; the event runtime
    holds one for the lifetime of the market.  All array members are
    the *live* run objects (the bodies mutate ``series``,
    ``selection_counts``, ``state``, ...), not copies.
    """

    state: LearningState
    tracker: RegretTracker
    policy: SelectionPolicy
    sampler: QualitySampler
    series: dict[str, np.ndarray]
    selection_counts: np.ndarray
    qualities_truth: np.ndarray
    cost_a_all: np.ndarray
    cost_b_all: np.ndarray
    num_pois: int
    theta: float
    lam: float
    omega: float
    svc_bounds: tuple[float, float]
    col_bounds: tuple[float, float]
    tau_max: float
    tau0: float
    tracer: Tracer
    metrics: MetricsRegistry
    #: Caller-owned ``(M,)`` buffer the per-round estimation-error
    #: reduction works in, so the round allocates no ``O(M)`` temporary.
    work: np.ndarray
    monitor: "InvariantMonitor | None" = None


def estimation_error_scalar(means: np.ndarray,
                            qualities_truth: np.ndarray) -> float:
    """Allocation-naive mean absolute estimation error.

    The reference form of :func:`repro.kernels.selection.estimation_error`
    (the identical subtract/abs/mean sequence, with ordinary temporaries
    instead of a caller-owned buffer); the kernels verify leg checks the
    two bit for bit.
    """
    return float(np.abs(means - qualities_truth).mean())


def play_clean_round(ctx: RoundContext, t: int, selected: np.ndarray,
                     explore_round: bool) -> None:
    """One happy-path round (the original engine, bit for bit)."""
    state, sampler, series = ctx.state, ctx.sampler, ctx.series
    num_pois = ctx.num_pois
    theta, lam, omega = ctx.theta, ctx.lam, ctx.omega
    svc_bounds, col_bounds = ctx.svc_bounds, ctx.col_bounds
    tr, reg = ctx.tracer, ctx.metrics
    cost_a = ctx.cost_a_all[selected]
    cost_b = ctx.cost_b_all[selected]
    if explore_round:
        # Algorithm 1 initial exploration: fixed time, break-even
        # price; profits are evaluated at the *post-collection*
        # estimates (the qualities are learned before settlement).
        observations = sampler.sample_round(selected, round_index=t)
        state.update(selected, observations.sums, num_pois)
        ctx.policy.observe(t, selected, observations.sums, num_pois)
        solve_start = perf_counter()
        means = state.means[selected]
        taus = np.full(selected.size, ctx.tau0)
        total = float(np.add.reduce(taus))
        p = col_bounds[1]
        aggregation = theta * total * total + lam * total
        p_j = min(max(p + aggregation / total, svc_bounds[0]),
                  svc_bounds[1])
    else:
        solve_start = perf_counter()
        means = state.means[selected]
        game_means = np.maximum(means, QUALITY_FLOOR)
        p_j, p, taus = solve_round_fast(
            game_means, cost_a, cost_b, theta, lam, omega,
            svc_bounds, col_bounds, ctx.tau_max,
        )
        total = float(np.add.reduce(taus))
        aggregation = theta * total * total + lam * total
    solve_duration = perf_counter() - solve_start
    reg.timer("engine.solve").observe(solve_duration)
    reg.gauge("service_price").set(p_j)
    reg.gauge("collection_price").set(p)
    if tr.enabled:
        tr.emit("equilibrium", round_index=t, service_price=float(p_j),
                collection_price=float(p), tau_total=total,
                explore=bool(explore_round), duration_s=solve_duration)
    if ctx.monitor is not None:
        # The game the solver actually solved uses the floored
        # estimates, so the invariants are checked against those.
        ctx.monitor.check_equilibrium(
            t, means if explore_round else game_means, cost_a, cost_b,
            theta, lam, omega, svc_bounds, col_bounds, ctx.tau_max,
            float(p_j), float(p), taus, bool(explore_round),
        )

    # add.reduce == the pairwise kernel behind sum()/mean(), minus the
    # per-call wrapper — same bits, and this body runs every round.
    mean_quality = float(np.add.reduce(means) / means.size)
    seller_profits = p * taus - (
        cost_a * taus * taus + cost_b * taus
    ) * means
    series["consumer"][t] = (
        omega * np.log1p(mean_quality * total) - p_j * total
    )
    series["platform"][t] = (p_j - p) * total - aggregation
    series["sellers_mean"][t] = float(
        np.add.reduce(seller_profits) / seller_profits.size
    )
    series["service"][t] = p_j
    series["collection"][t] = p
    series["totals"][t] = total

    if not explore_round:
        observations = sampler.sample_round(selected, round_index=t)
        state.update(selected, observations.sums, num_pois)
        ctx.policy.observe(t, selected, observations.sums, num_pois)
    ctx.tracker.record(selected)
    series["realized"][t] = observations.total
    series["expected"][t] = float(
        np.add.reduce(ctx.qualities_truth[selected])
    ) * num_pois
    series["estimation_error"][t] = _estimation_error(
        state.means, ctx.qualities_truth, ctx.work
    )
    ctx.selection_counts[selected] += 1
    if tr.enabled:
        tr.emit("profits", round_index=t,
                consumer=float(series["consumer"][t]),
                platform=float(series["platform"][t]),
                sellers_mean=float(series["sellers_mean"][t]),
                realized=float(series["realized"][t]))


def play_faulty_round(ctx: RoundContext, t: int, selected: np.ndarray,
                      explore_round: bool, fault_model: FaultModel,
                      log: FaultLog | None) -> None:
    """One fault-injected round: draw the plan, log it, degrade.

    With an all-zero fault plan this produces bit-identical metrics to
    :func:`play_clean_round` (asserted by the test suite): the fault
    draws come from their own RNG stream, and every masked operation
    degenerates to the unmasked original.
    """
    plan = fault_model.plan_round(t, selected, ctx.num_pois)
    fault_model.log_plan(plan, log, tracer=ctx.tracer)
    ctx.metrics.counter("fault_events").inc(
        plan.dropped.size + plan.corrupted.size + plan.stalled.size
    )
    play_degraded_round(ctx, t, selected, explore_round, plan, log)


def play_degraded_round(ctx: RoundContext, t: int, selected: np.ndarray,
                        explore_round: bool, plan: RoundFaultPlan,
                        log: FaultLog | None) -> None:
    """One round degraded by an already-drawn :class:`RoundFaultPlan`.

    The plan's ``dropped`` sellers are removed from settlement (the
    game is re-solved on the survivors; an empty survivor set settles
    as a documented no-trade round), ``corrupted`` reports are
    quarantined by feasibility validation, and ``stalled`` reports miss
    revenue accounting but still reach the learner.  The event runtime
    calls this directly with synthesised churn plans (``dropped`` =
    sellers that departed between selection and settlement).
    """
    state, sampler, series = ctx.state, ctx.sampler, ctx.series
    num_pois = ctx.num_pois
    theta, lam, omega = ctx.theta, ctx.lam, ctx.omega
    svc_bounds, col_bounds = ctx.svc_bounds, ctx.col_bounds
    tr, reg = ctx.tracer, ctx.metrics
    participants = selected[~np.isin(selected, plan.dropped)]

    ctx.tracker.record(selected)
    ctx.selection_counts[selected] += 1
    series["expected"][t] = float(
        ctx.qualities_truth[selected].sum()
    ) * num_pois

    if participants.size == 0:
        # Documented fallback: every selected seller dropped out, so
        # the round settles with no trade at all — zero profits,
        # prices pinned to their lower bounds, nothing learned.
        if log is not None:
            log.record(t, FaultKind.NO_TRADE)
        reg.counter("no_trade_rounds").inc()
        if tr.enabled:
            tr.emit("fault", round_index=t,
                    fault=FaultKind.NO_TRADE.value)
        series["realized"][t] = 0.0
        series["consumer"][t] = 0.0
        series["platform"][t] = 0.0
        series["sellers_mean"][t] = 0.0
        series["service"][t] = svc_bounds[0]
        series["collection"][t] = col_bounds[0]
        series["totals"][t] = 0.0
        series["estimation_error"][t] = _estimation_error(
            state.means, ctx.qualities_truth, ctx.work
        )
        return

    if participants.size < selected.size:
        if log is not None:
            log.record(t, FaultKind.DEGRADED,
                       value=float(participants.size))
        reg.counter("degraded_resolves").inc()
        if tr.enabled:
            tr.emit("fault", round_index=t,
                    fault=FaultKind.DEGRADED.value,
                    survivors=int(participants.size))

    cost_a = ctx.cost_a_all[participants]
    cost_b = ctx.cost_b_all[participants]
    delivered = None
    settle_mask = None

    def collect() -> None:
        """Sample, inject corruption, quarantine, and learn."""
        nonlocal delivered, settle_mask
        observations = sampler.sample_round(participants, round_index=t)
        delivered = observations.sums.copy()
        if plan.corrupted.size:
            position = {int(s): i for i, s in enumerate(participants)}
            for seller, garbage in zip(plan.corrupted,
                                       plan.corrupted_sums):
                delivered[position[int(seller)]] = garbage
        valid = observation_mask(delivered, num_pois)
        invalid_positions = np.flatnonzero(~valid)
        if invalid_positions.size:
            reg.counter("quarantined_reports").inc(
                int(invalid_positions.size)
            )
        for pos in invalid_positions:
            if log is not None:
                log.record(t, FaultKind.QUARANTINE,
                           int(participants[pos]),
                           float(delivered[pos]))
            if tr.enabled:
                tr.emit("fault", round_index=t,
                        fault=FaultKind.QUARANTINE.value,
                        seller=int(participants[pos]),
                        value=float(delivered[pos]))
        # Stalled reports arrive after settlement but still reach
        # the learner; quarantined ones reach neither.
        state.update(participants[valid], delivered[valid], num_pois)
        ctx.policy.observe(t, participants[valid], delivered[valid],
                           num_pois)
        settle_mask = valid & ~np.isin(participants, plan.stalled)

    if explore_round:
        collect()
        solve_start = perf_counter()
        means = state.means[participants]
        taus = np.full(participants.size, ctx.tau0)
        total = float(taus.sum())
        p = col_bounds[1]
        aggregation = theta * total * total + lam * total
        p_j = min(max(p + aggregation / total, svc_bounds[0]),
                  svc_bounds[1])
    else:
        # The game is (re-)solved on the survivors only — a degraded
        # set never raises, it just trades less.
        solve_start = perf_counter()
        means = state.means[participants]
        game_means = np.maximum(means, QUALITY_FLOOR)
        p_j, p, taus = solve_round_fast(
            game_means, cost_a, cost_b, theta, lam, omega,
            svc_bounds, col_bounds, ctx.tau_max,
        )
        total = float(np.add.reduce(taus))
        aggregation = theta * total * total + lam * total
    solve_duration = perf_counter() - solve_start
    reg.timer("engine.solve").observe(solve_duration)
    reg.gauge("service_price").set(p_j)
    reg.gauge("collection_price").set(p)
    if tr.enabled:
        tr.emit("equilibrium", round_index=t, service_price=float(p_j),
                collection_price=float(p), tau_total=total,
                explore=bool(explore_round), duration_s=solve_duration)
    if ctx.monitor is not None:
        # The game the solver actually solved uses the floored
        # estimates, so the invariants are checked against those.
        ctx.monitor.check_equilibrium(
            t, means if explore_round else game_means, cost_a, cost_b,
            theta, lam, omega, svc_bounds, col_bounds, ctx.tau_max,
            float(p_j), float(p), taus, bool(explore_round),
        )

    # add.reduce == the pairwise kernel behind sum()/mean(), minus the
    # per-call wrapper — same bits, and this body runs every round.
    mean_quality = float(np.add.reduce(means) / means.size)
    seller_profits = p * taus - (
        cost_a * taus * taus + cost_b * taus
    ) * means
    series["consumer"][t] = (
        omega * np.log1p(mean_quality * total) - p_j * total
    )
    series["platform"][t] = (p_j - p) * total - aggregation
    series["sellers_mean"][t] = float(
        np.add.reduce(seller_profits) / seller_profits.size
    )
    series["service"][t] = p_j
    series["collection"][t] = p
    series["totals"][t] = total

    if not explore_round:
        collect()
    series["realized"][t] = float(delivered[settle_mask].sum())
    series["estimation_error"][t] = _estimation_error(
        state.means, ctx.qualities_truth, ctx.work
    )
    if tr.enabled:
        tr.emit("profits", round_index=t,
                consumer=float(series["consumer"][t]),
                platform=float(series["platform"][t]),
                sellers_mean=float(series["sellers_mean"][t]),
                realized=float(series["realized"][t]))
