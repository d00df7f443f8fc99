"""The round bodies of Algorithm 1, shared by every driver.

One trading round — selection already done — is the same computation
whether it is driven by :class:`~repro.sim.engine.TradingSimulator`'s
synchronous ``for t in range(n)`` loop, fired as a scheduled event by
:class:`~repro.runtime.MarketRuntime`'s discrete-event kernel, or
played by :class:`~repro.core.mechanism.CMABHSMechanism` over its
entity objects.  All three build their run state through
:class:`~repro.sim.runcore.RunCore`; the mechanism keeps only its own
observation stream and its 0.0 prior estimate.  The bracket around
each body — the ``round_start`` event, the timed selection and its
explore rule, the ``selection`` event, the ``rounds`` counter, the
``cumulative_regret`` gauge, the ``engine.round`` timer and
``round_end`` — is ``RunCore``'s (``begin_round``, ``select``,
``play``, ``end_round``).  This module holds the body exactly once, so
"a static-population runtime run reproduces the batch engine bit for
bit" is true *by construction* rather than by parallel maintenance of
several copies.

Two bodies, one settle step:

* :func:`play_clean_round` — the happy path (sample, learn, solve the
  three-stage game, settle, account profits);
* :func:`play_degraded_round` — the graceful-degradation path driven by
  a :class:`~repro.faults.RoundFaultPlan`.  The batch engine and the
  mechanism feed it plans drawn by a :class:`~repro.faults.FaultModel`;
  the event runtime reuses the *same* machinery for organic churn by
  synthesising plans whose ``dropped`` set is the sellers that departed
  mid-round.

Both price and settle through one helper, which solves the game at the
floored estimates (or charges the explore round's break-even price) and
settles profits at those same estimates.  Each body returns the round's
:class:`Settlement`.

Both consume randomness only through the sampler handed to them, in a
fixed call order, so callers control bit-identity entirely through
stream construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.core.incentive import solve_round_fast
from repro.core.regret import RegretTracker
from repro.core.state import LearningState, observation_mask
from repro.faults import FaultKind, FaultLog, FaultModel, RoundFaultPlan
from repro.kernels.selection import estimation_error as _estimation_error
from repro.obs.metrics import Gauge, MetricsRegistry, Timer
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
    "Settlement",
    "member_mask",
    "play_clean_round",
    "play_faulty_round",
    "play_degraded_round",
]

#: Neutral estimate used for sellers that have never been observed when a
#: policy (for example ``random``) drags them into the game unseen.
PRIOR_MEAN = 0.5

#: Floor applied to estimated qualities entering the game: the closed
#: forms divide by ``qbar_i``, and an all-zero observation run (possible
#: under a Bernoulli model) must not divide by zero.
QUALITY_FLOOR = 1e-6

#: Above this many ``values x pool`` pairs, :func:`member_mask` hands
#: over to ``np.isin``, whose sort- or table-based kernels beat the
#: pairwise compare on round 0's full-population arrays.
_PAIRWISE_LIMIT = 4096

#: Metric series written round-by-round (regret lives in the tracker).
SERIES_NAMES = (
    "realized", "expected", "consumer", "platform", "sellers_mean",
    "service", "collection", "totals", "estimation_error",
)


@dataclass
class RoundContext:
    """Everything a round body needs, bundled once per run.

    :meth:`~repro.sim.runcore.RunCore.start` builds one per run: the
    batch engine and the mechanism per call, the event runtime once for
    the lifetime of the market.  All array
    members are the *live* run objects (the bodies mutate ``series``,
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
    monitor: "InvariantMonitor | None" = None
    #: ``|qbar_i - q_i|`` per seller, kept in step with ``state``: each
    #: round patches the sellers it taught, so the estimation error is
    #: one reduction, with no ``O(M)`` subtract.  Call
    #: :meth:`resync_estimation_error` after restoring or resetting the
    #: state.
    abs_error: np.ndarray = field(init=False)
    #: The settle step's metric handles, fetched from ``metrics`` once
    #: per run by :class:`~repro.sim.runcore.RunCore` (and again after a
    #: restore replaces the registry's contents).
    solve_timer: Timer = field(init=False, repr=False)
    service_price: Gauge = field(init=False, repr=False)
    collection_price: Gauge = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.resync_estimation_error()

    def resync_estimation_error(self) -> None:
        """Rebuild :attr:`abs_error` from the state's current means."""
        self.abs_error = np.abs(self.state.means - self.qualities_truth)


def member_mask(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """``np.isin(values, pool)`` for 1-D seller arrays, cheap at round size.

    A round's sets hold at most ``K`` sellers and its fault pools a few,
    so one pairwise compare beats ``np.isin``'s setup by several times;
    an empty pool costs one allocation.  Large inputs go to ``np.isin``
    itself.  The mask is the same either way.
    """
    if pool.size == 0:
        return np.zeros(values.shape, dtype=bool)
    if values.size * pool.size > _PAIRWISE_LIMIT:
        return np.isin(values, pool)
    mask: np.ndarray = (values[:, None] == pool).any(axis=1)
    return mask


def estimation_error_scalar(means: np.ndarray,
                            qualities_truth: np.ndarray) -> float:
    """From-scratch mean absolute estimation error.

    The reference form of :func:`repro.kernels.selection.estimation_error`,
    which keeps the ``|qbar_i - q_i|`` vector patched between rounds
    instead; the kernel differential checks the two bit for bit.
    """
    return float(np.abs(means - qualities_truth).mean())


class Settlement(NamedTuple):
    """One round's settlement, aligned position by position.

    ``estimates`` are the qualities the round was priced and settled
    at; prices and leader profits live in the round's ``ctx.series``
    row.  A no-trade round settles with every field empty.
    """

    participants: np.ndarray
    sensing_times: np.ndarray
    seller_profits: np.ndarray
    estimates: np.ndarray


def _settle(ctx: RoundContext, t: int, participants: np.ndarray,
            explore_round: bool) -> Settlement:
    """Price the round and write its settlement into ``ctx.series``.

    An explore round charges Algorithm 1's break-even price at the
    fixed time ``tau^0`` and settles at the current (already learned)
    estimates; every other round solves the game at the floored
    estimates and settles at those same estimates.
    """
    series = ctx.series
    theta, lam, omega = ctx.theta, ctx.lam, ctx.omega
    svc_bounds, col_bounds = ctx.svc_bounds, ctx.col_bounds
    cost_a = ctx.cost_a_all[participants]
    cost_b = ctx.cost_b_all[participants]
    solve_start = perf_counter()
    estimates = ctx.state.means[participants]
    if explore_round:
        taus = np.full(participants.size, ctx.tau0)
        total = float(np.add.reduce(taus))
        p = col_bounds[1]
        aggregation = theta * total * total + lam * total
        p_j = min(max(p + aggregation / total, svc_bounds[0]),
                  svc_bounds[1])
    else:
        estimates = np.maximum(estimates, QUALITY_FLOOR)
        p_j, p, taus = solve_round_fast(
            estimates, cost_a, cost_b, theta, lam, omega,
            svc_bounds, col_bounds, ctx.tau_max,
        )
        total = float(np.add.reduce(taus))
        aggregation = theta * total * total + lam * total
    solve_duration = perf_counter() - solve_start
    ctx.solve_timer.observe(solve_duration)
    ctx.service_price.set(p_j)
    ctx.collection_price.set(p)
    if ctx.tracer.enabled:
        ctx.tracer.emit("equilibrium", round_index=t,
                        service_price=float(p_j),
                        collection_price=float(p), tau_total=total,
                        explore=bool(explore_round),
                        duration_s=solve_duration)
    if ctx.monitor is not None:
        # Checked against the (floored) estimates the game was solved at.
        ctx.monitor.check_equilibrium(
            t, estimates, cost_a, cost_b, theta, lam, omega, svc_bounds,
            col_bounds, ctx.tau_max, float(p_j), float(p), taus,
            bool(explore_round),
        )

    # add.reduce == the pairwise kernel behind sum()/mean(), minus the
    # per-call wrapper — same bits, and this body runs every round.
    mean_quality = float(np.add.reduce(estimates) / estimates.size)
    seller_profits = p * taus - (
        cost_a * taus * taus + cost_b * taus
    ) * estimates
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
    return Settlement(participants, taus, seller_profits, estimates)


def _emit_profits(ctx: RoundContext, t: int) -> None:
    series = ctx.series
    ctx.tracer.emit("profits", round_index=t,
                    consumer=float(series["consumer"][t]),
                    platform=float(series["platform"][t]),
                    sellers_mean=float(series["sellers_mean"][t]),
                    realized=float(series["realized"][t]))


def play_clean_round(ctx: RoundContext, t: int, selected: np.ndarray,
                     explore_round: bool) -> Settlement:
    """One happy-path round (the original engine, bit for bit).

    An explore round learns before it settles (its profits are
    evaluated at the post-collection estimates); every other round
    settles first and learns from the round's data afterwards.
    """
    state, sampler, series = ctx.state, ctx.sampler, ctx.series
    num_pois = ctx.num_pois
    if explore_round:
        sums = sampler._sample_sums(selected, t)
        state._learn(selected, sums, num_pois)
        ctx.policy.observe(t, selected, sums, num_pois)
    settlement = _settle(ctx, t, selected, explore_round)
    if not explore_round:
        sums = sampler._sample_sums(selected, t)
        state._learn(selected, sums, num_pois)
        ctx.policy.observe(t, selected, sums, num_pois)
    ctx.tracker.record(selected)
    series["realized"][t] = float(np.add.reduce(sums))
    series["expected"][t] = ctx.tracker.last_selection_value * num_pois
    series["estimation_error"][t] = _estimation_error(
        state.means, ctx.qualities_truth, ctx.abs_error, selected
    )
    ctx.selection_counts[selected] += 1
    if ctx.tracer.enabled:
        _emit_profits(ctx, t)
    return settlement


def play_faulty_round(ctx: RoundContext, t: int, selected: np.ndarray,
                      explore_round: bool, fault_model: FaultModel,
                      log: FaultLog | None) -> Settlement:
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
    return play_degraded_round(ctx, t, selected, explore_round, plan, log)


def play_degraded_round(ctx: RoundContext, t: int, selected: np.ndarray,
                        explore_round: bool, plan: RoundFaultPlan,
                        log: FaultLog | None) -> Settlement:
    """One round degraded by an already-drawn :class:`RoundFaultPlan`.

    The plan's ``dropped`` sellers are removed from settlement (the
    game is re-solved on the survivors; an empty survivor set settles
    as a documented no-trade round), ``corrupted`` reports are
    quarantined by feasibility validation, and ``stalled`` reports miss
    revenue accounting but still reach the learner.  The event runtime
    calls this directly with synthesised churn plans (``dropped`` =
    sellers that departed between selection and settlement).
    """
    state, series = ctx.state, ctx.series
    num_pois = ctx.num_pois
    tr, reg = ctx.tracer, ctx.metrics
    participants = selected[~member_mask(selected, plan.dropped)]

    ctx.tracker.record(selected)
    ctx.selection_counts[selected] += 1
    series["expected"][t] = ctx.tracker.last_selection_value * num_pois

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
        series["service"][t] = ctx.svc_bounds[0]
        series["collection"][t] = ctx.col_bounds[0]
        series["totals"][t] = 0.0
        # Nothing was learned, so nothing needs patching.
        series["estimation_error"][t] = _estimation_error(
            state.means, ctx.qualities_truth, ctx.abs_error, participants
        )
        empty = np.empty(0)
        return Settlement(participants, empty, empty, empty)

    if participants.size < selected.size:
        if log is not None:
            log.record(t, FaultKind.DEGRADED,
                       value=float(participants.size))
        reg.counter("degraded_resolves").inc()
        if tr.enabled:
            tr.emit("fault", round_index=t,
                    fault=FaultKind.DEGRADED.value,
                    survivors=int(participants.size))

    def collect() -> tuple[float, np.ndarray]:
        """Sample, inject corruption, quarantine, learn.

        Returns the settled total and the sellers the state learned from.
        """
        delivered = ctx.sampler._sample_sums(participants, t)
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
        learned = participants[valid]
        state._learn(learned, delivered[valid], num_pois)
        ctx.policy.observe(t, learned, delivered[valid], num_pois)
        settle_mask = valid & ~member_mask(participants, plan.stalled)
        return float(np.add.reduce(delivered[settle_mask])), learned

    # The game is (re-)solved on the survivors only — a degraded set
    # never raises, it just trades less.
    if explore_round:
        series["realized"][t], learned = collect()
    settlement = _settle(ctx, t, participants, explore_round)
    if not explore_round:
        series["realized"][t], learned = collect()
    series["estimation_error"][t] = _estimation_error(
        state.means, ctx.qualities_truth, ctx.abs_error, learned
    )
    if tr.enabled:
        _emit_profits(ctx, t)
    return settlement
