"""The run scaffolding every driver of Algorithm 1 shares.

:class:`~repro.sim.engine.TradingSimulator`,
:class:`~repro.runtime.MarketRuntime` and
:class:`~repro.core.mechanism.CMABHSMechanism` play the round bodies of
:mod:`repro.sim.rounds` over one resumable learning core: the counts
and sums behind ``qbar_i`` (Eqs. 17-18), the regret tracker, the policy
and observation streams, and the metric series.  This module owns that
core's life cycle and the bracket around every round, so the three
drivers cannot drift apart.  The mechanism overrides two of its inputs:
it draws observations from its own seeded generator, and a
never-observed seller's estimate starts at 0 rather than at the other
drivers' neutral 0.5.  The pieces:

* :func:`build_instance` — the population and default quality model;
* :class:`RunCore` — the run state, built in one stream order (the
  batch-equivalence anchor), its periodic checkpoint, graceful
  shutdown and :class:`~repro.sim.results.RunMetrics`;
* the round bracket on :class:`RunCore` — :meth:`~RunCore.begin_round`,
  :meth:`~RunCore.select` (the timed selection, Algorithm 1's explore
  rule and the ``selection`` event), :meth:`~RunCore.play` and
  :meth:`~RunCore.end_round` (the ``rounds`` counter, the
  ``cumulative_regret`` gauge and the ``engine.round`` timer).  Each
  driver adds only its own code between these calls;
* :func:`save_run_checkpoint` / :func:`load_run_checkpoint` — the one
  checkpoint codec, which carries each driver's own fields alongside
  the core's.  Loading decodes and validates every field before
  anything changes (see :class:`RestoredRun`): a malformed one raises
  :class:`~repro.exceptions.PersistenceError` naming the field and the
  file, and leaves the run as it was.
"""

from __future__ import annotations

import copy
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NoReturn

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.bandits.policies import UCBPolicy
from repro.core.regret import RegretTracker
from repro.core.state import LearningState
from repro.entities.seller import SellerPopulation
from repro.exceptions import (
    ConfigurationError,
    GracefulShutdownInterrupt,
    PersistenceError,
    ReproError,
)
from repro.faults import FaultLog, FaultModel
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.obs.timing import perf_counter
from repro.obs.tracer import Tracer
from repro.quality.distributions import QualityModel, TruncatedGaussianQuality
from repro.quality.sampler import QualitySampler
from repro.sim.config import SimulationConfig
from repro.sim.persistence import read_field, save_checkpoint
from repro.sim.results import RunMetrics
from repro.sim.rng import RngFactory
from repro.sim.rounds import (
    PRIOR_MEAN,
    SERIES_NAMES,
    RoundContext,
    Settlement,
    play_clean_round,
    play_faulty_round,
)

if TYPE_CHECKING:  # runtime import would cycle: repro.verify runs rounds
    from repro.verify.invariants import InvariantMonitor

__all__ = [
    "RestoredRun",
    "RunCore",
    "build_instance",
    "check_checkpointing",
    "load_run_checkpoint",
    "save_run_checkpoint",
]


def build_instance(config: SimulationConfig,
                   population: SellerPopulation | None = None,
                   quality_model: QualityModel | None = None,
                   ) -> tuple[RngFactory, SellerPopulation, QualityModel]:
    """The run's stream factory, population and quality model.

    ``None`` draws the population from the ``"population"`` stream and
    uses the truncated Gaussian with the config's ``quality_sigma``.
    """
    factory = RngFactory(config.seed)
    if population is None:
        population = SellerPopulation.random(
            config.num_sellers, factory.generator("population"),
            a_range=config.a_range, b_range=config.b_range,
        )
    if len(population) != config.num_sellers:
        raise ConfigurationError(
            f"population has {len(population)} sellers but the config "
            f"says {config.num_sellers}"
        )
    if quality_model is None:
        quality_model = TruncatedGaussianQuality(
            population.expected_qualities, sigma=config.quality_sigma
        )
    if quality_model.num_sellers != config.num_sellers:
        raise ConfigurationError(
            "quality model covers a different number of sellers than "
            "the config"
        )
    return factory, population, quality_model


def check_checkpointing(path: str | os.PathLike | None, every: int,
                        resume: bool = False) -> None:
    """Reject a negative period, or checkpointing/resume without a path."""
    if every < 0:
        raise ConfigurationError(f"checkpoint_every must be >= 0, got {every}")
    if (every or resume) and path is None:
        raise ConfigurationError(
            "checkpointing/resume requires checkpoint_path"
        )


@dataclass
class RunCore:
    """One policy run's resumable learning core; build with :meth:`start`.

    ``ctx`` holds the live objects the round bodies mutate.
    ``metrics`` is the caller's registry (``None``: no telemetry);
    ``ctx.metrics`` is the one the run's timers write to.

    Every driver plays a round as :meth:`begin_round`, :meth:`select`,
    :meth:`play` (or its own round body), :meth:`end_round`.
    """

    config: SimulationConfig
    num_rounds: int
    observation_rng: np.random.Generator
    policy_rng: np.random.Generator
    ctx: RoundContext
    metrics: MetricsRegistry | None
    #: What a checkpoint must match to resume this run.
    fingerprint: dict[str, Any]
    #: Whether the open round explores; :meth:`select` sets it.
    explore: bool = field(init=False, default=False)
    # The bracket's metric handles, fetched once per run by
    # _bind_metrics with the settle step's handles on ``ctx`` (and again
    # after a restore replaces the registry's contents), and the open
    # round's start time.
    _selection_timer: Timer = field(init=False, repr=False)
    _round_timer: Timer = field(init=False, repr=False)
    _rounds: Counter = field(init=False, repr=False)
    _regret: Gauge = field(init=False, repr=False)
    _round_start: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        reg = self.ctx.metrics
        self._selection_timer = reg.timer("engine.selection")
        self._round_timer = reg.timer("engine.round")
        self._rounds = reg.counter("rounds")
        self._regret = reg.gauge("cumulative_regret")
        self.ctx.solve_timer = reg.timer("engine.solve")
        self.ctx.service_price = reg.gauge("service_price")
        self.ctx.collection_price = reg.gauge("collection_price")

    @classmethod
    def start(cls, config: SimulationConfig, factory: RngFactory,
              population: SellerPopulation, quality_model: QualityModel,
              policy: SelectionPolicy, num_rounds: int, *,
              tracer: Tracer, metrics: MetricsRegistry | None,
              kind: str, driver: dict[str, Any],
              monitor: "InvariantMonitor | None" = None,
              observation_rng: np.random.Generator | None = None,
              prior_mean: float = PRIOR_MEAN) -> "RunCore":
        """Fresh run state for ``policy`` over ``num_rounds`` rounds.

        ``kind`` and ``driver`` join the fingerprint, after the policy
        name, the seed and the sizes.  ``observation_rng`` (default:
        the factory's ``"observations"`` stream) and ``prior_mean``,
        the estimate of a never-observed seller, are the mechanism's to
        override.
        """
        m, k, num_pois = (config.num_sellers, config.num_selected,
                          config.num_pois)
        if observation_rng is None:
            observation_rng = factory.generator("observations")
        sampler = QualitySampler(quality_model, num_pois, observation_rng)
        policy_rng = factory.generator("policy", policy.name)
        state = LearningState(m, prior_mean=prior_mean)
        tracker = RegretTracker(population.expected_qualities, k, num_pois)
        policy.reset(m, k, num_rounds)
        ctx = RoundContext(
            state=state, tracker=tracker, policy=policy, sampler=sampler,
            series={name: np.empty(num_rounds) for name in SERIES_NAMES},
            selection_counts=np.zeros(m, dtype=np.int64),
            qualities_truth=population.expected_qualities,
            cost_a_all=population.cost_a, cost_b_all=population.cost_b,
            num_pois=num_pois, theta=config.theta, lam=config.lam,
            omega=config.omega, svc_bounds=config.service_price_bounds,
            col_bounds=config.collection_price_bounds,
            tau_max=config.max_sensing_time,
            tau0=config.initial_sensing_time,
            tracer=tracer,
            metrics=metrics if metrics is not None else MetricsRegistry(),
            monitor=monitor,
        )
        fingerprint = {
            "kind": kind, "policy_name": policy.name, "seed": config.seed,
            "num_sellers": m, "num_selected": k, "num_pois": num_pois,
            "num_rounds": num_rounds, **driver,
        }
        return cls(config, num_rounds, observation_rng, policy_rng, ctx,
                   metrics, fingerprint)

    # -- the round bracket ----------------------------------------------------

    def begin_round(self, t: int) -> None:
        """Open round ``t``: start its clock and emit ``round_start``."""
        self._round_start = perf_counter()
        if self.ctx.tracer.enabled:
            self.ctx.tracer.emit("round_start", round_index=t)

    def select(self, t: int, online: np.ndarray | None = None
               ) -> np.ndarray:
        """Round ``t``'s selection, timed from the round's start.

        ``online`` is a boolean per-seller mask of a partial roster
        (``None``: every seller is online); only a
        :class:`~repro.bandits.UCBPolicy` selects from one.  Sets
        :attr:`explore`: a round explores (Algorithm 1's pricing at
        ``tau^0``) when it selects more than ``K`` sellers, or every
        online seller in round 0 — which covers the ``K == M`` corner
        where the two coincide.
        """
        ctx = self.ctx
        policy = ctx.policy
        if online is None:
            online_count = self.config.num_sellers
            selected = policy.select(t, ctx.state, self.policy_rng)
        else:
            if not isinstance(policy, UCBPolicy):
                raise ConfigurationError(
                    f"policy {policy.name!r} cannot select from a partial "
                    "roster (churn or offline slots); only UCBPolicy "
                    "selects among the online sellers"
                )
            online_count = int(np.count_nonzero(online))
            if online_count == 0:
                raise ConfigurationError(
                    "no seller is online: open a session or configure "
                    "arrivals before trading"
                )
            selected = policy.select(t, ctx.state, self.policy_rng,
                                     online=online)
        duration = perf_counter() - self._round_start
        self._selection_timer.observe(duration)
        self.explore = selected.size > self.config.num_selected or (
            t == 0 and selected.size == online_count
        )
        if ctx.tracer.enabled:
            ctx.tracer.emit("selection", round_index=t, selected=selected,
                            explore=self.explore,
                            ucb=_ucb_of(policy, ctx.state, selected),
                            duration_s=duration)
        return selected

    def play(self, t: int, selected: np.ndarray,
             fault_model: FaultModel | None = None,
             log: FaultLog | None = None) -> Settlement:
        """Play round ``t``'s body: clean, or degraded by ``fault_model``."""
        if fault_model is None:
            return play_clean_round(self.ctx, t, selected, self.explore)
        return play_faulty_round(self.ctx, t, selected, self.explore,
                                 fault_model, log)

    def end_round(self, t: int) -> None:
        """Close round ``t``: count it, gauge the regret, time it, and
        emit ``round_end``."""
        self._rounds.inc()
        self._regret.set(self.ctx.tracker.cumulative_regret)
        duration = perf_counter() - self._round_start
        self._round_timer.observe(duration)
        if self.ctx.tracer.enabled:
            self.ctx.tracer.emit("round_end", round_index=t,
                                 duration_s=duration)

    # -- run brackets, metrics and checkpoints --------------------------------

    def run_metrics(self, rounds: int) -> RunMetrics:
        """The run's metrics over its first ``rounds`` rounds."""
        series = self.ctx.series
        return RunMetrics(
            policy_name=self.ctx.policy.name,
            realized_revenue=series["realized"][:rounds].copy(),
            expected_revenue=series["expected"][:rounds].copy(),
            regret=self.ctx.tracker.history[:rounds],
            consumer_profit=series["consumer"][:rounds].copy(),
            platform_profit=series["platform"][:rounds].copy(),
            seller_profit_mean=series["sellers_mean"][:rounds].copy(),
            service_price=series["service"][:rounds].copy(),
            collection_price=series["collection"][:rounds].copy(),
            total_sensing_time=series["totals"][:rounds].copy(),
            selection_counts=self.ctx.selection_counts.copy(),
            estimation_error=series["estimation_error"][:rounds].copy(),
            telemetry=(self.ctx.metrics.snapshot()
                       if self.metrics is not None else None),
        )

    def run_start(self, start_round: int, **event: Any) -> float:
        """Emit the ``run_start`` event; returns the run's start time."""
        tr, cfg = self.ctx.tracer, self.config
        if tr.enabled:
            tr.emit("run_start", policy=self.ctx.policy.name,
                    num_rounds=self.num_rounds, start_round=start_round,
                    seed=cfg.seed, num_sellers=cfg.num_sellers,
                    num_selected=cfg.num_selected, num_pois=cfg.num_pois,
                    **event)
        return perf_counter()

    def run_end(self, rounds: int, rounds_played: int,
                run_start_time: float) -> None:
        """Emit the ``run_end`` event over the first ``rounds`` rounds."""
        tr = self.ctx.tracer
        if tr.enabled:
            tr.emit("run_end", policy=self.ctx.policy.name,
                    rounds_played=rounds_played,
                    total_revenue=float(
                        self.ctx.series["realized"][:rounds].sum()),
                    final_regret=self.ctx.tracker.cumulative_regret,
                    duration_s=perf_counter() - run_start_time)
            tr.flush()

    def periodic_checkpoint(self, t: int, path: str | os.PathLike | None,
                            every: int, save: Callable[[int], None]) -> None:
        """After round ``t``, ``save(t + 1)`` every ``every`` rounds.

        Never after the last round: a finished run has nothing to resume.
        """
        if not (every and (t + 1) % every == 0
                and (t + 1) < self.num_rounds):
            return
        start = perf_counter()
        # Count the in-flight write first so the snapshot the
        # checkpoint embeds covers it (resume carries it over).
        self.ctx.metrics.counter("checkpoint_writes").inc()
        save(t + 1)
        if self.ctx.tracer.enabled:
            self.ctx.tracer.emit("checkpoint", round_index=t,
                                 action="saved", path=os.fspath(path),
                                 next_round=t + 1,
                                 duration_s=perf_counter() - start)

    def shutdown(self, t: int, path: str | os.PathLike | None,
                 save: Callable[[int], None], what: str,
                 **event: Any) -> NoReturn:
        """Stop before round ``t``: ``save(t)``, then raise the interrupt.

        Saves only with a ``path`` and at least one round completed
        (``next_round = 0`` is not resumable).
        """
        final_path: str | None = None
        if path is not None and t > 0:
            self.ctx.metrics.counter("checkpoint_writes").inc()
            save(t)
            final_path = os.fspath(path)
        tr = self.ctx.tracer
        if tr.enabled:
            tr.emit("graceful_shutdown", round_index=t,
                    policy=self.ctx.policy.name,
                    checkpoint_path=final_path, **event)
            tr.flush()
        raise GracefulShutdownInterrupt(
            f"{what} stopped before round {t} "
            + (f"(resumable checkpoint: {final_path})" if final_path
               else "(no checkpoint written)"),
            checkpoint_path=final_path,
        )


def _ucb_of(policy: SelectionPolicy, state: LearningState,
            selected: np.ndarray) -> np.ndarray | None:
    """The selected sellers' UCB indices (Eq. 19), if computable.

    Only policies exposing an ``exploration_coefficient`` have them;
    for the rest (random, optimal, ...) this is ``None``.  Unobserved
    sellers carry an infinite index.
    """
    coefficient = getattr(policy, "exploration_coefficient", None)
    if coefficient is None:
        return None
    try:
        return state.ucb_at(float(coefficient), selected)
    except (ReproError, TypeError, ValueError):
        return None


def save_run_checkpoint(path: str | os.PathLike, core: RunCore,
                        next_round: int, driver_meta: dict[str, Any],
                        driver_arrays: dict[str, np.ndarray], *,
                        keep_generations: int = 1) -> None:
    """Atomically persist ``core`` after ``next_round`` rounds.

    Telemetry rides along only when the caller attached a registry:
    timers read the wall clock, and un-instrumented checkpoints stay
    byte-deterministic.
    """
    ctx = core.ctx
    tracker = ctx.tracker.snapshot()
    state = ctx.state.snapshot()
    meta = {
        **core.fingerprint,
        "next_round": next_round,
        "tracker_cumulative": tracker["cumulative"],
        "tracker_rounds": tracker["rounds"],
        "tracker_expected_revenue": tracker["expected_revenue"],
        "policy_rng_state": core.policy_rng.bit_generator.state,
        "observation_rng_state": core.observation_rng.bit_generator.state,
        **driver_meta,
    }
    if core.metrics is not None:
        meta["metrics_snapshot"] = core.metrics.snapshot()
    arrays = {
        "state_counts": state["counts"],
        "state_sums": state["sums"],
        "regret_history": tracker["history"],
        "selection_counts": ctx.selection_counts,
        **{f"series_{name}": ctx.series[name][:next_round]
           for name in SERIES_NAMES},
        **driver_arrays,
        **{f"policy__{key}": np.asarray(value)
           for key, value in ctx.policy.state_snapshot().items()},
    }
    save_checkpoint(path, meta, arrays, metrics=ctx.metrics,
                    keep_generations=keep_generations)


def load_run_checkpoint(path: str | os.PathLike, core: RunCore, meta: dict,
                        arrays: dict[str, np.ndarray]) -> "RestoredRun":
    """Decode a loaded checkpoint of ``core``'s run; change nothing.

    ``meta``/``arrays`` come from
    :func:`~repro.sim.persistence.load_checkpoint` (or its quarantining
    counterpart).  Another run's file or a malformed field raises
    :class:`~repro.exceptions.PersistenceError`.
    """
    for key, expected in core.fingerprint.items():
        if meta.get(key) != expected:
            raise PersistenceError(
                f"checkpoint {os.fspath(path)!s} does not match this "
                f"run: {key} is {meta.get(key)!r}, expected {expected!r}",
                path=os.fspath(path),
            )
    return RestoredRun(path, meta, arrays, core)


def _sized(dtype: Any, size: int) -> Callable[[Any], np.ndarray]:
    """A converter to a 1-D ``dtype`` array of exactly ``size`` entries."""
    def convert(value: Any) -> np.ndarray:
        array = np.asarray(value, dtype=dtype)
        if array.shape != (size,):
            raise ValueError(f"shape {array.shape}, expected ({size},)")
        return array
    return convert


def _bit_generator_state(rng: np.random.Generator) -> Callable[[Any], dict]:
    """A converter accepting only a state ``rng``'s bit generator takes."""
    def convert(value: Any) -> dict:
        probe = copy.deepcopy(rng.bit_generator)
        try:
            probe.state = value
        except KeyError as error:
            raise ValueError(f"no {error.args[0]!r} entry") from error
        return value
    return convert


class RestoredRun:
    """A loaded checkpoint, decoded and validated but not yet applied.

    The core's fields are decoded on construction; the driver decodes
    its own with :meth:`field`, :meth:`array` and :meth:`decode`, then
    calls :meth:`apply`.  Only then does anything change.
    """

    def __init__(self, path: str | os.PathLike, meta: dict,
                 arrays: dict[str, np.ndarray], core: RunCore) -> None:
        self.path = os.fspath(path)
        self.meta = meta
        self.arrays = arrays
        self._core = core
        m, n = core.config.num_sellers, core.num_rounds
        self.next_round = self.field("next_round", int)
        if not (0 < self.next_round <= n):
            raise PersistenceError(
                f"checkpoint {self.path} has next_round {self.next_round}, "
                f"outside (0, {n}]", path=self.path,
            )
        tracker_rounds = self.field("tracker_rounds", int)
        self._tracker = {
            "cumulative": self.field("tracker_cumulative", float),
            "rounds": tracker_rounds,
            "expected_revenue": self.field("tracker_expected_revenue",
                                           float),
            "history": self.array("regret_history", float, tracker_rounds),
        }
        self._state = {"counts": self.array("state_counts", np.int64, m),
                       "sums": self.array("state_sums", float, m)}
        self._series = {name: self.array(f"series_{name}", float,
                                         self.next_round)
                        for name in SERIES_NAMES}
        self._selection_counts = self.array("selection_counts", np.int64, m)
        self._policy_rng_state = self.field(
            "policy_rng_state", _bit_generator_state(core.policy_rng))
        self._observation_rng_state = self.field(
            "observation_rng_state",
            _bit_generator_state(core.observation_rng))
        self._policy_snapshot = self.columns("policy__")
        snapshot = (meta.get("metrics_snapshot")
                    if core.metrics is not None else None)
        if snapshot is not None:
            self.decode("metrics_snapshot",
                        lambda: MetricsRegistry().restore(snapshot))
        self._metrics_snapshot = snapshot

    def field(self, key: str, convert: Callable[[Any], Any]) -> Any:
        """``convert(meta[key])``, or a :class:`PersistenceError`."""
        return read_field(self.meta, key, convert, self.path)

    def array(self, key: str, dtype: Any, size: int) -> np.ndarray:
        """Array ``key`` as 1-D ``dtype`` of ``size`` entries, or raise."""
        return read_field(self.arrays, key, _sized(dtype, size), self.path)

    def columns(self, prefix: str) -> dict[str, np.ndarray]:
        """The arrays named ``prefix + key``, keyed by ``key``."""
        return {name[len(prefix):]: value
                for name, value in self.arrays.items()
                if name.startswith(prefix)}

    def decode(self, what: str, decode: Callable[[], Any]) -> Any:
        """``decode()``, or a :class:`PersistenceError` naming ``what``.

        For fields spread over several arrays (a fault log, a ledger).
        """
        try:
            return decode()
        except (KeyError, ConfigurationError, PersistenceError, TypeError,
                ValueError) as error:
            reason = (f"no {error.args[0]!r} entry"
                      if isinstance(error, KeyError) else error)
            raise PersistenceError(
                f"checkpoint {self.path} has a malformed {what!r}: {reason}",
                path=self.path,
            ) from error

    def apply(self) -> int:
        """Move the decoded core into the run; returns the next round.

        The policy restores first: every policy checks its snapshot
        before it changes, so a rejected one still leaves the run as
        it was.  Nothing after it can fail.
        """
        core = self._core
        self.decode("policy__*", lambda: core.ctx.policy.state_restore(
            self._policy_snapshot))
        ctx = core.ctx
        ctx.state.restore(self._state)
        ctx.resync_estimation_error()
        ctx.tracker.restore(self._tracker)
        for name, partial in self._series.items():
            ctx.series[name][:partial.size] = partial
        ctx.selection_counts[:] = self._selection_counts
        core.policy_rng.bit_generator.state = self._policy_rng_state
        core.observation_rng.bit_generator.state = (
            self._observation_rng_state)
        if self._metrics_snapshot is not None:
            # Resumed runs carry their telemetry forward: counters and
            # timers continue from the checkpointed snapshot, whose
            # objects replace the ones the bracket held.
            core.metrics.restore(self._metrics_snapshot)
            core._bind_metrics()
        return self.next_round
