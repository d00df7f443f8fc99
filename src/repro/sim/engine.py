"""The trading-simulation engine.

Runs any :class:`~repro.bandits.base.SelectionPolicy` through the full
CDT pipeline — selection, the three-stage Stackelberg game (closed form),
data collection, quality learning — and records every metric the paper's
evaluation plots.  The engine is the workhorse behind every Fig. 7-12
experiment; Algorithm 1 itself is also available stand-alone as
:class:`~repro.core.mechanism.CMABHSMechanism`.  Both play their rounds
through :mod:`repro.sim.rounds` over the run core of
:mod:`repro.sim.runcore`, but the mechanism keeps two inputs of its
own: it draws observations from its own seeded generator rather than
the ``RngFactory``'s ``"observations"`` stream, and it starts a
never-observed seller's estimate at 0.0 rather than 0.5.  So the two
agree round for round only under a noise-free quality model — which
is what the integration tests assert.

Pricing rules per round:

* a round whose selection is *larger* than ``K`` (the CMAB-HS initial
  explore-all round) uses Algorithm 1's exploration pricing: sensing time
  fixed at ``tau^0``, sellers paid ``p_max``, consumer charged the
  platform's break-even price;
* every other round plays the closed-form game on the selected set, with
  never-observed sellers entering at the neutral prior estimate 0.5.

Fault tolerance (both opt-in; the clean path is bit-identical with them
off):

* **Fault injection** — pass a :class:`~repro.faults.FaultModel` and the
  run degrades gracefully instead of assuming every seller delivers:
  dropped sellers are removed from the round's settlement (the game is
  re-solved on the survivors; an empty survivor set settles as a
  documented no-trade round), corrupted reports are detected by
  feasibility validation and quarantined before they can poison
  ``qbar_i``, and stalled reports miss revenue accounting but still
  reach the learner.  Every event lands in the run's
  :class:`~repro.faults.FaultLog`.
* **Checkpoint/resume** — pass ``checkpoint_path``/``checkpoint_every``
  and the engine atomically persists its full mid-run state (learning
  state, RNG streams, partial metrics, fault log, policy private state)
  every few rounds; ``resume=True`` continues from the last checkpoint
  and produces metrics identical to an uninterrupted run.

Observability (also opt-in; see :mod:`repro.obs`): pass ``tracer`` and
every round emits structured events (selection with UCB indices, the
equilibrium ``<p^J*, p*, tau*>``, profits, faults, checkpoints); pass
``metrics`` and counters/gauges/histogram timers accumulate across the
run, with a snapshot embedded in each checkpoint so resumed runs carry
their telemetry forward.  Neither touches an RNG stream, so a traced
run is bit-identical to an untraced one.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.timing import perf_counter

if TYPE_CHECKING:  # runtime import would cycle: repro.verify runs this engine
    from repro.verify.invariants import InvariantMonitor

from repro.bandits.base import SelectionPolicy
from repro.bandits.policies import UCBPolicy
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.faults import FaultLog, FaultModel, FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.quality.distributions import QualityModel
from repro.resilience.policy import (
    NOOP_POLICY,
    ResiliencePolicy,
    execute_with_policy,
)
from repro.resilience.shutdown import NEVER_STOP, ShutdownSignal
from repro.sim.config import SimulationConfig
from repro.sim.persistence import load_checkpoint, recover_checkpoint
from repro.sim.results import PolicyComparison, RunMetrics
from repro.sim.runcore import (
    RunCore,
    build_instance,
    check_checkpointing,
    load_run_checkpoint,
    save_run_checkpoint,
)

__all__ = ["TradingSimulator", "run_seed_comparison"]

#: Builds fresh (stateful) per-seed policies from expected qualities.
PolicyFactory = Callable[[np.ndarray], "list[SelectionPolicy]"]

def run_seed_comparison(base_config: SimulationConfig, seed: int,
                        policy_factory: "PolicyFactory",
                        fault_spec: FaultSpec | None = None,
                        *, tracer: Tracer | None = None,
                        metrics: MetricsRegistry | None = None,
                        ) -> dict[str, dict[str, float]]:
    """Run one replication seed end to end — the parallel worker entrypoint.

    A replication seed is a fully self-contained universe: the derived
    config's seed drives the population, observation noise, policy
    randomness, and fault schedule through its own
    :class:`~repro.sim.rng.RngFactory` streams, with no state shared
    across seeds.  That is what makes the multi-process sweep
    deterministic — this exact function runs unchanged inside
    :func:`~repro.sim.replication.replicate_comparison`'s serial loop
    and inside :mod:`repro.parallel` workers, and produces bit-identical
    metrics either way.

    Parameters
    ----------
    base_config:
        Shared sweep configuration; its ``seed`` field is overridden.
    seed:
        The replication seed to run.
    policy_factory:
        ``factory(expected_qualities) -> list[SelectionPolicy]`` building
        fresh (stateful) policies for this seed's instance.
    fault_spec:
        Optional fault-injection rates; the seed draws its own
        reproducible fault schedule.
    tracer / metrics:
        Optional observability objects; the seed is bracketed with
        ``seed_start`` / ``seed_end`` events.

    Returns
    -------
    dict
        ``{policy_name: run.summary()}`` — the per-policy headline
        scalars of this seed (picklable, so workers can ship it home).
    """
    tr = tracer if tracer is not None else NULL_TRACER
    seed_start_time = perf_counter()
    if tr.enabled:
        tr.emit("seed_start", seed=seed)
    simulator = TradingSimulator(base_config.derive(seed=seed))
    policies = policy_factory(simulator.population.expected_qualities)
    fault_model = (simulator.fault_model(fault_spec)
                   if fault_spec is not None else None)
    comparison = simulator.compare(policies, fault_model=fault_model,
                                   tracer=tracer, metrics=metrics)
    summaries = {name: run.summary()
                 for name, run in comparison.runs.items()}
    if tr.enabled:
        tr.emit("seed_end", seed=seed,
                duration_s=perf_counter() - seed_start_time)
        tr.flush()
    return summaries


class TradingSimulator:
    """Simulates data trading under one configuration.

    The seller population (qualities, cost parameters) is sampled once
    from the config's seed, so every policy run through the same
    simulator faces the identical instance, and observation noise uses a
    policy-independent stream (common random numbers).

    Parameters
    ----------
    config:
        The simulation parameters.
    population:
        Pre-built seller population; ``None`` (default) samples one with
        the paper's parameter ranges.
    quality_model:
        Pre-built observation model; ``None`` uses the truncated Gaussian
        with the config's ``quality_sigma``.
    """

    def __init__(self, config: SimulationConfig,
                 population: SellerPopulation | None = None,
                 quality_model: QualityModel | None = None) -> None:
        self._config = config
        self._factory, self._population, self._quality_model = (
            build_instance(config, population, quality_model)
        )

    @property
    def config(self) -> SimulationConfig:
        """The simulation configuration."""
        return self._config

    @property
    def population(self) -> SellerPopulation:
        """The sampled seller population (shared across policy runs)."""
        return self._population

    @property
    def quality_model(self) -> QualityModel:
        """The observation model (shared across policy runs)."""
        return self._quality_model

    def fault_model(self, spec: FaultSpec) -> FaultModel:
        """A fault model bound to this simulator's seed and population.

        Fault draws use the factory's dedicated ``("faults", round)``
        streams, so enabling/disabling faults never perturbs the
        population, observation, or policy randomness.
        """
        return FaultModel(spec, self._factory, self._config.num_sellers)

    # -- running -------------------------------------------------------------------

    def run(self, policy: SelectionPolicy,
            num_rounds: int | None = None, *,
            fault_model: FaultModel | None = None,
            fault_log: FaultLog | None = None,
            checkpoint_path: str | os.PathLike | None = None,
            checkpoint_every: int = 0,
            resume: bool = False,
            strict: bool = False,
            shutdown: ShutdownSignal | None = None,
            resilience: ResiliencePolicy | None = None,
            tracer: Tracer | None = None,
            metrics: MetricsRegistry | None = None) -> RunMetrics:
        """Run one policy for ``num_rounds`` rounds (default: config's N).

        Parameters
        ----------
        policy:
            The selection policy to drive.
        num_rounds:
            Round count override.
        fault_model:
            When given, seller failures are injected and the run
            degrades gracefully (see the module docstring).  ``None``
            keeps the exact clean-path behaviour.
        fault_log:
            Collector for injected events and platform reactions; a
            fresh log is used internally when omitted.
        checkpoint_path:
            File the engine checkpoints into (and resumes from).
        checkpoint_every:
            Checkpoint after every this-many completed rounds
            (0 disables periodic checkpointing).
        resume:
            Continue from ``checkpoint_path`` if it exists; a missing
            checkpoint file simply starts from round 0.
        strict:
            Check every round against the paper's analytic invariants
            (Stage-3 stationarity, leader first-order conditions,
            individual rationality, top-K selection correctness,
            observation-count conservation, UCB-index structure) and
            raise :class:`~repro.exceptions.InvariantViolationError` on
            the first failure.  The checks are read-only and draw no
            randomness, so a strict run produces bit-identical results
            to a default run on the same seed.
        shutdown:
            A :class:`~repro.resilience.ShutdownSignal` polled before
            every round; when it trips, the engine writes a final
            resumable checkpoint (when ``checkpoint_path`` is set and at
            least one round completed), emits a ``graceful_shutdown``
            event, and raises
            :class:`~repro.exceptions.GracefulShutdownInterrupt`.  A
            later ``resume=True`` run continues bit-identically.
        resilience:
            A :class:`~repro.resilience.ResiliencePolicy` governing
            checkpoint I/O: ``max_retries`` and ``timeout_s`` guard
            every checkpoint write, ``checkpoint_generations`` keeps
            rollback targets on disk, and ``quarantine=True`` makes
            resume survive a checkpoint that does not load or does not
            decode (quarantine + roll back to the newest generation
            that does, or start fresh) instead of raising.
            ``None`` is the no-op policy — behaviour (and the bytes of
            results) identical to pre-resilience runs.
        tracer:
            Structured-event tracer; ``None`` uses the zero-overhead
            :data:`~repro.obs.NULL_TRACER`.
        metrics:
            Metrics registry accumulating counters / gauges / timers
            across the run.  When given, each checkpoint embeds a
            snapshot (restored on resume) and the returned
            :class:`RunMetrics` carries a final snapshot in its
            ``telemetry`` field.

        To profile a run, call it inside ``with profiler.profile():``
        and pass ``metrics=profiler.registry`` (see
        :class:`~repro.obs.PhaseProfiler`).
        """
        cfg = self._config
        n = int(num_rounds) if num_rounds is not None else cfg.num_rounds
        if n <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {n}")
        check_checkpointing(checkpoint_path, checkpoint_every, resume)
        if fault_model is not None and fault_model.num_sellers != cfg.num_sellers:
            raise ConfigurationError(
                "fault model covers a different number of sellers than "
                "the config"
            )
        m, k, num_pois = cfg.num_sellers, cfg.num_selected, cfg.num_pois
        log = fault_log
        if log is None and fault_model is not None:
            log = FaultLog()
        tr = tracer if tracer is not None else NULL_TRACER
        stop = shutdown if shutdown is not None else NEVER_STOP
        res = resilience if resilience is not None else NOOP_POLICY

        monitor = None
        if strict:
            # Imported lazily: repro.verify runs this engine (the golden
            # store computes goldens through it), so a module-level
            # import would be circular.
            from repro.verify.invariants import InvariantMonitor

            monitor = InvariantMonitor(num_pois, tracer=tr)

        core = RunCore.start(
            cfg, self._factory, self._population, self._quality_model,
            policy, n, tracer=tr, metrics=metrics, monitor=monitor,
            kind="engine_run", driver={"fault_spec": (
                fault_model.spec.to_dict() if fault_model is not None
                else None)},
        )
        ctx = core.ctx
        state, reg = ctx.state, ctx.metrics

        def save(next_round: int) -> None:
            arrays = ({f"faultlog_{key}": value
                       for key, value in log.to_arrays().items()}
                      if log is not None else {})
            execute_with_policy(
                lambda: save_run_checkpoint(
                    checkpoint_path, core, next_round, {}, arrays,
                    keep_generations=res.checkpoint_generations,
                ),
                res, label="engine.checkpoint_write", tracer=tr,
                metrics=reg,
            )

        def decode(path: str | os.PathLike):
            """Load and decode one checkpoint file; change nothing yet."""
            restored = load_run_checkpoint(
                path, core, *load_checkpoint(path, metrics=reg))
            columns = restored.columns("faultlog_")
            if log is not None and columns:
                restored.decode("faultlog_*",
                                lambda: FaultLog.from_arrays(columns))
            return restored, columns

        start_round = 0
        if resume and (os.path.exists(checkpoint_path) or res.quarantine):
            restore_start = perf_counter()
            if res.quarantine:
                # A generation is valid only if it loads *and* decodes.
                recovered = recover_checkpoint(checkpoint_path, load=decode,
                                               tracer=tr, metrics=reg)
                decoded = recovered[:2] if recovered is not None else None
            else:
                decoded = decode(checkpoint_path)
            # None: quarantine found no valid generation, start afresh.
            if decoded is not None:
                restored, columns = decoded
                start_round = restored.apply()
                if log is not None and columns:
                    log.restore_arrays(columns)
                if tr.enabled:
                    tr.emit("checkpoint", action="restored",
                            path=restored.path,
                            next_round=start_round,
                            duration_s=perf_counter() - restore_start)

        run_start_time = core.run_start(start_round,
                                        faults=fault_model is not None)

        for t in range(start_round, n):
            if stop.should_stop(t):
                core.shutdown(t, checkpoint_path, save,
                              f"run of policy {policy.name!r}",
                              rounds_completed=t - start_round)
            core.begin_round(t)
            selected = core.select(t)
            if monitor is not None:
                # Strict runs cross-check UCB selections against the
                # full Eq.-19 vector, which selection itself never builds.
                monitor.check_selection(
                    t, selected, k, m, core.explore,
                    ucb_values=(
                        state.ucb_values(policy.exploration_coefficient)
                        if isinstance(policy, UCBPolicy) and not core.explore
                        else None
                    ),
                )
            core.play(t, selected, fault_model, log)
            if monitor is not None:
                monitor.check_learning(
                    t, state, ctx.selection_counts,
                    clean=fault_model is None,
                    exploration_coefficient=getattr(
                        policy, "exploration_coefficient", None
                    ),
                )
            # The round ends before its checkpoint write, which the
            # persistence timer already counts.
            core.end_round(t)
            core.periodic_checkpoint(t, checkpoint_path, checkpoint_every,
                                     save)

        core.run_end(n, n - start_round, run_start_time)
        return core.run_metrics(n)

    def compare(self, policies: list[SelectionPolicy],
                num_rounds: int | None = None, *,
                fault_model: FaultModel | None = None,
                strict: bool = False,
                tracer: Tracer | None = None,
                metrics: MetricsRegistry | None = None,
                ) -> PolicyComparison:
        """Run several policies on this instance and group the results.

        With a fault model, every policy faces the *same* per-round,
        per-seller fault schedule (common random faults), keeping the
        comparison paired.  A shared ``tracer``/``metrics`` observes
        every policy's run (events carry the policy name in their
        ``run_start`` bracket; metrics accumulate across policies).
        """
        comparison = PolicyComparison()
        for policy in policies:
            comparison.add(
                self.run(policy, num_rounds, fault_model=fault_model,
                         strict=strict, tracer=tracer, metrics=metrics)
            )
        return comparison
