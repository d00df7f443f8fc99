"""Multi-seed replication of policy comparisons.

The paper reports single runs; this harness repeats a comparison over
independent seeds (fresh population, fresh observation noise) and
aggregates mean / standard deviation / standard error per metric — the
difference between "we observed X once" and "X holds with seed-to-seed
spread s".

The sweep is crash-safe: pass ``checkpoint_path`` and each completed
seed's samples (and wall-clock duration) are atomically snapshotted, so
an interrupted sweep resumed with ``resume=True`` skips finished seeds
and produces metrics identical to an uninterrupted run (each seed is
fully self-contained, deriving its population, noise, and faults from
its own seed).

The sweep is also **parallel**: pass ``workers=N`` and the remaining
seeds are sharded across a crash-tolerant process pool
(:class:`~repro.parallel.ParallelExecutor`).  Because every seed is a
self-contained RNG universe and the final aggregation always folds
samples in ascending seed order, the parallel result is bit-identical
to the serial one — for any worker count, chunk size, completion
order, or crash/re-queue schedule (the determinism test suite asserts
exactly this).  Checkpointing keeps working: the coordinator snapshots
after every completed seed, whichever worker finished it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.timing import perf_counter

if TYPE_CHECKING:  # runtime import would cycle: parallel workers run this
    from repro.parallel.worker import WorkerContext

from repro.bandits.base import SelectionPolicy
from repro.exceptions import (
    ConfigurationError,
    GracefulShutdownInterrupt,
    PersistenceError,
)
from repro.faults import FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.policy import (
    NOOP_POLICY,
    ResiliencePolicy,
    execute_with_policy,
    task_watchdog,
)
from repro.resilience.shutdown import NEVER_STOP, ShutdownSignal
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_seed_comparison
from repro.sim.persistence import (
    load_checkpoint,
    recover_checkpoint,
    save_checkpoint,
)

__all__ = ["MetricSummary", "ReplicationResult", "replicate_comparison"]


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread / extremes of one metric across seeds.

    ``std`` is the seed-to-seed sample standard deviation; ``stderr``
    is the standard error of the mean (``std / sqrt(n)``).  With a
    single seed neither is estimable, so ``std`` reports ``0.0`` (no
    observed spread) while ``stderr`` is ``nan`` — tables render it as
    ``n/a`` so single-seed sweeps are visibly unreliable instead of
    silently looking exact.
    """

    mean: float
    std: float
    minimum: float
    maximum: float
    num_seeds: int
    stderr: float = float("nan")

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "MetricSummary":
        """Summarise a list of per-seed samples."""
        values = np.asarray(list(samples), dtype=float)
        if values.size == 0:
            raise ConfigurationError("cannot summarise zero samples")
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        return cls(
            mean=float(values.mean()),
            std=std,
            minimum=float(values.min()),
            maximum=float(values.max()),
            num_seeds=int(values.size),
            stderr=(std / math.sqrt(values.size) if values.size > 1
                    else float("nan")),
        )

    def format(self) -> str:
        """Human-readable ``mean +/- std`` rendering."""
        return f"{self.mean:.4g} +/- {self.std:.2g}"

    def format_stderr(self) -> str:
        """``mean +/- stderr`` rendering; honest about single seeds."""
        if self.num_seeds < 2:
            return f"{self.mean:.4g} +/- n/a"
        return f"{self.mean:.4g} +/- {self.stderr:.2g}"


#: Metrics aggregated per policy, keyed by the RunMetrics summary names.
_METRIC_KEYS = (
    "total_revenue", "expected_revenue", "regret",
    "mean_poc", "mean_pop", "mean_pos",
)


@dataclass
class ReplicationResult:
    """Aggregated metrics of a replicated comparison.

    Attributes
    ----------
    summaries:
        ``summaries[policy][metric]`` -> :class:`MetricSummary`.
    seeds:
        The seeds that were run.
    seed_durations:
        Wall-clock seconds each seed took, keyed by seed.  Durations of
        seeds completed before a crash survive in the checkpoint, so a
        resumed sweep still reports honest cumulative timing.
    """

    summaries: dict[str, dict[str, MetricSummary]]
    seeds: list[int]
    seed_durations: dict[int, float] = field(default_factory=dict)

    def policy_names(self) -> list[str]:
        """Policies in insertion order."""
        return list(self.summaries)

    @property
    def cumulative_seed_time(self) -> float:
        """Total wall-clock seconds spent inside seeds, across resumes.

        For a parallel sweep this is the *work* time (the sum over
        workers), which can exceed the sweep's elapsed wall-clock time.
        """
        return float(sum(self.seed_durations.values()))

    def metric(self, policy: str, metric: str) -> MetricSummary:
        """One policy's summary of one metric.

        Raises
        ------
        ConfigurationError
            For unknown policy or metric names.
        """
        if policy not in self.summaries:
            raise ConfigurationError(
                f"no replicated runs for policy {policy!r}"
            )
        if metric not in self.summaries[policy]:
            raise ConfigurationError(
                f"unknown metric {metric!r}; known: {_METRIC_KEYS}"
            )
        return self.summaries[policy][metric]

    def separation(self, better: str, worse: str,
                   metric: str = "total_revenue") -> float:
        """How many pooled standard deviations separate two policies.

        Positive when ``better``'s mean exceeds ``worse``'s; large values
        mean the ordering is stable across seeds.  Returns ``inf`` when
        both policies are deterministic across seeds (zero spread).
        """
        a = self.metric(better, metric)
        b = self.metric(worse, metric)
        pooled = float(np.hypot(a.std, b.std))
        difference = a.mean - b.mean
        if pooled == 0.0:
            return float("inf") if difference > 0 else -float("inf")
        return difference / pooled

    def to_table(self) -> str:
        """All policies x headline metrics as an aligned text table.

        Cells show ``mean +/- standard error`` (``n/a`` for single-seed
        sweeps, whose uncertainty is unknown, not zero).
        """
        headers = ["policy", "revenue", "regret", "PoC/round", "PoS/round"]
        rows = []
        for policy in self.policy_names():
            rows.append([
                policy,
                self.metric(policy, "total_revenue").format_stderr(),
                self.metric(policy, "regret").format_stderr(),
                self.metric(policy, "mean_poc").format_stderr(),
                self.metric(policy, "mean_pos").format_stderr(),
            ])
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        lines.append(
            f"(mean +/- standard error of the mean over "
            f"{len(self.seeds)} seed{'s' if len(self.seeds) != 1 else ''})"
        )
        return "\n".join(lines)


def _sweep_fingerprint(base_config: SimulationConfig, num_seeds: int,
                       first_seed: int,
                       fault_spec: FaultSpec | None) -> dict:
    """What a sweep checkpoint must match to be resumable.

    The worker count is deliberately absent: a sweep checkpointed
    serially may resume with ``workers=8`` (and vice versa) — the
    result is identical either way.
    """
    return {
        "num_sellers": base_config.num_sellers,
        "num_selected": base_config.num_selected,
        "num_pois": base_config.num_pois,
        "num_rounds": base_config.num_rounds,
        "num_seeds": num_seeds,
        "first_seed": first_seed,
        "fault_spec": (fault_spec.to_dict()
                       if fault_spec is not None else None),
    }


class _SeedRunner:
    """Worker-side runner: one seed in, per-policy summaries out.

    Defined at module level so it stays picklable under the ``spawn``
    start method (under the default ``fork`` the instance is simply
    inherited); the policy factory it carries only needs to be
    picklable when ``spawn`` is used.
    """

    def __init__(self, base_config: SimulationConfig,
                 policy_factory: Callable[[np.ndarray],
                                          list[SelectionPolicy]],
                 fault_spec: FaultSpec | None,
                 want_metrics: bool) -> None:
        self._base_config = base_config
        self._policy_factory = policy_factory
        self._fault_spec = fault_spec
        self._want_metrics = want_metrics

    def __call__(self, seed: int, context: "WorkerContext") -> dict:
        # Thread the worker-local observability through exactly as the
        # serial path threads the caller's: engine metrics only when
        # the caller attached a registry, tracing only when traced.
        return run_seed_comparison(
            self._base_config, seed, self._policy_factory,
            self._fault_spec,
            tracer=context.tracer if context.tracer.enabled else None,
            metrics=context.metrics if self._want_metrics else None,
        )


def _decode_sweep_checkpoint(path: str | os.PathLike, *,
                             metrics: MetricsRegistry | None = None,
                             ) -> tuple[dict, dict[int, dict],
                                        dict[int, float]]:
    """Load and decode one sweep checkpoint; change nothing yet.

    Returns ``(fingerprint, per_seed_samples, seed_durations)``.  A file
    that loads but is not a sweep checkpoint, or whose per-seed records
    do not parse, raises :class:`PersistenceError` like a corrupt one,
    so :func:`~repro.sim.persistence.recover_checkpoint` can quarantine
    it and roll back.
    """
    meta, __ = load_checkpoint(path, metrics=metrics)
    if meta.get("kind") != "replication_sweep":
        raise PersistenceError(
            f"{os.fspath(path)!s} is not a replication-sweep checkpoint",
            path=os.fspath(path),
        )
    try:
        per_seed = {
            int(seed): {
                str(policy): {str(key): float(value)
                              for key, value in metric_values.items()}
                for policy, metric_values in policies.items()
            }
            for seed, policies in meta.get("seed_samples", {}).items()
        }
        durations = {
            int(seed): float(duration)
            for seed, duration in meta.get("seed_durations", {}).items()
        }
    except (TypeError, ValueError, AttributeError) as error:
        raise PersistenceError(
            f"sweep checkpoint {os.fspath(path)!s} has malformed "
            f"per-seed records: {error}",
            path=os.fspath(path),
        ) from error
    return meta.get("fingerprint"), per_seed, durations


def _load_resume_state(checkpoint_path: str | os.PathLike,
                       fingerprint: dict, *,
                       resilience: ResiliencePolicy = NOOP_POLICY,
                       tracer: Tracer = NULL_TRACER,
                       metrics: MetricsRegistry | None = None) -> tuple[
        dict[int, dict], dict[int, float]]:
    """Completed per-seed samples and durations from a checkpoint.

    With quarantine enabled the newest generation that loads *and*
    decodes wins (the others are moved aside; see
    :func:`~repro.sim.persistence.recover_checkpoint`) and a sweep
    with no salvageable checkpoint simply starts fresh.  A fingerprint
    mismatch still raises either way: a healthy checkpoint from a
    different sweep is a configuration error, not corruption.
    """
    def decode(path: str) -> tuple:
        return _decode_sweep_checkpoint(path, metrics=metrics)

    if resilience.quarantine:
        recovered = recover_checkpoint(checkpoint_path, load=decode,
                                       tracer=tracer, metrics=metrics)
        if recovered is None:
            return {}, {}
        found, per_seed, durations, __ = recovered
    else:
        found, per_seed, durations = decode(os.fspath(checkpoint_path))
    if found != fingerprint:
        raise PersistenceError(
            f"sweep checkpoint {os.fspath(checkpoint_path)!s} was "
            "written by a different sweep configuration: "
            f"{found!r} != {fingerprint!r}"
        )
    return per_seed, durations


def _save_sweep_state(checkpoint_path: str | os.PathLike,
                      fingerprint: dict,
                      per_seed: dict[int, dict],
                      durations: dict[int, float],
                      metrics: MetricsRegistry,
                      keep_generations: int = 1) -> None:
    """Atomically snapshot the sweep's completed seeds.

    The sweep's whole state lives in the checkpoint's metadata record;
    it carries no arrays.
    """
    save_checkpoint(checkpoint_path, {
        "kind": "replication_sweep",
        "fingerprint": fingerprint,
        "completed_seeds": sorted(per_seed),
        "seed_samples": {
            str(seed): per_seed[seed] for seed in sorted(per_seed)
        },
        "seed_durations": {
            str(seed): durations[seed] for seed in sorted(durations)
        },
    }, {}, metrics=metrics, keep_generations=keep_generations)


def _stop_sweep_gracefully(checkpoint_path: str | os.PathLike | None,
                           completed: int, total: int,
                           tracer: Tracer) -> None:
    """Abandon the sweep at a seed boundary, pointing at the checkpoint.

    No extra write is needed: the sweep checkpoint (when one is
    configured) is already current, having been snapshotted after every
    completed seed.
    """
    path = (os.fspath(checkpoint_path)
            if checkpoint_path is not None else None)
    if tracer.enabled:
        tracer.emit("graceful_shutdown", scope="replication",
                    seeds_completed=completed, seeds_total=total,
                    checkpoint_path=path)
        tracer.flush()
    raise GracefulShutdownInterrupt(
        f"replication sweep stopped after {completed} of {total} "
        f"seeds; resume from the checkpoint to finish",
        checkpoint_path=path,
    )


def replicate_comparison(
    base_config: SimulationConfig,
    policy_factory: Callable[[np.ndarray], list[SelectionPolicy]],
    num_seeds: int = 5,
    first_seed: int = 0,
    *,
    fault_spec: FaultSpec | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    resume: bool = False,
    workers: int = 1,
    chunk_size: int | None = None,
    max_task_retries: int = 2,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    shutdown: ShutdownSignal | None = None,
    resilience: ResiliencePolicy | None = None,
    watchdog: WatchdogConfig | None = None,
) -> ReplicationResult:
    """Run the comparison under ``num_seeds`` independent seeds.

    Parameters
    ----------
    base_config:
        The shared configuration; its ``seed`` field is overridden per
        replication.
    policy_factory:
        Builds a fresh policy list from the instance's true qualities
        (fresh because policies are stateful).
    num_seeds:
        Number of independent replications.
    first_seed:
        Seeds used are ``first_seed .. first_seed + num_seeds - 1``.
    fault_spec:
        When given, every seed's runs inject faults with these rates
        (each seed draws its own reproducible fault schedule).
    checkpoint_path:
        Checkpoint file (NPZ, like the engine's) the sweep snapshots
        into after each completed seed (atomic write; survives
        crashes).
    resume:
        Continue from ``checkpoint_path`` if it exists, skipping seeds
        already completed; the result is identical to an uninterrupted
        sweep.  A missing checkpoint file simply starts fresh.
    workers:
        Process count for the sweep.  ``1`` (default) runs serially in
        this process; ``N > 1`` shards the remaining seeds across a
        crash-tolerant pool with results bit-identical to serial (each
        seed is a self-contained RNG universe, and aggregation always
        folds samples in ascending seed order).  A worker killed
        mid-seed is replaced and the seed re-queued.
    chunk_size:
        Seeds per worker dispatch (parallel only); ``None`` balances
        automatically.
    max_task_retries:
        How many worker crashes one seed may survive before the sweep
        fails (parallel only).
    tracer:
        Optional :class:`~repro.obs.Tracer`; the sweep brackets each
        replication with ``seed_start`` / ``seed_end`` events and the
        per-run events flow through it as well.  With ``workers > 1``
        the events are captured worker-locally, replayed into this
        tracer tagged ``worker=<id>``, and framed by
        ``worker_started`` / ``worker_task_done`` / ``worker_crashed``
        lifecycle events.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` accumulating the
        sweep's counters (``seeds_completed``, ``seeds_skipped``) and
        the per-seed ``replication.seed`` timer alongside the run-level
        telemetry (worker-local registries are merged in when
        ``workers > 1``).
    shutdown:
        Optional cooperative stop signal, polled at **seed boundaries**
        with the number of seeds completed so far (including resumed
        ones).  When it fires the sweep emits a ``graceful_shutdown``
        event and raises :class:`GracefulShutdownInterrupt` carrying
        the checkpoint path — the checkpoint already holds every
        completed seed, so ``resume=True`` finishes the sweep exactly.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` governing
        the sweep's checkpoint I/O: ``max_retries`` and ``timeout_s``
        guard each checkpoint write, ``checkpoint_generations`` keeps
        rotated siblings, and ``quarantine`` makes resume roll back
        past checkpoints that do not load or do not decode instead of
        failing.  Its deadline also arms the parallel pool's per-task
        watchdog (one seed per task; see
        :func:`~repro.resilience.task_watchdog`) when no explicit
        ``watchdog`` is given.  The default is a no-op: behaviour is
        byte-identical to pre-resilience sweeps.
    watchdog:
        Optional :class:`~repro.resilience.WatchdogConfig` for the
        parallel pool, overriding the one derived from ``resilience``.
        Ignored when ``workers == 1``.

    To profile a sweep, run it inside ``with profiler.profile():`` and
    pass ``metrics=profiler.registry`` (see
    :class:`~repro.obs.PhaseProfiler`).

    Raises
    ------
    PersistenceError
        If a resume checkpoint belongs to a different sweep
        configuration.
    ParallelExecutionError
        If a worker raised, or a seed exceeded its crash-retry budget.
    GracefulShutdownInterrupt
        If ``shutdown`` fired at a seed boundary.
    """
    if num_seeds <= 0:
        raise ConfigurationError(
            f"num_seeds must be positive, got {num_seeds}"
        )
    if workers <= 0:
        raise ConfigurationError(
            f"workers must be positive, got {workers}"
        )
    if resume and checkpoint_path is None:
        raise ConfigurationError("resume requires checkpoint_path")
    tr = tracer if tracer is not None else NULL_TRACER
    reg = metrics if metrics is not None else MetricsRegistry()
    stop = shutdown if shutdown is not None else NEVER_STOP
    res = resilience if resilience is not None else NOOP_POLICY
    if watchdog is None:
        watchdog = task_watchdog(res)
    fingerprint = _sweep_fingerprint(base_config, num_seeds, first_seed,
                                     fault_spec)
    per_seed: dict[int, dict] = {}
    durations: dict[int, float] = {}
    if (resume and checkpoint_path is not None
            and (os.path.exists(checkpoint_path) or res.quarantine)):
        per_seed, durations = _load_resume_state(
            checkpoint_path, fingerprint,
            resilience=res, tracer=tr, metrics=reg,
        )
    seeds = list(range(first_seed, first_seed + num_seeds))
    remaining = []
    for seed in seeds:
        if seed in per_seed:
            reg.counter("seeds_skipped").inc()
        else:
            remaining.append(seed)

    def complete_seed(seed: int, summaries: dict, duration: float) -> None:
        per_seed[seed] = summaries
        durations[seed] = duration
        if checkpoint_path is not None:
            execute_with_policy(
                lambda: _save_sweep_state(
                    checkpoint_path, fingerprint, per_seed, durations,
                    reg, keep_generations=res.checkpoint_generations,
                ),
                res,
                label="replication.checkpoint_write",
                tracer=tr,
                metrics=reg,
            )
        reg.counter("seeds_completed").inc()
        reg.timer("replication.seed").observe(duration)

    if workers > 1 and remaining:
        # Deferred import: repro.parallel depends on repro.obs, and the
        # serial path must stay importable without it in the loop.
        from repro.parallel import ParallelExecutor

        if stop.should_stop(len(per_seed)):
            _stop_sweep_gracefully(checkpoint_path, len(per_seed),
                                   num_seeds, tr)
        runner = _SeedRunner(base_config, policy_factory, fault_spec,
                             want_metrics=metrics is not None)
        executor = ParallelExecutor(
            runner,
            workers=min(workers, len(remaining)),
            chunk_size=chunk_size,
            max_task_retries=max_task_retries,
            watchdog=watchdog,
            tracer=tr if tr.enabled else None,
            metrics=reg,
        )
        # Closing the generator mid-stream (the graceful-shutdown path)
        # runs the executor's finally-block teardown: in-flight seeds on
        # other workers are lost, but every *completed* seed is already
        # in the checkpoint, so a resume finishes the sweep exactly.
        results = executor.as_completed(remaining)
        for result in results:
            complete_seed(remaining[result.task_id], result.value,
                          result.duration_s)
            if stop.should_stop(len(per_seed)) and len(per_seed) < num_seeds:
                results.close()
                _stop_sweep_gracefully(checkpoint_path, len(per_seed),
                                       num_seeds, tr)
        if tr.enabled:
            tr.flush()
    else:
        for seed in remaining:
            if stop.should_stop(len(per_seed)):
                _stop_sweep_gracefully(checkpoint_path, len(per_seed),
                                       num_seeds, tr)
            seed_start = perf_counter()
            summaries = run_seed_comparison(
                base_config, seed, policy_factory, fault_spec,
                tracer=tracer, metrics=metrics,
            )
            complete_seed(seed, summaries, perf_counter() - seed_start)

    # Fold per-seed samples in ascending seed order — the one canonical
    # order — so serial, parallel, resumed, and crash-recovered sweeps
    # aggregate the exact same float sequence.
    samples: dict[str, dict[str, list[float]]] = {}
    for seed in seeds:
        for policy, summary in per_seed[seed].items():
            bucket = samples.setdefault(
                policy, {key: [] for key in _METRIC_KEYS}
            )
            for key in _METRIC_KEYS:
                bucket[key].append(summary[key])
    summaries = {
        policy: {
            key: MetricSummary.from_samples(values)
            for key, values in metric_samples.items()
        }
        for policy, metric_samples in samples.items()
    }
    return ReplicationResult(summaries=summaries, seeds=seeds,
                             seed_durations=dict(durations))
