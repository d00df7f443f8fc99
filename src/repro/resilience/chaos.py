"""Chaos-testing harness: seeded fault storms with an exactness oracle.

The resilience layers — checkpoint-write retries, the worker watchdog,
checkpoint quarantine and rollback, graceful shutdown — each have unit
tests, but real failures compose: a sweep is interrupted, its newest
checkpoint is then corrupted on disk, the resumed sweep loses a worker
to a crash, and the worker after *that* wedges and must be shot by the
watchdog.
This module drills exactly such compositions, deterministically.

A chaos run is ``rounds`` independent rounds.  Each round derives a
fault plan from ``seeded_generator([seed, round_index])`` — up to
``budget`` faults drawn from the menu below — applies them to a small
replication sweep running under a full resilience policy (retries +
generations + quarantine), finishes the sweep with a fault-free resume,
and hands the result to the recovery-equivalence oracle
(:func:`repro.verify.check_recovery_equivalence`): the battered sweep
must end **bit-identical** to a fault-free golden of the same
configuration.  Every layer that silently loses, recomputes, or
double-counts a seed fails the oracle, not just crashes.

Fault menu (one layer each):

* ``interrupt`` — a :class:`~repro.resilience.ScheduledAbort` stops the
  sweep at a seed boundary (graceful-shutdown layer).
* ``corrupt_checkpoint`` — a random byte of the newest checkpoint
  artefact is flipped (parse/checksum layer).
* ``tamper_checkpoint`` — a *semantically valid* edit: one completed
  seed's revenue sample is inflated in the archive's metadata record
  while the stale checksum footer is kept.  Only the checksum can catch
  this; it is the fault that kills the "disable verification" mutation.
* ``truncate_checkpoint`` — the artefact loses its tail (torn write).
* ``worker_crash`` — a parallel worker dies hard mid-seed (crash
  re-queue layer; uses the executor's single-shot crash injection).
* ``worker_stall`` — a parallel worker wedges mid-seed and must be
  killed by the watchdog (watchdog layer).

The process faults spawn real worker processes and a real (short)
watchdog timeout, so they dominate wall-clock time; disable them with
``include_process_faults=False`` for the fastest smoke drills.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.bandits.policies import EpsilonFirstPolicy, UCBPolicy
from repro.exceptions import ConfigurationError, GracefulShutdownInterrupt
from repro.faults import FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.worker import (
    CRASH_MARKER_ENV,
    CRASH_TASK_ENV,
    STALL_MARKER_ENV,
    STALL_TASK_ENV,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.shutdown import ScheduledAbort
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.config import SimulationConfig
from repro.sim.persistence import _CHECKSUM_FOOTER_LEN, generation_paths
from repro.sim.replication import ReplicationResult, replicate_comparison
from repro.sim.rng import seeded_generator
from repro.verify.compare import Check
from repro.verify.oracles import check_recovery_equivalence

__all__ = [
    "CHAOS_FAULT_KINDS",
    "ChaosConfig",
    "ChaosRoundReport",
    "ChaosReport",
    "run_chaos",
]

#: The injectable fault kinds, in the order the planner indexes them.
CHAOS_FAULT_KINDS = (
    "interrupt",
    "corrupt_checkpoint",
    "tamper_checkpoint",
    "truncate_checkpoint",
    "worker_crash",
    "worker_stall",
)

#: Fault kinds that damage the checkpoint file between episodes.
_DISK_FAULTS = frozenset(
    {"corrupt_checkpoint", "tamper_checkpoint", "truncate_checkpoint"}
)

#: Fault kinds that need a real worker pool.
_PROCESS_FAULTS = frozenset({"worker_crash", "worker_stall"})


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run.

    Attributes
    ----------
    seed:
        Master seed; every planning decision derives from it, so two
        runs with the same config replay the same fault storm.
    rounds:
        Independent chaos rounds (fresh sweep, fresh fault plan each).
    budget:
        Maximum faults injected per round (at least one is always
        injected — a round without faults drills nothing).
    num_seeds:
        Seeds per sweep.  Small by design: the oracle's strength comes
        from fault composition, not sweep size.
    num_sellers / num_selected / sim_rounds:
        The per-seed simulation's size.
    workers:
        Pool size for the process-fault episodes.
    include_process_faults:
        When ``False`` the planner never draws ``worker_crash`` /
        ``worker_stall``, keeping the drill in-process and fast.
    """

    seed: int = 0
    rounds: int = 3
    budget: int = 3
    num_seeds: int = 4
    num_sellers: int = 8
    num_selected: int = 3
    sim_rounds: int = 25
    workers: int = 2
    include_process_faults: bool = True

    def __post_init__(self) -> None:
        for name in ("rounds", "budget", "num_seeds", "workers"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )


@dataclass
class ChaosRoundReport:
    """What one chaos round planned, applied, and concluded.

    ``plan`` is what the planner drew; ``applied`` records what actually
    happened (a disk fault is skipped when no checkpoint artefact exists
    yet, a process fault when the sweep already finished).
    """

    round_index: int
    fault_spec: dict | None
    plan: list[str]
    applied: list[dict] = field(default_factory=list)
    check: Check | None = None

    @property
    def passed(self) -> bool:
        """Whether the recovery-equivalence oracle agreed."""
        return self.check is not None and self.check.passed

    def to_dict(self) -> dict:
        """JSON-ready payload."""
        return {
            "round": self.round_index,
            "fault_spec": self.fault_spec,
            "plan": list(self.plan),
            "applied": [dict(entry) for entry in self.applied],
            "passed": self.passed,
            "detail": self.check.detail if self.check is not None else "",
            "max_error": (self.check.max_error
                          if self.check is not None else 0.0),
        }


@dataclass
class ChaosReport:
    """All rounds of one chaos run."""

    config: ChaosConfig
    rounds: list[ChaosRoundReport]

    @property
    def passed(self) -> bool:
        """Whether every round recovered bit-identically."""
        return all(entry.passed for entry in self.rounds)

    @property
    def num_violations(self) -> int:
        return sum(not entry.passed for entry in self.rounds)

    @property
    def num_faults_applied(self) -> int:
        return sum(
            sum(1 for fault in entry.applied if not fault.get("skipped"))
            for entry in self.rounds
        )

    def to_dict(self) -> dict:
        """JSON-ready payload (CI artefact)."""
        return {
            "seed": self.config.seed,
            "rounds": len(self.rounds),
            "budget": self.config.budget,
            "passed": self.passed,
            "num_violations": self.num_violations,
            "num_faults_applied": self.num_faults_applied,
            "round_reports": [entry.to_dict() for entry in self.rounds],
        }

    def to_text(self) -> str:
        """Human-readable summary."""
        lines = [
            f"chaos run: seed={self.config.seed} "
            f"rounds={len(self.rounds)} budget={self.config.budget}"
        ]
        for entry in self.rounds:
            status = "ok" if entry.passed else "VIOLATION"
            applied = ", ".join(
                fault["kind"] + (" (skipped)" if fault.get("skipped")
                                 else "")
                for fault in entry.applied
            ) or "none"
            lines.append(
                f"  round {entry.round_index} [{status}] faults: {applied}"
            )
            if not entry.passed and entry.check is not None:
                lines.append(f"    {entry.check.detail}")
        verdict = ("all rounds recovered bit-identically"
                   if self.passed
                   else f"{self.num_violations} recovery violation(s)")
        lines.append(f"{self.num_faults_applied} faults applied; {verdict}")
        return "\n".join(lines)


def _chaos_policy_factory(qualities: np.ndarray) -> list[SelectionPolicy]:
    """Two cheap, stateful policies — enough to exercise aggregation."""
    return [UCBPolicy(), EpsilonFirstPolicy(0.1)]


def _flip_byte(path: str, rng: np.random.Generator) -> dict:
    """Flip one random byte of ``path`` in place."""
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    if not raw:
        return {"skipped": True, "reason": "empty file"}
    offset = int(rng.integers(0, len(raw)))
    raw[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(raw)
    return {"offset": offset}


def _truncate(path: str, rng: np.random.Generator) -> dict:
    """Cut a random tail off ``path`` (torn-write model)."""
    size = os.path.getsize(path)
    if size == 0:
        return {"skipped": True, "reason": "empty file"}
    keep = int(rng.integers(0, size))
    with open(path, "rb") as handle:
        raw = handle.read(keep)
    with open(path, "wb") as handle:
        handle.write(raw)
    return {"kept_bytes": keep, "of": size}


def _tamper(path: str, rng: np.random.Generator) -> dict:
    """Inflate one completed seed's revenue sample, keep the footer.

    The archive is rebuilt with an edited ``checkpoint_meta`` record and
    the old — now stale — checksum footer appended, so the file is a
    valid NPZ whose metadata decodes to a plausible sweep.  Only the
    footer betrays it: on code with working verification the load
    quarantines and rolls back; on code with verification disabled the
    poisoned sample reaches aggregation and the oracle flags it.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    payload, footer = (raw[:-_CHECKSUM_FOOTER_LEN],
                       raw[-_CHECKSUM_FOOTER_LEN:])
    try:
        with np.load(io.BytesIO(payload)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["checkpoint_meta"]))
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return {"skipped": True, "reason": "not a loadable checkpoint"}
    samples = meta.get("seed_samples") if isinstance(meta, dict) else None
    if not isinstance(samples, dict) or not samples:
        return {"skipped": True, "reason": "no completed seeds"}
    seed_key = sorted(samples)[int(rng.integers(0, len(samples)))]
    policies = samples[seed_key]
    if not isinstance(policies, dict) or not policies:
        return {"skipped": True, "reason": "malformed seed record"}
    policy_key = sorted(policies)[0]
    metrics = policies[policy_key]
    if not isinstance(metrics, dict) or "total_revenue" not in metrics:
        return {"skipped": True, "reason": "malformed policy record"}
    metrics["total_revenue"] = float(metrics["total_revenue"]) * 1.5 + 1.0
    arrays["checkpoint_meta"] = np.array(json.dumps(meta))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with open(path, "wb") as handle:
        handle.write(buffer.getvalue() + footer)
    return {"seed": seed_key, "policy": policy_key}


def _plan_round(rng: np.random.Generator, config: ChaosConfig) -> list[str]:
    """Draw this round's fault sequence from the menu."""
    menu = [
        kind for kind in CHAOS_FAULT_KINDS
        if config.include_process_faults or kind not in _PROCESS_FAULTS
    ]
    count = 1 + int(rng.integers(0, config.budget))
    return [menu[int(rng.integers(0, len(menu)))] for __ in range(count)]


def _run_episode(sim_config: SimulationConfig,
                 fault_spec: FaultSpec | None,
                 config: ChaosConfig,
                 checkpoint_path: str,
                 resilience: ResiliencePolicy,
                 *,
                 workers: int = 1,
                 watchdog: WatchdogConfig | None = None,
                 abort_after: int | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 ) -> ReplicationResult | None:
    """One sweep attempt; ``None`` when the scheduled abort fired."""
    shutdown = (ScheduledAbort(range(abort_after, config.num_seeds))
                if abort_after is not None else None)
    try:
        return replicate_comparison(
            sim_config, _chaos_policy_factory,
            num_seeds=config.num_seeds,
            fault_spec=fault_spec,
            checkpoint_path=checkpoint_path,
            resume=True,
            workers=workers,
            resilience=resilience,
            watchdog=watchdog,
            shutdown=shutdown,
            tracer=tracer,
            metrics=metrics,
        )
    except GracefulShutdownInterrupt:
        return None


def _injection_env(task_env: str, marker_env: str, task_id: int,
                   marker_path: str) -> dict[str, str]:
    return {task_env: str(task_id), marker_env: marker_path}


def _run_round(round_index: int, config: ChaosConfig, workdir: str,
               tracer: Tracer, metrics: MetricsRegistry,
               ) -> ChaosRoundReport:
    """Plan, apply, recover, and judge one chaos round."""
    rng = seeded_generator([config.seed, round_index])
    # Half the rounds also stress the *simulated* fault layer (seller
    # dropouts etc.) so infrastructure recovery is drilled on top of a
    # degraded market, not only a clean one.  The golden uses the same
    # spec: seller faults are part of the world, not the infrastructure.
    fault_spec = FaultSpec.random(rng) if rng.random() < 0.5 else None
    sim_config = SimulationConfig(
        num_sellers=config.num_sellers,
        num_selected=config.num_selected,
        num_rounds=config.sim_rounds,
    )
    plan = _plan_round(rng, config)
    report = ChaosRoundReport(
        round_index=round_index,
        fault_spec=fault_spec.to_dict() if fault_spec is not None else None,
        plan=list(plan),
    )

    golden = replicate_comparison(
        sim_config, _chaos_policy_factory, num_seeds=config.num_seeds,
        fault_spec=fault_spec,
    )

    checkpoint_path = os.path.join(workdir, f"round-{round_index}.npz")
    resilience = ResiliencePolicy(max_retries=2, checkpoint_generations=3,
                                  quarantine=True)
    # The per-task deadline is the stall detector (the injected stall
    # wedges at task start, so ~1.5s bounds the episode); heartbeat
    # monitoring runs too, but with a limit generous enough to never
    # falsely kill a worker on a loaded CI box.
    watchdog = WatchdogConfig(task_timeout_s=1.5,
                              heartbeat_interval_s=0.1,
                              heartbeat_timeout_s=10.0)
    # Bootstrap: run the sweep to its first seed boundary and stop, so
    # every round starts from a live partial checkpoint — the state the
    # disk faults damage and the resumes must honour.  (A storm hitting
    # an idle system drills nothing.)
    result: ReplicationResult | None = _run_episode(
        sim_config, fault_spec, config, checkpoint_path, resilience,
        abort_after=1, tracer=tracer, metrics=metrics,
    )
    for fault in plan:
        entry: dict = {"kind": fault}
        if fault == "interrupt":
            abort_after = 1 + int(rng.integers(0, config.num_seeds - 1)) \
                if config.num_seeds > 1 else 1
            entry["abort_after_seeds"] = abort_after
            result = _run_episode(
                sim_config, fault_spec, config, checkpoint_path,
                resilience, abort_after=abort_after,
                tracer=tracer, metrics=metrics,
            )
            entry["interrupted"] = result is None
        elif fault in _DISK_FAULTS:
            artifacts = [path for path in generation_paths(checkpoint_path)
                         if os.path.exists(path)]
            if not artifacts:
                entry.update(skipped=True, reason="no checkpoint yet")
            else:
                # Corruption/truncation may hit any generation (that
                # drills rollback depth); a tamper must hit the newest
                # artefact — the one a resume actually loads — or only
                # the checksum-less generations would be poisoned and
                # the drill would prove nothing.
                target = (artifacts[0] if fault == "tamper_checkpoint"
                          else artifacts[int(rng.integers(0,
                                                          len(artifacts)))])
                damage = {"corrupt_checkpoint": _flip_byte,
                          "tamper_checkpoint": _tamper,
                          "truncate_checkpoint": _truncate}[fault]
                entry.update(damage(target, rng))
                entry["target"] = os.path.basename(target)
                result = None  # the damaged state must be re-proven
        elif fault in _PROCESS_FAULTS:
            task_env, marker_env = (
                (CRASH_TASK_ENV, CRASH_MARKER_ENV)
                if fault == "worker_crash"
                else (STALL_TASK_ENV, STALL_MARKER_ENV)
            )
            marker = os.path.join(
                workdir,
                f"round-{round_index}-{fault}-{len(report.applied)}.marker",
            )
            injection = _injection_env(task_env, marker_env, 0, marker)
            saved = {name: os.environ.get(name) for name in injection}
            os.environ.update(injection)
            try:
                result = _run_episode(
                    sim_config, fault_spec, config, checkpoint_path,
                    resilience, workers=config.workers,
                    watchdog=watchdog, tracer=tracer, metrics=metrics,
                )
            finally:
                for name, value in saved.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
            entry["fired"] = os.path.exists(marker)
            if not entry["fired"]:
                entry.update(skipped=True,
                             reason="sweep already complete")
        report.applied.append(entry)

    if result is None:
        # Final fault-free resume: whatever the storm left behind must
        # still carry the sweep to completion.
        result = _run_episode(
            sim_config, fault_spec, config, checkpoint_path, resilience,
            tracer=tracer, metrics=metrics,
        )
    assert result is not None  # no abort scheduled on the final episode
    report.check = check_recovery_equivalence(
        golden, result, case=f"round-{round_index}"
    )
    return report


def run_chaos(config: ChaosConfig,
              *,
              tracer: Tracer | None = None,
              metrics: MetricsRegistry | None = None,
              workdir: str | None = None) -> ChaosReport:
    """Run the chaos drill described by ``config``.

    Parameters
    ----------
    config:
        The drill's shape; see :class:`ChaosConfig`.
    tracer / metrics:
        Optional observability sinks threaded through every sweep the
        drill runs, so ``retry_attempt`` / ``watchdog_kill`` /
        ``checkpoint_quarantined`` / ``graceful_shutdown`` events land
        in the same place as production telemetry.
    workdir:
        Directory for checkpoints and injection markers; a temporary
        one (cleaned afterwards) when omitted.

    Returns
    -------
    ChaosReport
        One entry per round; ``report.passed`` means every round's
        recovered sweep was bit-identical to its fault-free golden.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    reg = metrics if metrics is not None else MetricsRegistry()
    rounds: list[ChaosRoundReport] = []

    def drill(root: str) -> None:
        for round_index in range(config.rounds):
            entry = _run_round(round_index, config, root, tr, reg)
            reg.counter("chaos.rounds").inc()
            if not entry.passed:
                reg.counter("chaos.violations").inc()
            rounds.append(entry)

    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)
        drill(workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
            drill(root)
    return ChaosReport(config=config, rounds=rounds)
