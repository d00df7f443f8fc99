"""The benchmark's workloads, driven through the public API only.

Each workload makes its inputs from a seed, plays one repeat through
the library the way a user would, and checks what came out.  A repeat
returns an :class:`Outcome`; the :class:`Watch` it was given holds the
repeat's set-up times and its timed wall time, kept apart so that work
moved into set-up shows.

Every workload has a ``"full"`` size, the one that is measured, and a
``"small"`` size for the warm-up and for the tests.  No workload passes
``backend=``: the benchmark measures what users get by default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import (
    FaultLog,
    FaultSpec,
    PolicyComparison,
    RunMetrics,
    SimulationConfig,
    TradingSimulator,
    UCBPolicy,
)
from repro.exceptions import GracefulShutdownInterrupt
from repro.experiments.sweeps import default_policies
from repro.faults import FaultKind
from repro.resilience import ScheduledAbort
from repro.runtime import LoadSpec, MarketService, generate_script, loadgen


class Watch:
    """Set-up times and timed wall time of one repeat.

    ``recorder`` (a :class:`spans.Recorder`) is switched on for timed
    work only and told which round or request is running.
    """

    def __init__(self, recorder: object | None = None) -> None:
        #: One entry per build: a repeat may build more than once.
        self.setups: list[float] = []
        self.wall_s = 0.0
        self._recorder = recorder

    @contextmanager
    def setup(self) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.setups.append(perf_counter() - start)

    @contextmanager
    def timed(self) -> Iterator[None]:
        if self._recorder is not None:
            self._recorder.active = True
        start = perf_counter()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - start
            if self._recorder is not None:
                self._recorder.active = False

    def mark(self, op: int) -> None:
        """Round or request ``op`` starts now."""
        if self._recorder is not None:
            self._recorder.mark(op)


class RoundMarker:
    """A shutdown signal that tells the watch which round starts.

    The engine polls its ``shutdown`` signal once before every round,
    which is how traced spans learn their round.  ``abort``, when given,
    decides whether the run stops.
    """

    def __init__(self, watch: Watch,
                 abort: ScheduledAbort | None = None) -> None:
        self._watch = watch
        self._abort = abort
        self.last_round = -1

    def should_stop(self, round_index: int) -> bool:
        self.last_round = round_index
        self._watch.mark(round_index)
        return self._abort is not None and self._abort.should_stop(round_index)


@dataclass
class Outcome:
    """What one repeat did.

    ``ops`` counts rounds (engine workloads) or requests (the soak);
    ``failed_ops`` counts requests that raised or were skipped.
    """

    ops: int
    digest: str
    errors: list[str]
    failed_ops: int = 0
    counters: dict[str, object] = field(default_factory=dict)


def run_digest(*runs: RunMetrics) -> str:
    """SHA-256 over every series of the given runs, bit for bit."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(run.policy_name.encode())
        for item in dataclasses.fields(run):
            if item.name not in ("policy_name", "telemetry"):
                value = np.ascontiguousarray(getattr(run, item.name))
                digest.update(value.tobytes())
    return digest.hexdigest()


class Workload:
    """A workload: ``setup`` is what a repeat times as set-up, ``play``
    one repeat, ``verify`` the checks that run once, after timing."""

    name: str
    #: ``(M, N)`` per size; the soak's are ``(sessions, rounds)``.
    sizes: dict[str, tuple[int, int]]

    def config(self, seed: int, size: str) -> SimulationConfig:
        sellers, rounds = self.sizes[size]
        return SimulationConfig(num_sellers=sellers, num_selected=10,
                                num_pois=10, num_rounds=rounds, seed=seed)

    def setup(self, seed: int, size: str) -> object:
        raise NotImplementedError

    def play(self, seed: int, size: str, watch: Watch,
             workdir: str) -> Outcome:
        raise NotImplementedError

    def verify(self, seed: int, size: str, outcomes: list[Outcome],
               workdir: str) -> list[str]:
        return []


class Fig7Point(Workload):
    """One Fig. 7 point: all five paper policies on one instance."""

    name = "fig7_point"
    sizes = {"full": (300, 5_000), "small": (40, 400)}

    def setup(self, seed: int, size: str) -> tuple:
        simulator = TradingSimulator(self.config(seed, size))
        return simulator, default_policies(
            simulator.population.expected_qualities)

    def play(self, seed: int, size: str, watch: Watch,
             workdir: str) -> Outcome:
        with watch.setup():
            simulator, policies = self.setup(seed, size)
        comparison = PolicyComparison()
        with watch.timed():
            # One run() per policy is what compare() does; run() is
            # called directly because only it takes a shutdown signal.
            for policy in policies:
                comparison.add(simulator.run(policy,
                                             shutdown=RoundMarker(watch)))
        runs = list(comparison.runs.values())
        return Outcome(ops=sum(run.num_rounds for run in runs),
                       digest=run_digest(*runs),
                       errors=self.check(comparison))

    @staticmethod
    def check(comparison: PolicyComparison) -> list[str]:
        revenue = {name: run.total_realized_revenue
                   for name, run in comparison.runs.items()}
        regret = {name: run.final_regret
                  for name, run in comparison.runs.items()}
        errors = []
        if not revenue["optimal"] >= revenue["CMAB-HS"] > revenue["random"]:
            errors.append(f"revenue not ordered optimal >= CMAB-HS > random: "
                          f"{revenue}")
        if regret["optimal"] != 0.0:
            errors.append(f"optimal regret is {regret['optimal']}, not 0")
        if not regret["CMAB-HS"] < regret["random"]:
            errors.append(f"CMAB-HS regret {regret['CMAB-HS']} is not below "
                          f"random's {regret['random']}")
        return errors


class LargeM(Workload):
    """CMAB-HS alone on a 100,000-seller population."""

    name = "large_m"
    sizes = {"full": (100_000, 150), "small": (3_000, 30)}

    def setup(self, seed: int, size: str) -> tuple:
        return TradingSimulator(self.config(seed, size)), UCBPolicy()

    def play(self, seed: int, size: str, watch: Watch,
             workdir: str) -> Outcome:
        with watch.setup():
            simulator, policy = self.setup(seed, size)
        with watch.timed():
            run = simulator.run(policy, shutdown=RoundMarker(watch))
        return Outcome(ops=run.num_rounds, digest=run_digest(run),
                       errors=self.check(simulator.config, run))

    @staticmethod
    def check(config: SimulationConfig, run: RunMetrics) -> list[str]:
        m, k, n = config.num_sellers, config.num_selected, config.num_rounds
        errors = []
        selections = int(run.selection_counts.sum())
        if selections != m + (n - 1) * k:
            errors.append(f"selection counts sum to {selections}, expected "
                          f"M + (N-1)K = {m + (n - 1) * k}")
        if not np.isfinite(run.final_regret):
            errors.append(f"regret is not finite: {run.final_regret}")
        return errors


#: Request kinds of a session script, coded for the latency arrays.
REQUEST_KINDS = ("register", "quote", "trade", "close")


class TimedService:
    """Forwards the four requests to a :class:`MarketService`, timing each.

    :func:`~repro.runtime.loadgen.replay_script` drives it in place of
    the service, so the soak runs the client loop that ``repro serve``
    runs.
    """

    def __init__(self, service: MarketService, watch: Watch) -> None:
        self.runtime = service.runtime
        self._service = service
        self._watch = watch
        #: Per request sent: its index in :data:`REQUEST_KINDS`, and its
        #: latency in seconds.
        self.kinds: list[int] = []
        self.latencies: list[float] = []

    def _send(self, kind: str, request: Callable, *args: object) -> dict:
        self._watch.mark(len(self.kinds))
        self.kinds.append(REQUEST_KINDS.index(kind))
        start = perf_counter()
        try:
            return request(*args)
        finally:
            self.latencies.append(perf_counter() - start)

    def register(self) -> dict:
        return self._send("register", self._service.register)

    def quote(self, session: int) -> dict:
        return self._send("quote", self._service.quote, session)

    def trade(self, rounds: int) -> dict:
        return self._send("trade", self._service.trade, rounds)

    def close(self, session: int) -> dict:
        return self._send("close", self._service.close, session)


class ServeSoak(Workload):
    """A closed-loop client replaying a session script against the service.

    The client sends each request as soon as the previous one returns
    (zero think time): ``MarketService`` is a synchronous in-process API
    with no queue in front of the market, so an open loop at fixed rates
    would only measure the client's sleeps.
    """

    name = "serve_soak"
    sizes = {"full": (15_000, 7_500), "small": (600, 300)}
    slots = 50
    max_open = 32

    def config(self, seed: int, size: str) -> SimulationConfig:
        _, rounds = self.sizes[size]
        return SimulationConfig(num_sellers=self.slots, num_selected=5,
                                num_pois=5, num_rounds=rounds, seed=seed)

    def script(self, seed: int, size: str) -> list[dict[str, object]]:
        sessions, rounds = self.sizes[size]
        return generate_script(LoadSpec(
            seed=seed, num_sessions=sessions, max_open=self.max_open,
            rounds_budget=rounds, max_rounds_per_trade=3))

    def setup(self, seed: int, size: str) -> MarketService:
        return MarketService(self.config(seed, size))

    def play(self, seed: int, size: str, watch: Watch,
             workdir: str) -> Outcome:
        ops = self.script(seed, size)
        with watch.setup():
            service = TimedService(self.setup(seed, size), watch)
        with watch.timed():
            # A request that raises ends the repeat; one the service
            # cannot take is skipped, and a skipped request counts as
            # failed.  Called through its module, so that a traced run
            # calls the wrapper.
            report = loadgen.replay_script(service, ops)
        errors = []
        opened, closed = report.sessions_opened, report.sessions_closed
        sessions, budget = self.sizes[size]
        if not opened == closed == sessions:
            errors.append(f"sessions opened {opened}, closed {closed}, "
                          f"expected {sessions} each")
        if report.ops_skipped:
            errors.append(f"{report.ops_skipped} requests were skipped")
        if report.rounds_traded != budget:
            errors.append(f"{report.rounds_traded} rounds traded, "
                          f"expected {budget}")
        kernel = service.runtime.kernel
        return Outcome(
            ops=len(ops), digest=report.ledger_digest, errors=errors,
            failed_ops=report.ops_skipped,
            counters={
                "latencies_us": np.array(service.latencies) * 1e6,
                "kinds": np.array(service.kinds),
                "rounds": report.rounds_traded,
                "messages_delivered": kernel.messages_delivered,
                "messages_dropped": kernel.messages_dropped,
            })


class FaultsResume(Workload):
    """A faulty CMAB-HS run stopped half-way and resumed from its checkpoint."""

    name = "faults_resume"
    sizes = {"full": (20_000, 400), "small": (500, 40)}
    spec = FaultSpec(dropout_rate=0.1, corruption_rate=0.05, stall_rate=0.05)
    checkpoint_every = 10

    def setup(self, seed: int, size: str) -> tuple:
        simulator = TradingSimulator(self.config(seed, size))
        return simulator, UCBPolicy(), simulator.fault_model(self.spec)

    def play(self, seed: int, size: str, watch: Watch,
             workdir: str) -> Outcome:
        path = os.path.join(workdir, f"{self.name}.npz")
        if os.path.exists(path):
            os.unlink(path)
        errors = []
        with watch.setup():
            simulator, policy, faults = self.setup(seed, size)
        stop_at = self.sizes[size][1] // 2
        marker = RoundMarker(watch, ScheduledAbort([stop_at]))
        with watch.timed():
            stopped = self.abort_phase(simulator, policy, faults, path, marker)
        if stopped is None or marker.last_round != stop_at:
            errors.append(f"the run did not stop at round {stop_at} "
                          f"(last round polled: {marker.last_round})")
        log = FaultLog()
        with watch.setup():  # a restarted process builds everything again
            simulator, policy, faults = self.setup(seed, size)
        with watch.timed():
            run = self.resume_phase(simulator, policy, faults, path, log,
                                    RoundMarker(watch))
        for kind in (FaultKind.QUARANTINE, FaultKind.DEGRADED):
            if log.count(kind) == 0:
                errors.append(f"the fault log holds no {kind.value} event")
        return Outcome(ops=run.num_rounds, digest=run_digest(run),
                       errors=errors,
                       counters={"fault_" + kind: count
                                 for kind, count in log.summary().items()})

    def abort_phase(self, simulator: TradingSimulator, policy: UCBPolicy,
                    faults: object, path: str,
                    marker: RoundMarker) -> GracefulShutdownInterrupt | None:
        """Run until the scheduled abort; returns the interrupt raised."""
        try:
            simulator.run(policy, fault_model=faults, fault_log=FaultLog(),
                          checkpoint_path=path,
                          checkpoint_every=self.checkpoint_every,
                          shutdown=marker)
        except GracefulShutdownInterrupt as stopped:
            return stopped
        return None

    def resume_phase(self, simulator: TradingSimulator, policy: UCBPolicy,
                     faults: object, path: str, log: FaultLog,
                     marker: RoundMarker) -> RunMetrics:
        """Restore the checkpoint into a rebuilt simulator and finish."""
        return simulator.run(policy, fault_model=faults, fault_log=log,
                             checkpoint_path=path,
                             checkpoint_every=self.checkpoint_every,
                             resume=True, shutdown=marker)

    def verify(self, seed: int, size: str, outcomes: list[Outcome],
               workdir: str) -> list[str]:
        """The resumed runs must equal one uninterrupted run, bit for bit."""
        simulator, policy, faults = self.setup(seed, size)
        reference = run_digest(simulator.run(policy, fault_model=faults,
                                             fault_log=FaultLog()))
        if any(outcome.digest != reference for outcome in outcomes):
            return ["the resumed run differs from an uninterrupted run"]
        return []


WORKLOADS = {workload.name: workload for workload in
             (Fig7Point(), LargeM(), ServeSoak(), FaultsResume())}
