"""The market re-hosted on the event kernel: :class:`MarketRuntime`.

A :class:`MarketRuntime` plays the exact round loop of
:class:`~repro.sim.engine.TradingSimulator` — UCB selection, the
three-stage Stackelberg solve, data collection, learning — but fires it
as scheduled events on a :class:`~repro.runtime.kernel.EventKernel`
over whatever seller population is *online right now*:

* each round ``t`` is a logical-time tick: the platform selects, sends
  ``collect`` messages to the selected seller agents, sellers
  acknowledge with ``report`` messages, and a settle-phase event plays
  the shared round body from :mod:`repro.sim.rounds`;
* sellers arrive and depart organically (a seeded
  :class:`~repro.runtime.arrivals.ChurnProcess`, or explicit
  ``open_session``/``close_session`` calls from the service front-end);
  a seller departing mid-round simply never acknowledges its collect
  request, and the missing reports are settled through the *same*
  dropout machinery fault injection uses
  (:func:`repro.sim.rounds.play_degraded_round` with a synthesised
  :class:`~repro.faults.RoundFaultPlan`);
* every settled round appends a :class:`TradeRecord` to a
  :class:`TradeLedger` whose SHA-256 digest pins the whole trade
  history for golden verification.

Determinism contract (enforced by ``repro verify --only runtime``):

* **Batch equivalence** — with a static population (no churn, all
  sellers online) the runtime constructs the identical RNG streams in
  the identical order as the batch engine and executes the identical
  round bodies, so its :class:`~repro.sim.results.RunMetrics` is
  bit-identical to ``TradingSimulator.run`` at the same seed *by
  construction*.
* **Script determinism** — the same seed plus the same event schedule
  (churn spec or session script) always yields a bit-identical trade
  ledger; message traffic carries no simulation state and tracing
  touches no RNG stream.

Observation values are sampled platform-side inside the round bodies
(preserving the engine's single ``observations`` stream in its exact
consumption order); ``report`` messages are acknowledgment traffic.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.bandits.policies import UCBPolicy
from repro.core.state import LearningState
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError, PersistenceError
from repro.faults import FaultLog, RoundFaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.quality.distributions import QualityModel
from repro.resilience.shutdown import NEVER_STOP, ShutdownSignal
from repro.runtime.arrivals import ChurnProcess, ChurnSpec
from repro.runtime.kernel import SETTLE, Agent, EventKernel, Message
from repro.sim.config import SimulationConfig
from repro.sim.persistence import load_checkpoint
from repro.sim.results import RunMetrics
from repro.sim.rounds import (
    member_mask,
    play_clean_round,
    play_degraded_round,
)
from repro.sim.runcore import (
    RunCore,
    build_instance,
    check_checkpointing,
    load_run_checkpoint,
    save_run_checkpoint,
)

__all__ = ["TradeRecord", "TradeLedger", "SellerAgent", "PlatformAgent",
           "ConsumerAgent", "MarketRuntime"]

_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class TradeRecord:
    """One settled round of the ledger.

    Attributes
    ----------
    round_index:
        The round this trade settled in.
    participants:
        Population slots that actually delivered (selected minus
        mid-round departures); empty for a no-trade round.
    service_price, collection_price, tau_total, realized:
        The settled ``p^J``, ``p``, total sensing time, and realized
        revenue of the round.
    """

    round_index: int
    participants: np.ndarray
    service_price: float
    collection_price: float
    tau_total: float
    realized: float


class TradeLedger:
    """Append-only trade history with a bit-exact digest."""

    def __init__(self) -> None:
        self._records: list[TradeRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[TradeRecord, ...]:
        """The settled trades, in round order."""
        return tuple(self._records)

    def since(self, start: int) -> list[TradeRecord]:
        """The records from position ``start`` on, as a slice would.

        Copies only the tail, so a per-request read (the newest record,
        or what one request appended) costs what it returns, not the
        whole history.  A negative ``start`` counts from the end.
        """
        return self._records[start:]

    def append(self, record: TradeRecord) -> None:
        """Append one settled round (rounds must arrive in order)."""
        if self._records and record.round_index <= self._records[-1].round_index:
            raise ConfigurationError(
                f"ledger rounds must be strictly increasing: got round "
                f"{record.round_index} after {self._records[-1].round_index}"
            )
        self._records.append(record)

    def digest(self) -> str:
        """SHA-256 over the canonical byte encoding of every record.

        Two runs produce the same digest iff their trade histories are
        bit-identical — the golden-trace anchor of the determinism
        contract.
        """
        digest = hashlib.sha256()
        for record in self._records:
            digest.update(np.int64(record.round_index).tobytes())
            digest.update(
                np.asarray(record.participants, dtype=np.int64).tobytes()
            )
            digest.update(np.array(
                [record.service_price, record.collection_price,
                 record.tau_total, record.realized], dtype=np.float64,
            ).tobytes())
        return digest.hexdigest()

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array form for NPZ checkpoints."""
        participants = [np.asarray(r.participants, dtype=np.int64)
                        for r in self._records]
        offsets = np.zeros(len(self._records) + 1, dtype=np.int64)
        if participants:
            offsets[1:] = np.cumsum([p.size for p in participants])
        flat = (np.concatenate(participants) if participants
                else _EMPTY_SLOTS)
        return {
            "rounds": np.array([r.round_index for r in self._records],
                               dtype=np.int64),
            "offsets": offsets,
            "participants": flat,
            "settlements": np.array(
                [[r.service_price, r.collection_price, r.tau_total,
                  r.realized] for r in self._records],
                dtype=np.float64,
            ).reshape(len(self._records), 4),
        }

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Rebuild the ledger from :meth:`to_arrays` output."""
        self._records = []
        rounds = np.asarray(arrays["rounds"], dtype=np.int64)
        offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        flat = np.asarray(arrays["participants"], dtype=np.int64)
        settlements = np.asarray(arrays["settlements"], dtype=np.float64)
        if offsets.size != rounds.size + 1 or settlements.shape != (rounds.size, 4):
            raise PersistenceError("trade-ledger arrays are inconsistent")
        for i, round_index in enumerate(rounds):
            row = settlements[i]
            self.append(TradeRecord(
                round_index=int(round_index),
                participants=flat[offsets[i]:offsets[i + 1]].copy(),
                service_price=float(row[0]),
                collection_price=float(row[1]),
                tau_total=float(row[2]),
                realized=float(row[3]),
            ))


class SellerAgent(Agent):
    """One online seller: acknowledges collect requests with a report."""

    kind = "seller"

    def __init__(self, slot: int, trades: np.ndarray) -> None:
        super().__init__(f"seller-{slot}")
        self.slot = int(slot)
        self._trades = trades

    def on_message(self, message: Message) -> None:
        if message.topic == "collect":
            self._trades[self.slot] += 1
            self.send(message.sender, "report",
                      round=message.payload["round"], slot=self.slot)
        self.inbox.clear()


class PlatformAgent(Agent):
    """The platform: gathers the round's report acknowledgments."""

    kind = "platform"

    def __init__(self) -> None:
        super().__init__("platform")
        self.reported_slots: list[int] = []

    def on_message(self, message: Message) -> None:
        if message.topic == "report":
            self.reported_slots.append(int(message.payload["slot"]))
        self.inbox.clear()


class ConsumerAgent(Agent):
    """The consumer: receives one trade notification per settled round."""

    kind = "consumer"

    def __init__(self) -> None:
        super().__init__("consumer")
        self.trades_seen = 0
        self.last_trade: dict[str, object] | None = None

    def on_message(self, message: Message) -> None:
        if message.topic == "trade":
            self.trades_seen += 1
            self.last_trade = dict(message.payload)
        self.inbox.clear()


class MarketRuntime:
    """The trading market as a discrete-event process.

    Parameters
    ----------
    config:
        The simulation parameters (``num_rounds`` bounds the runtime's
        lifetime; ``num_sellers`` is the number of population *slots*).
    policy:
        Selection policy; ``None`` uses the paper's CMAB-HS
        :class:`~repro.bandits.UCBPolicy`.  Under churn or with an
        offline slot only a ``UCBPolicy`` can select; any other policy
        raises :class:`~repro.exceptions.ConfigurationError` at the
        first such round.
    population / quality_model:
        Pre-built instances; ``None`` samples/builds them exactly as
        :class:`~repro.sim.engine.TradingSimulator` does (same streams,
        same order — the batch-equivalence anchor).
    churn:
        Optional seeded arrival/departure process.  ``None`` keeps the
        population static unless sessions are managed explicitly.
    start_online:
        Whether every slot starts with an online seller (the batch
        posture).  The service front-end passes ``False`` and opens
        sessions on demand.
    tracer / metrics:
        Optional observability objects (never touch an RNG stream).
    """

    def __init__(self, config: SimulationConfig,
                 policy: SelectionPolicy | None = None, *,
                 population: SellerPopulation | None = None,
                 quality_model: QualityModel | None = None,
                 churn: ChurnProcess | ChurnSpec | None = None,
                 start_online: bool = True,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self._config = config
        self._factory, population, quality_model = build_instance(
            config, population, quality_model
        )
        if isinstance(churn, ChurnSpec):
            # A bare spec binds to this runtime's own factory; zero
            # rates degrade to no churn at all, keeping the static
            # (batch-equivalent) selection path.
            churn = (ChurnProcess(churn, self._factory,
                                  config.num_sellers)
                     if churn.enabled else None)
        if churn is not None and churn.num_sellers != config.num_sellers:
            raise ConfigurationError(
                "churn process covers a different number of slots than "
                "the config"
            )
        self._population = population
        self._churn = churn
        m = self._m = config.num_sellers
        self._num_rounds = config.num_rounds
        self._policy = policy if policy is not None else UCBPolicy()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # The same run core as TradingSimulator.run: a static-population
        # runtime consumes bit-identical randomness to the batch engine.
        self._run = RunCore.start(
            config, self._factory, population, quality_model, self._policy,
            self._num_rounds, tracer=self._tracer, metrics=metrics,
            kind="market_runtime", driver={"churn_spec": (
                churn.spec.to_dict() if churn is not None else None)},
        )
        self._ctx = self._run.ctx
        self._reg = self._ctx.metrics
        self._series = self._ctx.series
        self._fault_log: FaultLog | None = None

        self._kernel = EventKernel(self._tracer)
        self._platform = PlatformAgent()
        self._consumer = ConsumerAgent()
        self._kernel.register(self._platform)
        self._kernel.register(self._consumer)

        self._online = np.zeros(m, dtype=bool)
        self._slot_session = np.full(m, -1, dtype=np.int64)
        self._slot_opened_round = np.zeros(m, dtype=np.int64)
        self._slot_trades = np.zeros(m, dtype=np.int64)
        self._next_session = 0
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._next_round = 0
        self._ledger = TradeLedger()
        if start_online:
            for slot in range(m):
                self.open_session(slot)

    # -- introspection -------------------------------------------------------------

    @property
    def config(self) -> SimulationConfig:
        """The simulation configuration."""
        return self._config

    @property
    def population(self) -> SellerPopulation:
        """The sampled seller population (one entry per slot)."""
        return self._population

    @property
    def policy(self) -> SelectionPolicy:
        """The selection policy driving the market."""
        return self._policy

    @property
    def kernel(self) -> EventKernel:
        """The discrete-event kernel hosting the market."""
        return self._kernel

    @property
    def ledger(self) -> TradeLedger:
        """The settled-trade ledger."""
        return self._ledger

    @property
    def learning_state(self) -> LearningState:
        """The platform's quality-learning state."""
        return self._ctx.state

    @property
    def next_round(self) -> int:
        """The next round to play (== rounds played so far)."""
        return self._next_round

    @property
    def num_rounds(self) -> int:
        """Total rounds this runtime will play."""
        return self._num_rounds

    @property
    def online_mask(self) -> np.ndarray:
        """Boolean per-slot online mask (read-only view)."""
        view = self._online.view()
        view.flags.writeable = False
        return view

    @property
    def num_online(self) -> int:
        """How many sellers are currently online."""
        return int(self._online.sum())

    @property
    def sessions_opened(self) -> int:
        """Seller-sessions opened so far (including churn arrivals)."""
        return self._sessions_opened

    @property
    def sessions_closed(self) -> int:
        """Seller-sessions closed so far (including churn departures)."""
        return self._sessions_closed

    # -- sessions ------------------------------------------------------------------

    def open_session(self, slot: int | None = None) -> tuple[int, int]:
        """Bring one slot online; returns ``(session_id, slot)``.

        ``slot=None`` activates the lowest free slot (the front-end's
        capacity model: the population is pre-sampled, a registration
        claims a vacant identity).
        """
        if slot is None:
            free = np.flatnonzero(~self._online)
            if free.size == 0:
                raise ConfigurationError(
                    f"all {self._m} population slots are online; close a "
                    "session before registering another seller"
                )
            slot = int(free[0])
        else:
            slot = int(slot)
            if not (0 <= slot < self._m):
                raise ConfigurationError(
                    f"slot must be in [0, {self._m}), got {slot}"
                )
            if self._online[slot]:
                raise ConfigurationError(
                    f"slot {slot} is already online"
                )
        session = self._next_session
        self._next_session += 1
        self._online[slot] = True
        self._slot_session[slot] = session
        self._slot_opened_round[slot] = self._next_round
        self._slot_trades[slot] = 0
        self._sessions_opened += 1
        self._kernel.register(SellerAgent(slot, self._slot_trades),
                              slot=slot)
        if self._tracer.enabled:
            self._tracer.emit("session_open", session=session, slot=slot,
                              first_round=self._next_round)
        return session, slot

    def close_session(self, session: int) -> dict[str, int]:
        """Close one session by id; returns its closing summary."""
        slots = np.flatnonzero(self._slot_session == int(session))
        if slots.size == 0:
            raise ConfigurationError(
                f"no open session with id {session}"
            )
        return self._close_slot(int(slots[0]))

    def session_slot(self, session: int) -> int:
        """The slot an open session occupies."""
        slots = np.flatnonzero(self._slot_session == int(session))
        if slots.size == 0:
            raise ConfigurationError(
                f"no open session with id {session}"
            )
        return int(slots[0])

    def _close_slot(self, slot: int) -> dict[str, int]:
        session = int(self._slot_session[slot])
        summary = {
            "session": session,
            "slot": slot,
            "rounds_online": self._next_round
            - int(self._slot_opened_round[slot]),
            "trades": int(self._slot_trades[slot]),
        }
        self._online[slot] = False
        self._slot_session[slot] = -1
        self._sessions_closed += 1
        self._kernel.deregister(f"seller-{slot}", slot=slot)
        if self._tracer.enabled:
            self._tracer.emit("session_close", **summary)
        return summary

    # -- the round loop, as kernel events ------------------------------------------

    def _begin_round(self, t: int) -> None:
        """Churn, then selection over the current online roster.

        With every slot online and no churn process attached, the
        policy selects as in the batch engine (the batch-equivalence
        path); otherwise it selects from the online roster, which only
        a :class:`~repro.bandits.UCBPolicy` can.
        """
        departures = _EMPTY_SLOTS
        if self._churn is not None:
            churn = self._churn.plan_round(t, self._online)
            for slot in churn.arrivals:
                self.open_session(int(slot))
            departures = churn.departures
        online = (None if self._churn is None and bool(self._online.all())
                  else self._online)
        selected = self._run.select(t, online)
        for slot in selected:
            self._platform.send(f"seller-{int(slot)}", "collect", round=t)
        # Mid-round departures leave *after* selection but *before*
        # collection: the kernel drops their collect messages, so the
        # settlement sees them as missing reports.
        for slot in departures:
            self._close_slot(int(slot))
        self._kernel.schedule(
            float(t), lambda: self._settle_round(t, selected),
            phase=SETTLE,
        )

    def _settle_round(self, t: int, selected: np.ndarray) -> None:
        explore = self._run.explore
        reported = np.asarray(self._platform.reported_slots,
                              dtype=np.int64)
        self._platform.reported_slots = []
        missing = selected[~member_mask(selected, reported)]
        if missing.size == 0:
            settlement = play_clean_round(self._ctx, t, selected, explore)
        else:
            # Organic churn reuses the fault machinery: departures are
            # dropout faults of a synthesised plan.
            self._reg.counter("churn_dropouts").inc(int(missing.size))
            plan = RoundFaultPlan(
                round_index=t, dropped=missing,
                corrupted=_EMPTY_SLOTS,
                corrupted_sums=np.empty(0, dtype=np.float64),
                stalled=_EMPTY_SLOTS,
            )
            settlement = play_degraded_round(self._ctx, t, selected,
                                             explore, plan, self._fault_log)
        self._ledger.append(TradeRecord(
            round_index=t,
            participants=np.asarray(settlement.participants,
                                    dtype=np.int64).copy(),
            service_price=float(self._series["service"][t]),
            collection_price=float(self._series["collection"][t]),
            tau_total=float(self._series["totals"][t]),
            realized=float(self._series["realized"][t]),
        ))
        self._platform.send("consumer", "trade", round=t,
                            service_price=float(self._series["service"][t]),
                            collection_price=float(
                                self._series["collection"][t]),
                            realized=float(self._series["realized"][t]))
        self._run.end_round(t)

    def play_round(self) -> int:
        """Schedule and run one full round on the kernel; returns ``t``."""
        t = self._next_round
        if t >= self._num_rounds:
            raise ConfigurationError(
                f"the runtime's {self._num_rounds} rounds are complete"
            )
        self._run.begin_round(t)
        self._kernel.schedule(float(t), lambda: self._begin_round(t))
        self._kernel.run(until=float(t))
        self._next_round += 1
        return t

    def advance(self, rounds: int | None = None, *,
                shutdown: ShutdownSignal | None = None,
                checkpoint_path: str | os.PathLike | None = None,
                checkpoint_every: int = 0) -> int:
        """Play up to ``rounds`` more rounds (``None``: to the end).

        Polls ``shutdown`` before every round; when it trips, a final
        resumable checkpoint is written (when ``checkpoint_path`` is
        set and at least one round completed) and
        :class:`~repro.exceptions.GracefulShutdownInterrupt` is raised.
        Returns the number of rounds actually played.
        """
        check_checkpointing(checkpoint_path, checkpoint_every)
        target = (self._num_rounds if rounds is None
                  else min(self._num_rounds, self._next_round + int(rounds)))
        stop = shutdown if shutdown is not None else NEVER_STOP

        def save(next_round: int) -> None:
            self.save(checkpoint_path)

        played = 0
        while self._next_round < target:
            t = self._next_round
            if stop.should_stop(t):
                self._run.shutdown(t, checkpoint_path, save,
                                   "market runtime")
            self.play_round()
            played += 1
            self._run.periodic_checkpoint(t, checkpoint_path,
                                          checkpoint_every, save)
        return played

    def run(self, *, shutdown: ShutdownSignal | None = None,
            checkpoint_path: str | os.PathLike | None = None,
            checkpoint_every: int = 0,
            resume: bool = False) -> RunMetrics:
        """Play the whole run and return its metrics.

        With ``resume=True`` and an existing ``checkpoint_path``, the
        run continues from the checkpoint and the final metrics are
        bit-identical to an uninterrupted run.
        """
        check_checkpointing(checkpoint_path, checkpoint_every, resume)
        if resume and os.path.exists(checkpoint_path):
            self.restore(checkpoint_path)
        run_start_time = self._run.run_start(
            self._next_round, churn=self._churn is not None)
        played = self.advance(None, shutdown=shutdown,
                              checkpoint_path=checkpoint_path,
                              checkpoint_every=checkpoint_every)
        self._run.run_end(self._next_round, played, run_start_time)
        return self.metrics()

    def metrics(self) -> RunMetrics:
        """The run's metrics over the rounds played so far."""
        return self._run.run_metrics(self._next_round)

    # -- checkpoint / resume --------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Atomically persist the runtime's full resumable state."""
        meta = {
            "next_session": self._next_session,
            "sessions_opened": self._sessions_opened,
            "sessions_closed": self._sessions_closed,
            "messages_delivered": self._kernel.messages_delivered,
            "messages_dropped": self._kernel.messages_dropped,
        }
        arrays = {
            "online_mask": self._online,
            "slot_session": self._slot_session,
            "slot_opened_round": self._slot_opened_round,
            "slot_trades": self._slot_trades,
        }
        for key, value in self._ledger.to_arrays().items():
            arrays[f"ledger_{key}"] = value
        save_run_checkpoint(path, self._run, self._next_round, meta, arrays)

    def restore(self, path: str | os.PathLike) -> int:
        """Restore state saved by :meth:`save`; returns the next round.

        The checkpoint must fingerprint-match this runtime (policy,
        seed, sizes, churn spec), and every field must decode, or
        :class:`~repro.exceptions.PersistenceError` is raised and the
        runtime is left exactly as it was.
        """
        restored = load_run_checkpoint(
            path, self._run, *load_checkpoint(path, metrics=self._reg))
        m = self._m
        online = restored.array("online_mask", bool, m)
        slots = [restored.array(key, np.int64, m) for key in (
            "slot_session", "slot_opened_round", "slot_trades")]
        counters = [restored.field(key, int) for key in (
            "next_session", "sessions_opened", "sessions_closed",
            "messages_delivered", "messages_dropped")]
        ledger = TradeLedger()
        restored.decode("ledger_*", lambda: ledger.restore_arrays(
            restored.columns("ledger_")))
        self._next_round = restored.apply()
        (self._slot_session[:], self._slot_opened_round[:],
         self._slot_trades[:]) = slots
        (self._next_session, self._sessions_opened, self._sessions_closed,
         delivered, dropped) = counters
        self._kernel.restore_message_counters(delivered, dropped)
        self._ledger = ledger
        # Reconcile the agent roster with the restored online mask.
        for slot in range(m):
            agent_id = f"seller-{slot}"
            if online[slot] and not self._kernel.has_agent(agent_id):
                self._kernel.register(
                    SellerAgent(slot, self._slot_trades), slot=slot
                )
            elif not online[slot] and self._kernel.has_agent(agent_id):
                self._kernel.deregister(agent_id, slot=slot)
        self._online[:] = online
        return self._next_round
