"""The market's request front-end: :class:`MarketService`.

``MarketService`` is the in-process client API that ``repro serve``
exposes: sellers **register** (opening a session on a free population
slot), clients **quote** a session's learned standing, **trade**
advances the market by whole rounds, and **close** retires a session
with its participation summary.  Every request is a plain-dict
in / plain-dict out call, so the same surface works as a library API,
from the CLI, and from the load generator.

The service owns a :class:`~repro.runtime.market.MarketRuntime` started
with an *empty* floor by default (``start_online=False``): the seller
population is pre-sampled (the config's seed fixes everyone's costs and
qualities), and a registration claims the lowest vacant slot identity.
Passing ``start_online=True`` (or a churn spec) reproduces the batch
posture where every slot is online from round 0 — that is what the
``runtime-smoke`` equivalence check serves.

Determinism: requests are the only nondeterminism source a service run
has.  The same request sequence against the same config yields a
bit-identical trade ledger (see
:func:`repro.runtime.loadgen.replay_script`, which replays recorded
request scripts for exactly this reason).
"""

from __future__ import annotations

import os

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.resilience.shutdown import ShutdownSignal
from repro.runtime.arrivals import ChurnProcess, ChurnSpec
from repro.runtime.market import MarketRuntime
from repro.sim.config import SimulationConfig
from repro.sim.results import RunMetrics

__all__ = ["MarketService"]


class MarketService:
    """Register / quote / trade / close over a :class:`MarketRuntime`.

    Parameters
    ----------
    config:
        Simulation parameters (slots, rounds, pricing bounds, seed).
    policy:
        Selection policy; ``None`` uses the paper's CMAB-HS UCB policy.
        Sessions leave slots offline, so any other policy needs
        ``start_online=True`` and no churn.
    churn:
        Optional organic churn (spec or pre-built process).
    start_online:
        ``False`` (default) starts with no seller online — sessions are
        opened by ``register`` requests.  ``True`` brings every slot
        online immediately (the batch posture).
    tracer / metrics:
        Optional observability objects, passed through to the runtime.
    """

    def __init__(self, config: SimulationConfig,
                 policy: SelectionPolicy | None = None, *,
                 churn: ChurnProcess | ChurnSpec | None = None,
                 start_online: bool = False,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self._runtime = MarketRuntime(
            config, policy, churn=churn, start_online=start_online,
            tracer=tracer, metrics=metrics,
        )

    @property
    def runtime(self) -> MarketRuntime:
        """The runtime this service fronts."""
        return self._runtime

    # -- requests ------------------------------------------------------------------

    def register(self, slot: int | None = None) -> dict[str, int]:
        """Open a seller session; returns ``{"session", "slot", "round"}``.

        ``slot=None`` claims the lowest vacant population slot.  Raises
        :class:`~repro.exceptions.ConfigurationError` when every slot is
        already online.
        """
        session, opened_slot = self._runtime.open_session(slot)
        return {"session": session, "slot": opened_slot,
                "round": self._runtime.next_round}

    def quote(self, session: int) -> dict[str, object]:
        """A session's learned standing and the market's last prices."""
        runtime = self._runtime
        slot = runtime.session_slot(session)
        state = runtime.learning_state
        newest = runtime.ledger.since(-1)
        last = newest[0] if newest else None
        return {
            "session": int(session),
            "slot": slot,
            "round": runtime.next_round,
            "estimate": float(state.means[slot]),
            "observations": int(state.counts[slot]),
            "service_price": (last.service_price if last is not None
                              else None),
            "collection_price": (last.collection_price if last is not None
                                 else None),
        }

    def trade(self, rounds: int = 1, *,
              shutdown: ShutdownSignal | None = None,
              checkpoint_path: str | os.PathLike | None = None,
              checkpoint_every: int = 0) -> dict[str, object]:
        """Advance the market by up to ``rounds`` whole rounds.

        Returns the rounds actually played (0 once the runtime's round
        budget is exhausted) and the settled trades of this request.
        """
        runtime = self._runtime
        before = len(runtime.ledger)
        played = runtime.advance(rounds, shutdown=shutdown,
                                 checkpoint_path=checkpoint_path,
                                 checkpoint_every=checkpoint_every)
        trades: list[dict[str, object]] = [
            {
                "round": record.round_index,
                "participants": np.asarray(record.participants).size,
                "service_price": record.service_price,
                "collection_price": record.collection_price,
                "tau_total": record.tau_total,
                "realized": record.realized,
            }
            for record in runtime.ledger.since(before)
        ]
        return {"rounds_played": played,
                "next_round": runtime.next_round,
                "trades": trades}

    def close(self, session: int) -> dict[str, int]:
        """Close a session; returns its participation summary."""
        return self._runtime.close_session(session)

    def status(self) -> dict[str, object]:
        """A snapshot of the market's standing (no RNG, no mutation)."""
        runtime = self._runtime
        return {
            "round": runtime.next_round,
            "num_rounds": runtime.num_rounds,
            "policy": runtime.policy.name,
            "online": runtime.num_online,
            "slots": runtime.config.num_sellers,
            "sessions_opened": runtime.sessions_opened,
            "sessions_closed": runtime.sessions_closed,
            "trades": len(runtime.ledger),
            "messages_delivered": runtime.kernel.messages_delivered,
            "messages_dropped": runtime.kernel.messages_dropped,
        }

    def metrics(self) -> RunMetrics:
        """Run metrics over the rounds traded so far."""
        return self._runtime.metrics()
