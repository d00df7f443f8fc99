"""Structured trace events emitted by the trading runtime.

A :class:`TraceEvent` is one timestamped-by-round fact about a run —
"round 17 selected sellers [3, 8, 11]", "the equilibrium was
``<p^J*, p*, tau*>``", "seller 4's report was quarantined".  Events are
plain data (a kind, an optional round index, and a flat JSON-friendly
payload) so every sink — ring buffer, JSONL file, stdlib logging — can
carry them without knowing anything about the runtime.

The JSONL codec here is the contract the ``repro trace summarize``
subcommand reads back; :data:`EVENT_KINDS` enumerates every kind the
runtime emits (unknown kinds are tolerated on read, for forward
compatibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["EVENT_KINDS", "TraceEvent"]

#: Every event kind the runtime emits.
#:
#: * ``run_start`` / ``run_end`` — one policy run's bracket (payload:
#:   policy, horizon, seed; run_end adds totals and ``duration_s``).
#: * ``round_start`` / ``round_end`` — one trading round's bracket
#:   (round_end carries the round's ``duration_s``).
#: * ``selection`` — the selected seller set, with UCB indices when the
#:   selector exposes them (Eq. 19) and the selection ``duration_s``.
#: * ``equilibrium`` — the round's strategy profile ``<p^J*, p*,
#:   sum tau*>`` plus the solve ``duration_s``.
#: * ``profits`` — PoC / PoP / mean PoS and realized revenue.
#: * ``fault`` — one injected failure or platform reaction (payload
#:   ``fault`` holds the :class:`~repro.faults.FaultKind` value).
#: * ``checkpoint`` — a checkpoint write or restore (payload ``action``
#:   is ``saved``/``restored``).
#: * ``seed_start`` / ``seed_end`` — one replication seed's bracket.
#: * ``invariant_violation`` — a correctness check failed: a
#:   diagnostics check (Lemma 18) or, in the engine's ``strict`` mode,
#:   a per-round :mod:`repro.verify.invariants` predicate (payload:
#:   ``invariant`` name, ``detail``, ``magnitude``).
#: * ``worker_started`` — the parallel runtime spawned a worker process
#:   (payload: ``worker`` id, ``pid``).
#: * ``worker_task_done`` — a worker finished one task (payload:
#:   ``worker``, ``task``, ``duration_s``, ``attempts``); the trace
#:   summary rolls these up into per-worker phase timing.
#: * ``worker_crashed`` — a worker process died mid-batch (payload:
#:   ``worker``, ``exitcode``, ``lost_tasks`` re-queued to a fresh
#:   worker).
#: * ``retry_attempt`` — a checkpoint write failed and will be retried
#:   under a :class:`~repro.resilience.ResiliencePolicy`, or a crashed
#:   worker's task is re-queued (payload: ``op`` label, ``attempt``,
#:   ``max_attempts``, ``error``; checkpoint writes add ``delay_s``).
#: * ``watchdog_kill`` — the parallel watchdog killed a stalled worker
#:   (payload: ``worker``, ``reason``, ``task``, ``elapsed_s``,
#:   ``limit_s``).
#: * ``task_deadline_exceeded`` — the specific watchdog kill whose
#:   reason was a per-task deadline (emitted alongside
#:   ``watchdog_kill`` with the same payload, so deadline breaches are
#:   greppable without parsing reasons).
#: * ``checkpoint_quarantined`` — a corrupt checkpoint was moved into
#:   its ``*.quarantine/`` directory during rollback (payload:
#:   ``path``, ``quarantined_to``, ``what``, ``error``).
#: * ``graceful_shutdown`` — a run or sweep stopped cooperatively at a
#:   safe boundary after a shutdown signal (payload: final
#:   ``checkpoint_path`` plus progress fields such as
#:   ``rounds_completed`` or ``seeds_completed``).
#: * ``agent_spawn`` — the event runtime registered an agent on the
#:   kernel (payload: ``agent`` id, ``kind`` — ``seller`` / ``platform``
#:   / ``consumer``; sellers add their population ``slot``).
#: * ``agent_depart`` — an agent was deregistered from the kernel
#:   (payload: ``agent`` id, ``kind``, and for sellers the ``slot`` and
#:   ``rounds_online``).
#: * ``message_delivered`` — the kernel delivered one timestamped
#:   message to an agent's mailbox (payload: ``topic``, ``sender``,
#:   ``receiver``, logical ``time``).
#: * ``session_open`` — a seller-session began: the seller is online
#:   and selectable from the next round on (payload: ``session`` id,
#:   ``slot``, ``first_round``, the index of that next round; not
#:   ``round``, which the JSONL form reserves for the event's own round).
#: * ``session_close`` — a seller-session ended, organically (churn) or
#:   via the service's ``close`` request (payload: ``session`` id,
#:   ``slot``, ``rounds_online``, ``trades``).
EVENT_KINDS = frozenset({
    "run_start", "run_end",
    "round_start", "round_end",
    "selection", "equilibrium", "profits",
    "fault", "checkpoint",
    "seed_start", "seed_end",
    "invariant_violation",
    "worker_started", "worker_task_done", "worker_crashed",
    "retry_attempt", "watchdog_kill", "task_deadline_exceeded",
    "checkpoint_quarantined", "graceful_shutdown",
    "agent_spawn", "agent_depart", "message_delivered",
    "session_open", "session_close",
})


#: Types passed through :func:`_jsonable` untouched (the overwhelmingly
#: common case — checked first, by exact type, to keep the hot emit
#: path cheap).
_PLAIN_TYPES = (float, int, str, bool, type(None))


def _jsonable(value):
    """Coerce numpy scalars/arrays into plain JSON-serialisable types."""
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, np.ndarray):
        # tolist() already yields (nested) plain Python scalars.
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One structured event of a traced run.

    Attributes
    ----------
    kind:
        The event category (usually one of :data:`EVENT_KINDS`).
    round_index:
        0-based round the event belongs to, or ``None`` for run-level
        events (``run_start``, ``seed_end``, ...).
    payload:
        Flat JSON-serialisable details, keyed by field name.
    """

    kind: str
    round_index: int | None = None
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSONL wire form (``kind``/``round`` + payload fields)."""
        record: dict = {"kind": self.kind}
        if self.round_index is not None:
            record["round"] = int(self.round_index)
        for key, value in self.payload.items():
            record[str(key)] = _jsonable(value)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceEvent":
        """Rebuild an event from its :meth:`to_dict` wire form.

        Raises
        ------
        ConfigurationError
            If the record is not a dict or lacks a string ``kind``.
        """
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"trace record must be a JSON object, got {type(record).__name__}"
            )
        kind = record.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ConfigurationError(
                "trace record lacks a string 'kind' field"
            )
        round_index = record.get("round")
        if round_index is not None and not isinstance(round_index, int):
            raise ConfigurationError(
                f"trace record 'round' must be an integer, got {round_index!r}"
            )
        payload = {
            key: value for key, value in record.items()
            if key not in ("kind", "round")
        }
        return cls(kind=kind, round_index=round_index, payload=payload)
