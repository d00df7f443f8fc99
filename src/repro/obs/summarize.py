"""Read a JSONL trace back and roll it up into a human-readable summary.

This is the analysis half of the tracing substrate: ``repro trace
summarize <path>`` loads every event a traced run emitted and reports

* event counts by kind,
* per-phase timing rollups (selection / equilibrium solve / whole
  round / checkpoint writes / whole runs), reconstructed from the
  ``duration_s`` fields events carry (a negative or NaN duration is
  skipped, not counted),
* fault-injection counts by fault kind,
* the policies and round span the trace covers,
* per-worker task timing and crash counts when the trace came from a
  parallel (``--workers N``) run — each ``worker_task_done`` event
  lands in a ``worker <id>`` phase of its own.

An unreadable file always surfaces as
:class:`~repro.exceptions.ConfigurationError`.  Malformed *lines* have
two modes: :func:`read_trace` raises by default (naming the offending
1-based line), but callers may pass ``on_malformed`` to skip-and-count
instead — a run that crashed mid-write leaves a truncated final JSONL
record, and a summary should report that honestly rather than refuse
the whole trace.  :func:`summarize_trace` uses the tolerant mode and
reports the skipped count in :attr:`TraceSummary.skipped_lines`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.obs.events import TraceEvent
from repro.obs.metrics import Timer

__all__ = ["TraceSummary", "read_trace", "summarize_trace"]

#: Which event kinds carry a ``duration_s`` worth aggregating, and the
#: phase label each is reported under.
_PHASE_OF_KIND = {
    "selection": "selection",
    "equilibrium": "equilibrium solve",
    "round_end": "round",
    "checkpoint": "checkpoint",
    "run_end": "run",
    "seed_end": "seed",
}


@dataclass
class TraceSummary:
    """Rollup of one JSONL trace file."""

    path: str
    num_events: int = 0
    events_by_kind: dict[str, int] = field(default_factory=dict)
    phase_timings: dict[str, Timer] = field(default_factory=dict)
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    policies: list[str] = field(default_factory=list)
    num_rounds: int = 0
    workers: set = field(default_factory=set)
    worker_crashes: int = 0
    #: Event-runtime lifecycle rollup (``repro serve`` traces): agents
    #: spawned/departed on the kernel, seller-sessions opened/closed,
    #: and mailbox messages delivered.
    agents_spawned: int = 0
    agents_departed: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    messages_delivered: int = 0
    #: Malformed JSONL lines skipped during the rollup — typically the
    #: truncated final record of a run that crashed mid-write.
    skipped_lines: int = 0

    def add(self, event: TraceEvent) -> None:
        """Fold one event into the summary."""
        self.num_events += 1
        self.events_by_kind[event.kind] = (
            self.events_by_kind.get(event.kind, 0) + 1
        )
        if event.round_index is not None:
            self.num_rounds = max(self.num_rounds, event.round_index + 1)
        phase = _PHASE_OF_KIND.get(event.kind)
        if event.kind == "worker_task_done":
            # Parallel runs get one phase per worker, so the summary
            # shows how evenly the sweep sharded across the pool.
            phase = f"worker {event.payload.get('worker', '?')}"
        duration = event.payload.get("duration_s")
        # A negative (or NaN) duration cannot be a measurement: skip it
        # rather than let one hostile record abort the rollup.
        if (phase is not None and isinstance(duration, (int, float))
                and duration >= 0.0):
            timing = self.phase_timings.get(phase)
            if timing is None:
                timing = self.phase_timings[phase] = Timer()
            timing.observe(duration)
        if event.kind in ("worker_started", "worker_task_done",
                          "worker_crashed"):
            worker = event.payload.get("worker")
            if worker is not None:
                self.workers.add(worker)
        if event.kind == "worker_crashed":
            self.worker_crashes += 1
        if event.kind == "agent_spawn":
            self.agents_spawned += 1
        elif event.kind == "agent_depart":
            self.agents_departed += 1
        elif event.kind == "session_open":
            self.sessions_opened += 1
        elif event.kind == "session_close":
            self.sessions_closed += 1
        elif event.kind == "message_delivered":
            self.messages_delivered += 1
        if event.kind == "fault":
            fault = str(event.payload.get("fault", "unknown"))
            self.faults_by_kind[fault] = (
                self.faults_by_kind.get(fault, 0) + 1
            )
        if event.kind == "run_start":
            policy = event.payload.get("policy")
            if isinstance(policy, str) and policy not in self.policies:
                self.policies.append(policy)

    def to_text(self) -> str:
        """The summary as the text block ``repro trace summarize`` prints."""
        lines = [f"trace {self.path}: {self.num_events} events, "
                 f"{self.num_rounds} rounds"]
        if self.skipped_lines:
            lines.append(
                f"skipped {self.skipped_lines} malformed line"
                f"{'s' if self.skipped_lines != 1 else ''} "
                "(truncated or partially written records)"
            )
        if self.policies:
            lines.append(f"policies: {', '.join(self.policies)}")
        if self.workers:
            crashes = (f", {self.worker_crashes} crashed"
                       if self.worker_crashes else "")
            lines.append(f"workers: {len(self.workers)}{crashes}")
        if self.sessions_opened or self.agents_spawned:
            open_sessions = self.sessions_opened - self.sessions_closed
            lines.append(
                f"runtime: {self.sessions_opened} sessions opened, "
                f"{self.sessions_closed} closed ({open_sessions} open at "
                f"end); {self.agents_spawned} agents spawned, "
                f"{self.agents_departed} departed; "
                f"{self.messages_delivered} messages delivered"
            )
        lines.append("")
        lines.append("event counts:")
        for kind in sorted(self.events_by_kind):
            lines.append(f"  {kind:<20} {self.events_by_kind[kind]:>8}")
        if self.faults_by_kind:
            lines.append("")
            lines.append("fault events:")
            for kind in sorted(self.faults_by_kind):
                lines.append(f"  {kind:<20} {self.faults_by_kind[kind]:>8}")
        if self.phase_timings:
            lines.append("")
            lines.append("per-phase timing:")
            header = (f"  {'phase':<18} {'calls':>8} {'total':>10} "
                      f"{'mean':>10} {'p50':>10} {'p95':>10} {'max':>10}")
            lines.append(header)
            for phase in sorted(self.phase_timings):
                t = self.phase_timings[phase]
                p50 = t.p50
                p95 = t.p95
                p50_text = (f"{p50 * 1e3:>8.3f}ms" if p50 is not None
                            else f"{'n/a':>10}")
                p95_text = (f"{p95 * 1e3:>8.3f}ms" if p95 is not None
                            else f"{'n/a':>10}")
                lines.append(
                    f"  {phase:<18} {t.count:>8} {t.total:>9.3f}s "
                    f"{t.mean * 1e3:>8.3f}ms {p50_text} {p95_text} "
                    f"{t.maximum * 1e3:>8.3f}ms"
                )
        return "\n".join(lines)


def read_trace(path: str | os.PathLike, *,
               on_malformed: Callable[[int, str, ConfigurationError],
                                      None] | None = None):
    """Yield every :class:`TraceEvent` of a JSONL trace file, in order.

    Parameters
    ----------
    path:
        The JSONL trace file.
    on_malformed:
        When given, a line that is not valid JSON or not a valid event
        is *skipped* and this callback is invoked with ``(line_number,
        line, error)`` instead of raising — the degraded-read mode for
        traces whose tail was truncated by a crash mid-write.  The
        default (``None``) keeps the strict contract: malformed lines
        raise.

    Raises
    ------
    ConfigurationError
        If the file cannot be read (always), or — without
        ``on_malformed`` — if any line is not a JSON object with a
        string ``kind`` (the error names the 1-based line).
    """
    path = os.fspath(path)
    try:
        handle = open(path, encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read trace file {path!r}: {error}"
        ) from error
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                wrapped = ConfigurationError(
                    f"trace file {path!r} line {line_number} is not valid "
                    f"JSON: {error}"
                )
                if on_malformed is not None:
                    on_malformed(line_number, line, wrapped)
                    continue
                raise wrapped from error
            try:
                event = TraceEvent.from_dict(record)
            except ConfigurationError as error:
                wrapped = ConfigurationError(
                    f"trace file {path!r} line {line_number}: {error}"
                )
                if on_malformed is not None:
                    on_malformed(line_number, line, wrapped)
                    continue
                raise wrapped from error
            yield event


def summarize_trace(path: str | os.PathLike) -> TraceSummary:
    """Roll one JSONL trace file up into a :class:`TraceSummary`.

    Degrades gracefully on truncated or partially written lines (a
    crash mid-write leaves at most a malformed tail record): such lines
    are skipped and counted into :attr:`TraceSummary.skipped_lines`
    rather than failing the whole rollup.

    Raises
    ------
    ConfigurationError
        Only when the file itself cannot be read.
    """
    summary = TraceSummary(path=os.fspath(path))

    def count_skipped(line_number: int, line: str,
                      error: ConfigurationError) -> None:
        summary.skipped_lines += 1

    for event in read_trace(path, on_malformed=count_skipped):
        summary.add(event)
    return summary
