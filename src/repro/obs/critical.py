"""Critical-path analysis over JSONL traces.

``repro trace summarize`` answers "how long did each phase take on
average"; this module answers the sharper question "which chain of
phases dominated the wall clock".  It takes the per-phase totals of
:func:`~repro.obs.summarize.summarize_trace` — every
``duration_s``-carrying span in a *lane* (the main process, or
``worker <id>`` for parallel sweeps) and a *phase* — then walks the
phase hierarchy::

    seed > run > round > {selection, equilibrium solve}

picking the heaviest child at each level.  The result names the
wall-clock-dominating chain — e.g. ``seed > run > round > equilibrium
solve`` with per-link totals and the share of its parent each link
explains — and, for parallel traces, the straggler worker lane that
bounds the sweep.

Everything here is pure aggregation over recorded durations: no
clocks, no RNG, deterministic for a given trace file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.summarize import summarize_trace

__all__ = ["CriticalPathReport", "Lane", "PathLink", "critical_path"]

#: The containment hierarchy the path walk descends.  A phase's
#: children are phases whose spans nest inside it; the walk picks the
#: heaviest child at every level until it reaches a leaf.
_PHASE_CHILDREN = {
    "seed": ("run", "checkpoint"),
    "run": ("round", "checkpoint"),
    "round": ("selection", "equilibrium solve"),
}

#: Which phase the walk starts from, in preference order — the
#: outermost phase the trace actually recorded.
_ROOT_PREFERENCE = ("seed", "run", "round")


@dataclass(frozen=True)
class PathLink:
    """One link of the dominating chain."""

    phase: str
    calls: int
    total_s: float
    #: Fraction of the parent link's total this link explains
    #: (1.0 for the root link).
    share_of_parent: float

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "calls": self.calls,
            "total_s": self.total_s,
            "share_of_parent": self.share_of_parent,
        }


@dataclass(frozen=True)
class Lane:
    """One execution lane's aggregate span time."""

    name: str
    calls: int
    total_s: float

    def to_dict(self) -> dict:
        return {"name": self.name, "calls": self.calls,
                "total_s": self.total_s}


@dataclass
class CriticalPathReport:
    """The dominating chain plus per-lane totals of one trace."""

    path: str
    chain: list[PathLink] = field(default_factory=list)
    lanes: list[Lane] = field(default_factory=list)
    #: The straggler worker lane for parallel traces (``None`` for
    #: serial traces).
    slowest_lane: str | None = None
    skipped_lines: int = 0

    @property
    def dominant(self) -> str | None:
        """``"seed > run > round > equilibrium solve"``-style chain name."""
        if not self.chain:
            return None
        return " > ".join(link.phase for link in self.chain)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "trace": self.path,
            "dominant": self.dominant,
            "chain": [link.to_dict() for link in self.chain],
            "lanes": [lane.to_dict() for lane in self.lanes],
            "slowest_lane": self.slowest_lane,
            "skipped_lines": self.skipped_lines,
        }

    def to_text(self) -> str:
        """The text block ``repro trace critical-path`` prints."""
        lines = [f"trace {self.path}"]
        if self.skipped_lines:
            lines.append(
                f"skipped {self.skipped_lines} malformed line"
                f"{'s' if self.skipped_lines != 1 else ''}"
            )
        if not self.chain:
            lines.append("no timed spans recorded — nothing to analyse")
            return "\n".join(lines)
        lines.append(f"critical path: {self.dominant}")
        lines.append("")
        lines.append(f"{'phase':<22} {'calls':>8} {'total':>10} "
                     f"{'of parent':>10}")
        for link in self.chain:
            lines.append(
                f"{link.phase:<22} {link.calls:>8} "
                f"{link.total_s:>9.3f}s {link.share_of_parent:>9.1%}"
            )
        worker_lanes = [lane for lane in self.lanes
                        if lane.name.startswith("worker ")]
        if worker_lanes:
            lines.append("")
            lines.append("worker lanes (slowest bounds the sweep):")
            for lane in sorted(worker_lanes,
                               key=lambda lane: -lane.total_s):
                marker = ("  <- critical"
                          if lane.name == self.slowest_lane else "")
                lines.append(
                    f"  {lane.name:<20} {lane.calls:>6} tasks "
                    f"{lane.total_s:>9.3f}s{marker}"
                )
        return "\n".join(lines)


def critical_path(path: str) -> CriticalPathReport:
    """Analyse one JSONL trace file's wall-clock-dominating chain.

    Malformed lines are skipped and counted, as
    :func:`~repro.obs.summarize.summarize_trace` does.

    Raises
    ------
    ConfigurationError
        Only when the file itself cannot be read.
    """
    summary = summarize_trace(path)
    report = CriticalPathReport(path=str(path),
                                skipped_lines=summary.skipped_lines)
    totals = {name: timing.total
              for name, timing in summary.phase_timings.items()}
    calls = {name: timing.count
             for name, timing in summary.phase_timings.items()}

    report.lanes = [
        Lane(name=name, calls=calls[name], total_s=totals[name])
        for name in sorted(totals)
    ]
    worker_lanes = [lane for lane in report.lanes
                    if lane.name.startswith("worker ")]
    if worker_lanes:
        report.slowest_lane = max(
            worker_lanes, key=lambda lane: (lane.total_s, lane.name)
        ).name

    root = next((name for name in _ROOT_PREFERENCE if name in totals),
                None)
    if root is None:
        return report

    chain = [PathLink(phase=root, calls=calls[root],
                      total_s=totals[root], share_of_parent=1.0)]
    current = root
    while True:
        children = [child for child in _PHASE_CHILDREN.get(current, ())
                    if child in totals]
        if not children:
            break
        heaviest = max(children, key=lambda child: (totals[child], child))
        parent_total = totals[current]
        share = (totals[heaviest] / parent_total
                 if parent_total > 0.0 else 0.0)
        chain.append(PathLink(
            phase=heaviest,
            calls=calls[heaviest],
            total_s=totals[heaviest],
            share_of_parent=share,
        ))
        current = heaviest
    report.chain = chain
    return report
