"""Deterministic phase profiling for the trading runtime.

A :class:`PhaseProfiler` turns the per-phase timers the engine already
records (``engine.selection``, ``engine.solve``, ``engine.round``,
``replication.seed``, ...) into an actionable performance profile:

* per-phase **call counts, cumulative time, and self time** (cumulative
  minus the time attributed to nested child phases — a round's self
  time is what selection and the Stage 1-3 solve do *not* explain);
* **peak memory**, probed either cheaply from ``ru_maxrss`` (the
  default — one syscall at the end of the run) or precisely from
  :mod:`tracemalloc` (opt-in; tracing allocations costs real time);
* derived **hot-path rates** — rounds/sec, UCB selections/sec, Stage
  1-3 solves/sec — the headline numbers the vectorization arc is
  gated on.

The profiler is *clock-injected*: every wall-clock read goes through
the constructor's ``clock`` callable (default
:func:`repro.obs.timing.perf_counter`), so tests drive it with a fake
clock and assert exact rates.  It never touches an RNG stream and is
strictly opt-in: a run that never enters a profiling bracket is
byte-identical to one that does.

Usage::

    profiler = PhaseProfiler()
    with profiler.profile(policy="CMAB-HS"):
        simulator.run(policy, metrics=profiler.registry)
    report = profiler.report()
    print(report.hotspot_table())
    atomic_write_json("profile.json", report.to_dict())

or via the CLI: ``repro profile --sellers 300 --rounds 500``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry, Timer
from repro.obs.timing import perf_counter

__all__ = ["MEMORY_PROBES", "PhaseProfiler", "PhaseStat", "ProfileReport"]

#: Recognised memory probes, cheapest first.
#:
#: * ``"off"`` — no memory accounting.
#: * ``"rss"`` — peak resident set size via ``ru_maxrss`` (one
#:   ``getrusage`` call when the run finishes; effectively free, but
#:   process-wide and monotone across runs in the same process).
#: * ``"tracemalloc"`` — exact peak of Python-level allocations between
#:   start and finish (noticeably slows allocation-heavy code; use for
#:   one-off memory investigations, not routine benchmarking).
MEMORY_PROBES = ("off", "rss", "tracemalloc")

#: Parent phase of each known timer, used to attribute *self* time: a
#: phase's self time is its total minus its children's totals.  Every
#: driver times its rounds under the same ``engine.*`` names.  Unknown
#: timer names, and timers whose parent was not recorded, are treated
#: as roots (self == total).
_PHASE_PARENT = {
    "engine.selection": "engine.round",
    "engine.solve": "engine.round",
    "engine.round": "replication.seed",
    "persistence.load_checkpoint": "persistence.recover_checkpoint",
}

#: Rates derived from (counter or timer-count, per active second).
#: Each entry: rate name -> ("counter"|"timer", metric name).
_RATE_SOURCES = {
    "rounds_per_s": ("counter", "rounds"),
    "selections_per_s": ("timer", "engine.selection"),
    "solves_per_s": ("timer", "engine.solve"),
}

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class PhaseStat:
    """One phase's aggregated timing, as reported by the profiler."""

    name: str
    calls: int
    total_s: float
    self_s: float
    mean_s: float
    p50_s: float | None
    p95_s: float | None
    max_s: float
    #: Fraction of the profiled wall-clock attributed to this phase's
    #: self time (0 when the profiler saw no wall-clock).
    share: float

    def to_dict(self) -> dict:
        """The flat JSON form of this phase row."""
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "max_s": self.max_s,
            "share": self.share,
        }


@dataclass(frozen=True)
class ProfileReport:
    """A finished profile: phases, rates, memory, and context."""

    wall_s: float
    rounds: int
    rates: dict[str, float]
    phases: list[PhaseStat]
    counters: dict[str, int]
    memory_probe: str
    peak_memory_bytes: int | None
    context: dict = field(default_factory=dict)

    @property
    def peak_memory_mb(self) -> float | None:
        """Peak memory in MiB (``None`` when the probe was off)."""
        if self.peak_memory_bytes is None:
            return None
        return self.peak_memory_bytes / _MB

    def to_dict(self) -> dict:
        """The flat JSON profile ``repro profile --out`` writes."""
        return {
            "schema": 1,
            "wall_s": self.wall_s,
            "rounds": self.rounds,
            "rates": dict(self.rates),
            "memory": {
                "probe": self.memory_probe,
                "peak_bytes": self.peak_memory_bytes,
                "peak_mb": self.peak_memory_mb,
            },
            "phases": [phase.to_dict() for phase in self.phases],
            "counters": dict(self.counters),
            "context": dict(self.context),
        }

    def hotspot_table(self, top: int = 10) -> str:
        """The top-``top`` phases by self time, as an aligned text block."""
        if top <= 0:
            raise ConfigurationError(f"top must be positive, got {top}")
        lines = [
            f"profiled {self.wall_s:.3f}s wall, {self.rounds} rounds"
        ]
        rate_bits = [
            f"{name.replace('_per_s', '')}/s {value:,.1f}"
            for name, value in self.rates.items()
        ]
        if rate_bits:
            lines.append("rates: " + "  ".join(rate_bits))
        if self.peak_memory_mb is not None:
            lines.append(
                f"peak memory: {self.peak_memory_mb:.1f} MiB "
                f"({self.memory_probe})"
            )
        if self.phases:
            lines.append("")
            lines.append(
                f"{'phase':<24} {'calls':>9} {'total':>10} {'self':>10} "
                f"{'mean':>10} {'p95':>10} {'share':>7}"
            )
            for phase in self.phases[:top]:
                p95 = (f"{phase.p95_s * 1e3:>8.3f}ms"
                       if phase.p95_s is not None else f"{'n/a':>10}")
                lines.append(
                    f"{phase.name:<24} {phase.calls:>9} "
                    f"{phase.total_s:>9.3f}s {phase.self_s:>9.3f}s "
                    f"{phase.mean_s * 1e3:>8.3f}ms {p95} "
                    f"{phase.share:>6.1%}"
                )
            hidden = len(self.phases) - top
            if hidden > 0:
                lines.append(f"... {hidden} more phase"
                             f"{'s' if hidden != 1 else ''} hidden")
        return "\n".join(lines)


class PhaseProfiler:
    """Clock-injected profiler over the runtime's phase timers.

    Run the work inside ``with profiler.profile(**context):`` and pass
    ``metrics=profiler.registry`` to it (to
    :meth:`~repro.sim.engine.TradingSimulator.run`,
    :meth:`~repro.sim.engine.TradingSimulator.compare`, or
    :func:`~repro.sim.replication.replicate_comparison`): the run's
    metrics land in :attr:`registry` and the bracket accounts active
    wall-clock and peak memory.  :meth:`report` then derives phase
    self-times and hot-path rates.

    Parameters
    ----------
    clock:
        Monotonic-seconds callable; every wall-clock read goes through
        it (tests inject a fake clock for exact assertions).
    memory:
        One of :data:`MEMORY_PROBES` (default ``"rss"``).

    The profiler draws no randomness and mutates nothing the simulation
    reads, so a profiled run's results are byte-identical to an
    unprofiled run on the same seed.
    """

    def __init__(self, *, clock=perf_counter, memory: str = "rss") -> None:
        if memory not in MEMORY_PROBES:
            raise ConfigurationError(
                f"unknown memory probe {memory!r}; "
                f"choose one of {MEMORY_PROBES}"
            )
        self._clock = clock
        self._memory = memory
        self._own_registry = MetricsRegistry()
        self._registry = self._own_registry
        self._depth = 0
        self._started_at: float | None = None
        self._active_s = 0.0
        self._peak_bytes: int | None = None
        self._context: dict = {}

    @property
    def registry(self) -> MetricsRegistry:
        """The registry the profiled run's metrics accumulate into."""
        return self._registry

    @property
    def memory_probe(self) -> str:
        """The configured memory probe name."""
        return self._memory

    # -- run bracketing ---------------------------------------------------------------

    def bind(self, metrics: MetricsRegistry | None) -> MetricsRegistry:
        """Adopt the run's registry (the caller's, or this profiler's own).

        Lets :meth:`report` read a registry the caller already owns.
        Returns the registry the run should use.
        """
        self._registry = (metrics if metrics is not None
                          else self._own_registry)
        return self._registry

    def run_started(self) -> None:
        """Open one profiled bracket (re-entrant; outermost wins)."""
        self._depth += 1
        if self._depth == 1:
            self._started_at = self._clock()
            if self._memory == "tracemalloc":
                import tracemalloc

                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                tracemalloc.reset_peak()

    def run_finished(self, **context) -> None:
        """Close one bracket, folding active time, memory, and context in."""
        if self._depth == 0:
            raise ConfigurationError(
                "run_finished() without a matching run_started()"
            )
        self._depth -= 1
        if self._depth == 0 and self._started_at is not None:
            self._active_s += self._clock() - self._started_at
            self._started_at = None
            self._sample_memory()
        self._context.update(context)

    def profile(self, **context) -> "_ProfileBracket":
        """Context manager form of the start/finish bracket.

        ``context`` is folded into the report as :meth:`run_finished`
        does, when the bracket closes.
        """
        return _ProfileBracket(self, context)

    def _sample_memory(self) -> None:
        if self._memory == "rss":
            import resource

            # ru_maxrss is KiB on Linux, bytes on macOS.
            import sys

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if sys.platform != "darwin":
                peak *= 1024
            self._peak_bytes = int(peak)
        elif self._memory == "tracemalloc":
            import tracemalloc

            __, peak = tracemalloc.get_traced_memory()
            previous = self._peak_bytes or 0
            self._peak_bytes = max(previous, int(peak))

    # -- reporting -------------------------------------------------------------------

    def report(self) -> ProfileReport:
        """Derive the profile from the bound registry's current state.

        Callable mid-run too (an open bracket contributes its elapsed
        time so rates stay meaningful).
        """
        active = self._active_s
        if self._depth > 0 and self._started_at is not None:
            active += self._clock() - self._started_at
        timers = self._registry.timers
        counters = self._registry.counters
        phases = _phase_stats(timers, active)
        rates: dict[str, float] = {}
        if active > 0.0:
            for rate_name, (source, metric) in _RATE_SOURCES.items():
                if source == "counter":
                    count = counters.get(metric, 0)
                else:
                    timer = timers.get(metric)
                    count = timer.count if timer is not None else 0
                if count:
                    rates[rate_name] = count / active
        return ProfileReport(
            wall_s=active,
            rounds=int(counters.get("rounds", 0)),
            rates=rates,
            phases=phases,
            counters=dict(counters),
            memory_probe=self._memory,
            peak_memory_bytes=self._peak_bytes,
            context=dict(self._context),
        )


class _ProfileBracket:
    """``with profiler.profile(**context):`` — one start/finish bracket."""

    def __init__(self, profiler: PhaseProfiler, context: dict) -> None:
        self._profiler = profiler
        self._context = context

    def __enter__(self) -> PhaseProfiler:
        self._profiler.run_started()
        return self._profiler

    def __exit__(self, *exc_info) -> None:
        self._profiler.run_finished(**self._context)


def _phase_stats(timers: dict[str, Timer],
                 wall_s: float) -> list[PhaseStat]:
    """Per-phase rows with self time, sorted by self time descending."""
    child_totals: dict[str, float] = {}
    for name, timer in timers.items():
        parent = _PHASE_PARENT.get(name)
        if parent in timers:
            child_totals[parent] = child_totals.get(parent, 0.0) + timer.total
    stats = []
    for name, timer in timers.items():
        if timer.count == 0:
            continue
        self_s = max(0.0, timer.total - child_totals.get(name, 0.0))
        stats.append(PhaseStat(
            name=name,
            calls=timer.count,
            total_s=timer.total,
            self_s=self_s,
            mean_s=timer.mean,
            p50_s=timer.p50,
            p95_s=timer.p95,
            max_s=timer.maximum,
            share=(self_s / wall_s if wall_s > 0.0 else 0.0),
        ))
    stats.sort(key=lambda stat: (-stat.self_s, stat.name))
    return stats
