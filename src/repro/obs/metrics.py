"""Counters, gauges, and histogram timers for the trading runtime.

A :class:`MetricsRegistry` is a flat, name-keyed collection of

* :class:`Counter` — monotone event counts (rounds played, no-trade
  rounds, quarantined reports, ...);
* :class:`Gauge` — last-value-wins observations (cumulative regret,
  current prices, per-seller ``n_i``/``qbar_i``);
* :class:`Timer` — duration summaries (count / total / min / p50 / p95
  / max / mean) wrapping the hot paths via :meth:`MetricsRegistry.time`
  or the :func:`timed` decorator.  Quantiles come from a bounded,
  deterministic :class:`QuantileReservoir` (no RNG — sampling decimates
  by a doubling stride, so replayed runs retain the same sample set).

Registries snapshot to plain JSON-serialisable dicts and restore from
them, so checkpoints can embed a run's telemetry and a resumed run
carries its counters forward instead of starting from zero.  Snapshots
written before timers grew quantiles (no ``p50``/``p95``/``samples``
keys) still restore and merge cleanly — the quantile state simply
starts empty.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "QuantileReservoir",
    "Timer",
    "MetricsRegistry",
    "timed",
]

#: Maximum duration samples a :class:`QuantileReservoir` retains.  When
#: the buffer fills it is sorted and every other sample dropped, and the
#: retention stride doubles — memory stays bounded for million-round
#: runs while the retained set still spans the full distribution.
_SAMPLE_CAP = 512


class QuantileReservoir:
    """A bounded, deterministic sample buffer for quantile estimates.

    Uses systematic (stride) decimation instead of random reservoir
    sampling: the deterministic runtime forbids stray RNG draws (lint
    rule RL101), and a stride keeps replayed runs byte-identical.
    Snapshots emit :meth:`sorted_samples` (the retained multiset in
    canonical order), so merging worker snapshots in any completion
    order yields the same state until decimation kicks in; beyond the
    cap the retained subsample depends on arrival order but still
    spans the full distribution.
    """

    __slots__ = ("_samples", "_stride", "_seen")

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._stride = 1
        self._seen = 0

    def add(self, value: float) -> None:
        """Fold one observation in (retained every ``stride``-th call)."""
        index = self._seen
        self._seen += 1
        if index % self._stride == 0:
            samples = self._samples
            samples.append(value)
            if len(samples) >= _SAMPLE_CAP:
                self._compact()

    def _compact(self) -> None:
        """Halve the buffer (sorted, keep every other) and double stride."""
        self._samples.sort()
        del self._samples[::2]
        self._stride *= 2

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> float | None:
        """The nearest-rank ``q``-quantile of the retained samples.

        ``None`` before any observation.  Estimates are exact until the
        first decimation (fewer than ``512`` observations), then based
        on the strided subsample.
        """
        samples = self._samples
        if not samples:
            return None
        ordered = sorted(samples)
        index = min(len(ordered) - 1,
                    max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    def sorted_samples(self) -> list[float]:
        """The retained samples, ascending (the snapshot wire form)."""
        return sorted(self._samples)

    def absorb(self, samples: list[float]) -> None:
        """Fold another reservoir's retained samples in (for merges)."""
        self._samples.extend(float(value) for value in samples)
        self._seen += len(samples)
        self._samples.sort()
        while len(self._samples) >= _SAMPLE_CAP:
            self._compact()

    def restore(self, samples: list[float], seen: int) -> None:
        """Replace the state with a snapshot's retained samples."""
        self._samples = [float(value) for value in samples]
        self._seen = int(seen)
        self._stride = 1
        while self._seen // self._stride > _SAMPLE_CAP:
            self._stride *= 2
        while len(self._samples) >= _SAMPLE_CAP:
            self._compact()


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only increase; got increment {amount}"
            )
        self.value += int(amount)


class Gauge:
    """A last-value-wins observation."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Timer:
    """A duration histogram summary: count / total / min / p50 / p95 / max."""

    __slots__ = ("count", "total", "minimum", "maximum", "reservoir")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0
        self.reservoir = QuantileReservoir()

    def observe(self, seconds: float) -> None:
        """Fold one measured duration into the summary."""
        seconds = float(seconds)
        if seconds < 0.0:
            raise ConfigurationError(
                f"durations cannot be negative, got {seconds}"
            )
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds
        self.reservoir.add(seconds)

    @property
    def mean(self) -> float:
        """Average observed duration (0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float | None:
        """Median observed duration (``None`` before any observation)."""
        return self.reservoir.quantile(0.50)

    @property
    def p95(self) -> float | None:
        """95th-percentile duration (``None`` before any observation)."""
        return self.reservoir.quantile(0.95)


class MetricsRegistry:
    """Name-keyed counters, gauges, and timers with snapshot/restore."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}

    # -- get-or-create accessors ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter of that name (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge of that name (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def timer(self, name: str) -> Timer:
        """The timer of that name (created on first use)."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer()
        return timer

    # -- timing helpers ------------------------------------------------------------

    @contextmanager
    def time(self, name: str):
        """Context manager timing its body into timer ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.timer(name).observe(time.perf_counter() - start)

    # -- views ---------------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """Current counter values keyed by name."""
        return {name: c.value for name, c in self._counters.items()}

    @property
    def gauges(self) -> dict[str, float]:
        """Current gauge values keyed by name."""
        return {name: g.value for name, g in self._gauges.items()}

    @property
    def timers(self) -> dict[str, Timer]:
        """The live timer objects keyed by name."""
        return dict(self._timers)

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serialisable copy of every metric.

        Timer minima are emitted as ``None`` when no duration was ever
        observed (``inf`` is not valid JSON).  Quantile fields (``p50``/
        ``p95`` plus the sorted retained ``samples`` that make them
        restorable) are additive — readers of pre-quantile snapshots
        never looked for them, and :meth:`restore`/:meth:`merge` accept
        snapshots without them.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "timers": {
                n: {
                    "count": t.count,
                    "total": t.total,
                    "min": None if t.count == 0 else t.minimum,
                    "max": t.maximum,
                    "p50": t.p50,
                    "p95": t.p95,
                    "samples": t.reservoir.sorted_samples(),
                }
                for n, t in self._timers.items()
            },
        }

    def restore(self, snapshot: dict) -> None:
        """Replace this registry's contents with a snapshot's.

        Raises
        ------
        ConfigurationError
            If the snapshot does not look like :meth:`snapshot` output.
        """
        if not isinstance(snapshot, dict):
            raise ConfigurationError(
                "metrics snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        try:
            counters = dict(snapshot.get("counters", {}))
            gauges = dict(snapshot.get("gauges", {}))
            timers = dict(snapshot.get("timers", {}))
            self._counters = {}
            self._gauges = {}
            self._timers = {}
            for name, value in counters.items():
                self.counter(name).value = int(value)
            for name, value in gauges.items():
                self.gauge(name).set(float(value))
            for name, summary in timers.items():
                timer = self.timer(name)
                timer.count = int(summary["count"])
                timer.total = float(summary["total"])
                minimum = summary.get("min")
                timer.minimum = (math.inf if minimum is None
                                 else float(minimum))
                timer.maximum = float(summary["max"])
                # Pre-quantile snapshots carry no sample list; quantile
                # state then simply starts empty (p50/p95 -> None).
                timer.reservoir.restore(list(summary.get("samples", [])),
                                        timer.count)
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed metrics snapshot: {error}"
            ) from error

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one, additively.

        The parallel runtime uses this to combine worker-local
        telemetry into the coordinator's registry: counters add up,
        timers fold their count/total/extremes together, and gauges
        are last-write-wins (the merged snapshot's value replaces the
        local one — gauges are point-in-time observations, not
        accumulators).

        Raises
        ------
        ConfigurationError
            If the snapshot does not look like :meth:`snapshot` output.
        """
        if not isinstance(snapshot, dict):
            raise ConfigurationError(
                "metrics snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        try:
            for name, value in dict(snapshot.get("counters", {})).items():
                self.counter(name).inc(int(value))
            for name, value in dict(snapshot.get("gauges", {})).items():
                self.gauge(name).set(float(value))
            for name, summary in dict(snapshot.get("timers", {})).items():
                timer = self.timer(name)
                count = int(summary["count"])
                if count == 0:
                    continue
                timer.count += count
                timer.total += float(summary["total"])
                minimum = summary.get("min")
                if minimum is not None:
                    timer.minimum = min(timer.minimum, float(minimum))
                timer.maximum = max(timer.maximum, float(summary["max"]))
                # Pre-quantile worker snapshots merge cleanly: with no
                # sample list there is simply nothing to absorb.
                timer.reservoir.absorb(list(summary.get("samples", [])))
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed metrics snapshot: {error}"
            ) from error

    def to_table(self) -> str:
        """Counters, gauges, and timers as an aligned text block."""
        lines = []
        if self._counters:
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(f"  {name} = {self._counters[name].value}")
        if self._gauges:
            lines.append("gauges:")
            for name in sorted(self._gauges):
                lines.append(f"  {name} = {self._gauges[name].value:.6g}")
        if self._timers:
            lines.append("timers:")
            for name in sorted(self._timers):
                t = self._timers[name]
                p50 = t.p50
                p95 = t.p95
                quantiles = (
                    f" p50={p50 * 1e3:.3f}ms p95={p95 * 1e3:.3f}ms"
                    if p50 is not None and p95 is not None else ""
                )
                minimum = (f" min={t.minimum * 1e3:.3f}ms"
                           if t.count else "")
                lines.append(
                    f"  {name}: n={t.count} total={t.total:.4f}s "
                    f"mean={t.mean * 1e3:.3f}ms{minimum}{quantiles} "
                    f"max={t.maximum * 1e3:.3f}ms"
                )
        return "\n".join(lines)


def timed(name: str):
    """Decorator timing a function into an optional registry.

    The wrapped function grows a keyword-only ``metrics`` parameter:
    pass a :class:`MetricsRegistry` and the call is timed into timer
    ``name``; pass ``None`` (or nothing) and the function runs
    undecorated — callers that never heard of metrics are unaffected.
    """

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, metrics: MetricsRegistry | None = None, **kwargs):
            if metrics is None:
                return func(*args, **kwargs)
            with metrics.time(name):
                return func(*args, **kwargs)

        return wrapper

    return decorate
