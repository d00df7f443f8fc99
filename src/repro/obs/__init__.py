"""Observability layer: structured tracing, metrics, logging, profiling.

The runtime (engine, CMAB-HS mechanism, fault model, replication
sweeps) threads two optional objects through every run:

* a :class:`Tracer` emitting structured per-round
  :class:`~repro.obs.events.TraceEvent`\\ s (selection with UCB indices,
  the equilibrium ``<p^J*, p*, tau*>``, profits, fault injections,
  checkpoint writes) to pluggable sinks — :class:`RingBufferSink`,
  :class:`JsonlSink`, :class:`LoggingSink` — with the zero-overhead
  :data:`NULL_TRACER` as the default, so untraced runs stay
  bit-identical;
* a :class:`MetricsRegistry` of counters, gauges, and histogram timers
  wrapping the hot paths, snapshot-able into checkpoints so resumed
  runs carry their telemetry forward.

``repro trace summarize <trace.jsonl>`` (backed by
:func:`summarize_trace`) rolls a written trace up into per-phase
timings and counter totals; :func:`configure_logging` is the single
entry point for the library's stdlib-``logging`` setup.
"""

from repro.obs.benchstore import (
    BenchRecord,
    BenchStore,
    ComparisonVerdict,
    compare,
)
from repro.obs.critical import CriticalPathReport, critical_path
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.logconfig import LOGGER_NAME, configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    QuantileReservoir,
    Timer,
    timed,
)
from repro.obs.profile import PhaseProfiler, ProfileReport
from repro.obs.summarize import (
    TraceSummary,
    read_trace,
    summarize_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlSink,
    LoggingSink,
    NullTracer,
    RingBufferSink,
    Tracer,
    TraceSink,
)

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "LoggingSink",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Timer",
    "QuantileReservoir",
    "MetricsRegistry",
    "timed",
    "PhaseProfiler",
    "ProfileReport",
    "CriticalPathReport",
    "critical_path",
    "BenchRecord",
    "BenchStore",
    "ComparisonVerdict",
    "compare",
    "LOGGER_NAME",
    "configure_logging",
    "get_logger",
    "TraceSummary",
    "read_trace",
    "summarize_trace",
]
