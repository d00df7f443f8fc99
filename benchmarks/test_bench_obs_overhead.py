"""Observability overhead: traced and profiled runs within 10% of plain.

The observability layer's cheap-enough contract has three parts:
(1) NullTracer/unprofiled runs are bit-identical to pre-observability
builds (covered by the determinism tests); (2) a *fully traced* run —
JSONL sink plus a metrics registry — costs less than 10% over the
NullTracer baseline on a realistic instance, so tracing is cheap
enough to leave on in long experiments; (3) a *profiled* run — a
:class:`~repro.obs.PhaseProfiler` with its default RSS memory probe —
also stays under 10%, so profiling real workloads doesn't distort
what it measures.

Methodology, tuned for noisy shared hosts:

* ``time.process_time`` (CPU time) rather than wall clock — scheduler
  preemption and steal time on a busy machine otherwise swamp a ~10%
  effect.
* Baseline/traced runs are interleaved in alternating order, so both
  variants sample the host's throttle states evenly.
* Two noise-robust estimators are computed — the median of paired
  ratios and the classic timeit-style ratio of minima — and the
  smaller is asserted.  Timing contamination on a shared host is
  one-sided (interference only ever inflates a measurement), so each
  estimator over-estimates the true overhead; they rarely spike on the
  same trial, making their minimum a far more reproducible
  over-estimate than either alone.
"""

from __future__ import annotations

import statistics
import time

from repro.bandits.policies import UCBPolicy
from repro.obs import JsonlSink, MetricsRegistry, PhaseProfiler, Tracer
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator

#: A mid-size instance where per-round mechanism work (UCB scoring and
#: top-K selection over M sellers, the K-seller game solve, L-PoI
#: sampling) dominates, as in any real experiment, and a horizon long
#: enough to amortise run-level telemetry finalisation (the per-seller
#: gauge dump and snapshot are O(M) once per run).
_CONFIG = dict(num_sellers=10_000, num_selected=20, num_pois=50,
               num_rounds=600, seed=13)

_PAIRS = 7


def _run_once(tracer=None, metrics=None, profiler=None) -> float:
    config = SimulationConfig(**_CONFIG)
    simulator = TradingSimulator(config)
    start = time.process_time()
    if profiler is None:
        simulator.run(UCBPolicy(), tracer=tracer, metrics=metrics)
    else:
        with profiler.profile():
            simulator.run(UCBPolicy(), metrics=profiler.registry)
    return time.process_time() - start


def _traced_once(tmp_path, index: int) -> float:
    tracer = Tracer(JsonlSink(tmp_path / f"run{index}.jsonl"))
    try:
        return _run_once(tracer=tracer, metrics=MetricsRegistry())
    finally:
        tracer.close()


def test_tracing_overhead_under_10_percent(tmp_path):
    # Warm both paths once (imports, encoder setup, key caches) before
    # timing anything.
    _run_once()
    _traced_once(tmp_path, -1)

    baselines, traceds = [], []
    for i in range(_PAIRS):
        if i % 2 == 0:
            baselines.append(_run_once())
            traceds.append(_traced_once(tmp_path, i))
        else:
            traceds.append(_traced_once(tmp_path, i))
            baselines.append(_run_once())

    median_of_pairs = statistics.median(
        traced / baseline for traced, baseline in zip(traceds, baselines)
    )
    ratio_of_mins = min(traceds) / min(baselines)
    overhead = min(median_of_pairs, ratio_of_mins) - 1.0
    assert overhead < 0.10, (
        f"full tracing costs {overhead:.1%} over the NullTracer baseline "
        f"(budget: 10%); median-of-pairs {median_of_pairs - 1.0:.1%}, "
        f"ratio-of-mins {ratio_of_mins - 1.0:.1%}"
    )


def _profiled_once() -> float:
    return _run_once(profiler=PhaseProfiler())


def test_profiling_overhead_under_10_percent():
    # Same interleaved methodology as the tracing bound: a profiled run
    # (phase timers into the profiler's registry, RSS memory probe,
    # run bracketing) must not distort the workload it measures.
    _run_once()
    _profiled_once()

    baselines, profileds = [], []
    for i in range(_PAIRS):
        if i % 2 == 0:
            baselines.append(_run_once())
            profileds.append(_profiled_once())
        else:
            profileds.append(_profiled_once())
            baselines.append(_run_once())

    median_of_pairs = statistics.median(
        profiled / baseline
        for profiled, baseline in zip(profileds, baselines)
    )
    ratio_of_mins = min(profileds) / min(baselines)
    overhead = min(median_of_pairs, ratio_of_mins) - 1.0
    assert overhead < 0.10, (
        f"profiling costs {overhead:.1%} over the unprofiled baseline "
        f"(budget: 10%); median-of-pairs {median_of_pairs - 1.0:.1%}, "
        f"ratio-of-mins {ratio_of_mins - 1.0:.1%}"
    )
