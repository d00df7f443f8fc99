"""Measure one workload in this process and print one JSON result line.

``run.py`` starts this script once per workload, in a fresh process
with the BLAS/OpenMP pools pinned to one thread::

    python bench/measure.py --workload NAME --seed S --seconds T --trace 0|1 --out DIR

Untraced (``--trace 0``), it runs one untimed warm-up at the small size,
then timed repeats at the full size until ``--seconds`` are spent (at
least :data:`MIN_REPEATS`), and reports the end-to-end metrics as
medians over repeats and set-ups.

Traced (``--trace 1``), it runs one repeat with every layer wrapped (see
:mod:`spans`) between two untraced repeats, and reports the per-layer
metrics.  The spans are written to ``DIR``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import spans
from workloads import REQUEST_KINDS, WORKLOADS, Outcome, Watch, Workload

#: Fewest timed repeats, whatever ``--seconds`` says.
MIN_REPEATS = 3

#: After each repeat, set-up is timed again on its own for this long
#: (at least once), so that set-up samples spread over the whole run.
SETUP_SAMPLE_S = 0.1

#: ``(name, unit)`` of every end-to-end metric, reported untraced.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: ``(name, unit)`` of every per-layer metric, reported traced.  A layer
#: or counter that a workload does not exercise reads 0.
PER_LAYER = (
    *((f"{layer}.{metric}", unit)
      for layer in spans.LAYERS
      for metric, unit in (("self_share", "ratio"), ("us_per_round", "us"),
                           ("calls_per_round", "count"))),
    ("harness.self_share", "ratio"),
    ("harness.us_per_round", "us"),
    ("persistence.write_ms", "ms"),
    ("persistence.bytes_per_write", "bytes"),
    ("persistence.read_ms", "ms"),
    ("runtime.messages_per_round", "count"),
    ("runtime.dropped_ratio", "ratio"),
    ("faults.events_per_round", "count"),
    ("faults.quarantined_ratio", "ratio"),
    ("serve.quote_p50_us", "us"),
    ("serve.quote_p99_us", "us"),
    ("serve.trade_p50_us", "us"),
    ("serve.trade_p99_us", "us"),
    ("serve.quote_growth", "ratio"),
    ("serve.skipped_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)


def percentile(values: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of ``values``; 0 if there are none."""
    return float(np.percentile(values, q)) if values.size else 0.0


def _repeat(workload: Workload, seed: int, size: str, workdir: str,
            recorder: spans.Recorder | None = None) -> tuple[Outcome, Watch]:
    gc.collect()
    watch = Watch(recorder)
    return workload.play(seed, size, watch, workdir), watch


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
            *, size: str = "full") -> dict:
    """Measure workload ``name``; returns the result record."""
    workload = WORKLOADS[name]
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            warm_up = workload.play(seed, "small", Watch(), workdir)
        except Exception as error:  # the program failed: report, not crash
            traceback.print_exc()
            warm_up = Outcome(ops=1, digest="",
                              errors=[f"warm-up raised {error!r}"])
        if warm_up.errors:
            return _result(name, seed, trace, [warm_up], [],
                           _zeros(PER_LAYER if trace else END_TO_END), {})
        if trace:
            return _traced(workload, seed, size, out_dir, workdir)
        return _untraced(workload, seed, seconds, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _zeros(names: tuple[tuple[str, str], ...]) -> dict:
    return {name: {"value": 0.0, "unit": unit} for name, unit in names}


def _result(name: str, seed: int, trace: bool, outcomes: list[Outcome],
            errors: list[str], metrics: dict, samples: dict) -> dict:
    attempted = sum(outcome.ops for outcome in outcomes)
    failed = sum(outcome.ops if outcome.errors else outcome.failed_ops
                 for outcome in outcomes)
    errors = [*errors, *(error for outcome in outcomes
                         for error in outcome.errors)]
    digests = {outcome.digest for outcome in outcomes}
    if len(digests) > 1:
        errors.append(f"repeats disagree: {len(digests)} distinct digests")
    if errors:
        failed = max(failed, 1)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "repeats": len(outcomes), "correct": not errors,
        "attempted": max(attempted, failed, 1), "failed": failed,
        "errors": errors,
        "digest": outcomes[0].digest if outcomes else "",
        "metrics": metrics, "samples": samples,
    }


def _untraced(workload: Workload, seed: int, seconds: float, size: str,
              workdir: str) -> dict:
    outcomes: list[Outcome] = []
    rates: list[float] = []
    setups: list[float] = []
    errors: list[str] = []
    rss_mb = 0.0
    start = perf_counter()
    last = 0.0
    while (len(outcomes) < MIN_REPEATS
           or perf_counter() - start + last <= seconds):
        began = perf_counter()
        try:
            outcome, watch = _repeat(workload, seed, size, workdir)
        except Exception as error:  # the program failed: report, not crash
            traceback.print_exc()
            errors.append(f"repeat {len(outcomes)} raised {error!r}")
            break
        if not outcomes:
            # The peak of one repeat, before later repeats' results pile up.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes.append(outcome)
        rates.append(outcome.ops / watch.wall_s)
        setups += watch.setups
        sampling = perf_counter()
        while True:
            gc.collect()  # each set-up starts from the same collector state
            setup_start = perf_counter()
            workload.setup(seed, size)
            setups.append(perf_counter() - setup_start)
            if perf_counter() - sampling >= SETUP_SAMPLE_S:
                break
        last = perf_counter() - began
    if outcomes and not errors:
        errors += workload.verify(seed, size, outcomes, workdir)
    values = {
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    samples = {"ops_per_s": f"median of {len(outcomes)} repeats",
               "setup_s": f"median of {len(setups)} set-ups",
               "peak_rss_mb": "ru_maxrss after the first timed repeat"}
    return _result(workload.name, seed, False, outcomes, errors, metrics,
                   samples)


def _traced(workload: Workload, seed: int, size: str, out_dir: str,
            workdir: str) -> dict:
    # Untraced repeats on both sides of the traced one are the reference
    # for the tracing overhead, so a drift in machine speed cancels.
    before, before_watch = _repeat(workload, seed, size, workdir)
    recorder = spans.Recorder()
    with spans.installed(recorder, spans.TARGETS):
        traced, watch = _repeat(workload, seed, size, workdir, recorder)
    plain, plain_watch = _repeat(workload, seed, size, workdir)
    errors = []
    if not before.digest == traced.digest == plain.digest:
        errors.append("the traced repeat's digest differs from the untraced one")
    recorder.write(os.path.join(
        out_dir, f"spans-{workload.name}-s{seed}.jsonl.gz"))
    values = layer_metrics(recorder, watch.wall_s, traced.ops)
    values.update(counter_metrics(recorder, traced, plain))
    untraced_s = (before_watch.wall_s + plain_watch.wall_s) / 2
    values["trace.overhead"] = watch.wall_s / untraced_s - 1.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    samples = {"*": f"1 traced repeat of {traced.ops} ops, "
                    f"{len(recorder.spans)} spans"}
    return _result(workload.name, seed, True, [traced], errors, metrics,
                   samples)


def layer_metrics(recorder: spans.Recorder, wall_s: float,
                  ops: int) -> dict[str, float]:
    """Self share, µs per op and calls per op of every layer and the harness."""
    self_s = recorder.layer_self_s()
    calls = recorder.layer_calls()
    values: dict[str, float] = {}
    for layer in recorder.layers:
        values[f"{layer}.self_share"] = self_s[layer] / wall_s
        values[f"{layer}.us_per_round"] = self_s[layer] * 1e6 / ops
        values[f"{layer}.calls_per_round"] = calls[layer] / ops
    harness = wall_s - sum(self_s.values())
    values["harness.self_share"] = harness / wall_s
    values["harness.us_per_round"] = harness * 1e6 / ops
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(recorder: spans.Recorder, traced: Outcome,
                    plain: Outcome) -> dict[str, float]:
    """The per-layer counters; request latencies come from ``plain``."""
    writes, write_s = recorder.by_target.get(spans.WRITE_TARGET, (0, 0.0))
    reads, read_s = recorder.by_target.get(spans.READ_TARGET, (0, 0.0))
    counters = traced.counters
    rounds = counters.get("rounds", traced.ops)
    delivered = counters.get("messages_delivered", 0)
    dropped = counters.get("messages_dropped", 0)
    injected = sum(counters.get(f"fault_{kind}", 0)
                   for kind in ("dropout", "corruption", "stall"))
    kinds = plain.counters.get("kinds")

    def requests(kind: str) -> np.ndarray:
        if kinds is None:
            return np.zeros(0)
        return plain.counters["latencies_us"][kinds == REQUEST_KINDS.index(kind)]

    quotes, trades = requests("quote"), requests("trade")
    tenth = max(quotes.size // 10, 1)
    return {
        "persistence.write_ms": _ratio(write_s * 1e3, writes),
        "persistence.bytes_per_write": _ratio(recorder.bytes_written, writes),
        "persistence.read_ms": _ratio(read_s * 1e3, reads),
        "runtime.messages_per_round": _ratio(delivered, rounds),
        "runtime.dropped_ratio": _ratio(dropped, delivered + dropped),
        "faults.events_per_round": _ratio(injected, traced.ops),
        "faults.quarantined_ratio": _ratio(counters.get("fault_quarantine", 0),
                                           counters.get("fault_corruption", 0)),
        "serve.quote_p50_us": percentile(quotes, 50),
        "serve.quote_p99_us": percentile(quotes, 99),
        "serve.trade_p50_us": percentile(trades, 50),
        "serve.trade_p99_us": percentile(trades, 99),
        "serve.quote_growth": _ratio(percentile(quotes[-tenth:], 50),
                                     percentile(quotes[:tenth], 50)),
        "serve.skipped_ratio": _ratio(plain.failed_ops, plain.ops),
    }


def main(argv: list[str] | None = None, *, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.out, size=size)
    except spans.TargetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
