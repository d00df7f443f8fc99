"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    EVENT_KINDS,
    JsonlSink,
    LoggingSink,
    MetricsRegistry,
    NullTracer,
    QuantileReservoir,
    RingBufferSink,
    TraceEvent,
    Tracer,
    configure_logging,
    get_logger,
    read_trace,
    summarize_trace,
    timed,
)
from repro.obs.metrics import Timer
from repro.obs.tracer import NULL_TRACER


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        counter = reg.counter("rounds")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_rejects_negative_increment(self):
        with pytest.raises(ConfigurationError, match="only increase"):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_last_value_wins(self):
        gauge = MetricsRegistry().gauge("price")
        gauge.set(3.5)
        gauge.set(1.25)
        assert gauge.value == 1.25

    def test_coerces_numpy_scalars(self):
        gauge = MetricsRegistry().gauge("regret")
        gauge.set(np.float64(2.5))
        assert isinstance(gauge.value, float)


class TestTimer:
    def test_summary_statistics(self):
        timer = MetricsRegistry().timer("solve")
        for seconds in (0.2, 0.1, 0.3):
            timer.observe(seconds)
        assert timer.count == 3
        assert timer.total == pytest.approx(0.6)
        assert timer.minimum == pytest.approx(0.1)
        assert timer.maximum == pytest.approx(0.3)
        assert timer.mean == pytest.approx(0.2)

    def test_mean_zero_before_observations(self):
        assert MetricsRegistry().timer("idle").mean == 0.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError, match="negative"):
            MetricsRegistry().timer("x").observe(-0.1)

    def test_time_context_manager_observes(self):
        reg = MetricsRegistry()
        with reg.time("block"):
            pass
        assert reg.timer("block").count == 1
        assert reg.timer("block").total >= 0.0


class TestRegistrySnapshot:
    def test_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc(7)
        reg.gauge("regret").set(1.5)
        reg.timer("solve").observe(0.25)
        snapshot = reg.snapshot()
        # The snapshot is plain JSON.
        json.dumps(snapshot)
        other = MetricsRegistry()
        other.restore(snapshot)
        assert other.counters == {"rounds": 7}
        assert other.gauges == {"regret": 1.5}
        assert other.timer("solve").count == 1
        assert other.timer("solve").minimum == pytest.approx(0.25)

    def test_unobserved_timer_min_is_none_in_snapshot(self):
        reg = MetricsRegistry()
        reg.timer("never")
        snapshot = reg.snapshot()
        assert snapshot["timers"]["never"]["min"] is None
        other = MetricsRegistry()
        other.restore(snapshot)
        assert other.timer("never").minimum == math.inf

    def test_restore_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="snapshot"):
            MetricsRegistry().restore("not a dict")
        with pytest.raises(ConfigurationError, match="malformed"):
            MetricsRegistry().restore({"timers": {"x": {"count": 1}}})

    def test_merge_adds_counters_and_folds_timers(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc(3)
        reg.timer("solve").observe(0.2)
        other = MetricsRegistry()
        other.counter("rounds").inc(4)
        other.counter("faults").inc()
        other.timer("solve").observe(0.1)
        other.timer("solve").observe(0.5)
        reg.merge(other.snapshot())
        assert reg.counters == {"rounds": 7, "faults": 1}
        assert reg.timer("solve").count == 3
        assert reg.timer("solve").total == pytest.approx(0.8)
        assert reg.timer("solve").minimum == pytest.approx(0.1)
        assert reg.timer("solve").maximum == pytest.approx(0.5)

    def test_merge_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("regret").set(9.0)
        other = MetricsRegistry()
        other.gauge("regret").set(1.5)
        reg.merge(other.snapshot())
        assert reg.gauges == {"regret": 1.5}

    def test_merge_skips_unobserved_timers(self):
        reg = MetricsRegistry()
        reg.timer("solve").observe(0.2)
        other = MetricsRegistry()
        other.timer("solve")  # never observed: count 0, min None
        reg.merge(other.snapshot())
        assert reg.timer("solve").count == 1
        assert reg.timer("solve").minimum == pytest.approx(0.2)

    def test_merge_is_associative_with_snapshot(self):
        # Merging two worker snapshots in either order yields the same
        # registry state — the coordinator's merge order is completion
        # order, which crashes make nondeterministic.
        workers = []
        for observations in ([0.1, 0.3], [0.2]):
            worker = MetricsRegistry()
            for duration in observations:
                worker.timer("task").observe(duration)
                worker.counter("done").inc()
            workers.append(worker.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snapshot in workers:
            forward.merge(snapshot)
        for snapshot in reversed(workers):
            backward.merge(snapshot)
        assert forward.snapshot() == backward.snapshot()

    def test_merge_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="snapshot"):
            MetricsRegistry().merge("not a dict")
        with pytest.raises(ConfigurationError, match="malformed"):
            MetricsRegistry().merge({"timers": {"x": {"count": 1}}})

    def test_to_table_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc()
        reg.gauge("price").set(2.0)
        reg.timer("solve").observe(0.1)
        table = reg.to_table()
        assert "rounds" in table
        assert "price" in table
        assert "solve" in table


class TestQuantileReservoir:
    def test_exact_quantiles_before_decimation(self):
        reservoir = QuantileReservoir()
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            reservoir.add(value)
        assert reservoir.quantile(0.50) == pytest.approx(3.0)
        assert reservoir.quantile(0.95) == pytest.approx(5.0)
        assert reservoir.quantile(0.0) == pytest.approx(1.0)
        assert reservoir.quantile(1.0) == pytest.approx(5.0)

    def test_empty_reservoir_has_no_quantiles(self):
        assert QuantileReservoir().quantile(0.5) is None

    def test_decimation_bounds_memory_and_keeps_shape(self):
        reservoir = QuantileReservoir()
        for i in range(10_000):
            reservoir.add(float(i))
        assert len(reservoir) < 512
        # Strided subsample still spans the distribution.
        assert reservoir.quantile(0.5) == pytest.approx(5_000, rel=0.05)
        assert reservoir.quantile(0.95) == pytest.approx(9_500, rel=0.05)

    def test_absorb_is_order_independent_below_cap(self):
        # Worker snapshots merged in any completion order yield the
        # same retained multiset (exactly identical until decimation
        # kicks in; beyond the cap only the distribution shape is
        # preserved).
        chunks = [[float(i) for i in range(start, start + 150)]
                  for start in (0, 150, 300)]
        forward, backward = QuantileReservoir(), QuantileReservoir()
        for chunk in chunks:
            forward.absorb(chunk)
        for chunk in reversed(chunks):
            backward.absorb(chunk)
        assert forward.sorted_samples() == backward.sorted_samples()

    def test_restore_round_trips(self):
        original = QuantileReservoir()
        for i in range(100):
            original.add(float(i))
        clone = QuantileReservoir()
        clone.restore(original.sorted_samples(), 100)
        assert clone.sorted_samples() == original.sorted_samples()
        assert clone.quantile(0.5) == original.quantile(0.5)


class TestTimerQuantiles:
    def test_none_before_observations(self):
        timer = Timer()
        assert timer.p50 is None
        assert timer.p95 is None

    def test_small_sample_quantiles_are_exact(self):
        timer = Timer()
        for ms in [0.001, 0.002, 0.003, 0.004, 0.100]:
            timer.observe(ms)
        assert timer.p50 == pytest.approx(0.003)
        assert timer.p95 == pytest.approx(0.100)

    def test_snapshot_carries_quantile_state(self):
        registry = MetricsRegistry()
        for ms in [0.010, 0.020, 0.030]:
            registry.timer("engine.round").observe(ms)
        summary = json.loads(json.dumps(
            registry.snapshot()
        ))["timers"]["engine.round"]
        assert summary["p50"] == pytest.approx(0.020)
        assert summary["p95"] == pytest.approx(0.030)
        assert summary["samples"] == [0.010, 0.020, 0.030]

    def test_restore_accepts_pre_quantile_snapshot(self):
        # Snapshots written before quantiles existed carry no
        # p50/p95/samples keys; restore must still work.
        registry = MetricsRegistry()
        registry.restore({
            "counters": {}, "gauges": {},
            "timers": {"engine.round": {
                "count": 5, "total": 0.5, "min": 0.05, "max": 0.2,
            }},
        })
        timer = registry.timers["engine.round"]
        assert timer.count == 5
        assert timer.p50 is None

    def test_merge_accepts_pre_quantile_snapshot(self):
        registry = MetricsRegistry()
        registry.timer("engine.round").observe(0.1)
        registry.merge({
            "counters": {}, "gauges": {},
            "timers": {"engine.round": {
                "count": 3, "total": 0.3, "min": 0.05, "max": 0.15,
            }},
        })
        timer = registry.timers["engine.round"]
        assert timer.count == 4
        assert timer.total == pytest.approx(0.4)
        # Only the locally observed sample remains in the reservoir.
        assert timer.reservoir.sorted_samples() == [0.1]

    def test_merged_quantiles_cover_both_workers(self):
        local, worker = MetricsRegistry(), MetricsRegistry()
        for ms in [0.001, 0.002]:
            local.timer("parallel.task").observe(ms)
        for ms in [0.100, 0.200]:
            worker.timer("parallel.task").observe(ms)
        local.merge(worker.snapshot())
        timer = local.timers["parallel.task"]
        assert timer.reservoir.sorted_samples() == [
            0.001, 0.002, 0.100, 0.200,
        ]
        assert timer.p95 == pytest.approx(0.200)

    def test_to_table_shows_quantiles(self):
        registry = MetricsRegistry()
        for ms in [0.010, 0.020, 0.030]:
            registry.timer("engine.round").observe(ms)
        table = registry.to_table()
        assert "p50=20.000ms" in table
        assert "p95=30.000ms" in table


class TestTimedDecorator:
    def test_noop_without_registry(self):
        @timed("f")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3

    def test_times_with_registry(self):
        @timed("f")
        def add(a, b):
            return a + b

        reg = MetricsRegistry()
        assert add(1, 2, metrics=reg) == 3
        assert reg.timer("f").count == 1


class TestTracer:
    def test_fans_out_to_all_sinks(self):
        a, b = RingBufferSink(), RingBufferSink()
        tracer = Tracer(a, b)
        tracer.emit("round_start", round_index=3)
        assert len(a.events) == len(b.events) == 1
        assert a.events[0].kind == "round_start"
        assert a.events[0].round_index == 3
        assert tracer.num_events == 1

    def test_null_tracer_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("round_start", round_index=0)
        assert NULL_TRACER.num_events == 0
        assert isinstance(NULL_TRACER, NullTracer)

    def test_context_manager_closes_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            tracer.emit("run_start", policy="UCB")
        assert path.read_text().strip()


class TestRingBufferSink:
    def test_evicts_oldest_beyond_capacity(self):
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sink)
        for t in range(4):
            tracer.emit("round_start", round_index=t)
        assert [e.round_index for e in sink.events] == [2, 3]
        assert sink.capacity == 2

    def test_of_kind_filters(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.emit("round_start", round_index=0)
        tracer.emit("fault", round_index=0, fault="dropout", seller=2)
        assert len(sink.of_kind("fault")) == 1
        sink.clear()
        assert sink.events == ()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            RingBufferSink(capacity=0)


def _sample_events():
    """One representative event of every kind the runtime emits."""
    return [
        TraceEvent("run_start", payload={
            "policy": "CMAB-HS", "num_rounds": 10, "seed": 0,
        }),
        TraceEvent("round_start", 4),
        TraceEvent("selection", 4, {
            "selected": np.array([1, 3]),
            "ucb": np.array([np.inf, 0.75]),
            "explore": False, "duration_s": 1e-4,
        }),
        TraceEvent("equilibrium", 4, {
            "service_price": 2.5, "collection_price": 1.0,
            "tau_total": np.float64(3.75), "explore": False,
            "duration_s": 2e-4,
        }),
        TraceEvent("profits", 4, {
            "consumer": 10.0, "platform": 4.0, "sellers_mean": 0.5,
            "realized": 7.0,
        }),
        TraceEvent("fault", 4, {
            "fault": "corruption", "seller": 3, "value": float("nan"),
        }),
        TraceEvent("checkpoint", 4, {
            "action": "saved", "path": "ckpt.npz", "next_round": 5,
            "duration_s": 3e-3,
        }),
        TraceEvent("round_end", 4, {"duration_s": 5e-3}),
        TraceEvent("run_end", payload={
            "policy": "CMAB-HS", "rounds_played": 10,
            "total_revenue": 99.0, "final_regret": 1.25,
            "duration_s": 0.05,
        }),
        TraceEvent("seed_start", payload={"seed": 3}),
        TraceEvent("seed_end", payload={"seed": 3, "duration_s": 0.5}),
        TraceEvent("invariant_violation", payload={
            "invariant": "lemma18_counter_bound", "seller": 2,
            "observations": 999, "bound": 100.0, "gap": 0.2,
        }),
        TraceEvent("worker_started", payload={"worker": 0, "pid": 4242}),
        TraceEvent("worker_task_done", payload={
            "worker": 0, "task": 3, "duration_s": 0.12, "attempts": 1,
        }),
        TraceEvent("worker_crashed", payload={
            "worker": 0, "exitcode": 23, "lost_tasks": [3, 4],
        }),
        TraceEvent("retry_attempt", payload={
            "op": "engine.checkpoint_write", "attempt": 1,
            "max_attempts": 3, "delay_s": 0.05, "error": "OSError: disk",
        }),
        TraceEvent("watchdog_kill", payload={
            "worker": 0, "reason": "heartbeat_lost", "task": 3,
            "elapsed_s": 2.5, "limit_s": 2.0,
        }),
        TraceEvent("task_deadline_exceeded", payload={
            "worker": 0, "reason": "task_deadline_exceeded", "task": 3,
            "elapsed_s": 2.5, "limit_s": 1.5,
        }),
        TraceEvent("agent_spawn", payload={
            "agent": "seller-3", "agent_kind": "seller", "slot": 3,
        }),
        TraceEvent("agent_depart", payload={
            "agent": "seller-3", "agent_kind": "seller", "slot": 3,
        }),
        TraceEvent("message_delivered", payload={
            "topic": "collect", "sender": "platform", "receiver": "seller-3",
            "time": 4.0,
        }),
        TraceEvent("session_open", payload={"session": 7, "slot": 3}),
        TraceEvent("session_close", payload={
            "session": 7, "slot": 3, "rounds_online": 12, "trades": 5,
        }),
        TraceEvent("checkpoint_quarantined", payload={
            "path": "ckpt.npz", "quarantined_to": "ckpt.quarantine/ckpt.npz",
            "what": "checkpoint", "error": "checksum mismatch",
        }),
        TraceEvent("graceful_shutdown", 4, {
            "policy": "CMAB-HS", "rounds_completed": 4,
            "checkpoint_path": "ckpt.npz",
        }),
    ]


class TestJsonlRoundTrip:
    def test_every_event_kind_round_trips(self, tmp_path):
        events = _sample_events()
        assert {e.kind for e in events} == set(EVENT_KINDS)
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        for event in events:
            tracer.emit(event.kind, event.round_index, **event.payload)
        tracer.close()
        loaded = list(read_trace(path))
        assert [e.kind for e in loaded] == [e.kind for e in events]
        assert [e.round_index for e in loaded] == [
            e.round_index for e in events
        ]
        # Payloads survive with numpy coerced to plain types.
        selection = next(e for e in loaded if e.kind == "selection")
        assert selection.payload["selected"] == [1, 3]
        assert selection.payload["ucb"][0] == math.inf
        fault = next(e for e in loaded if e.kind == "fault")
        assert math.isnan(fault.payload["value"])

    def test_unwritable_path_fails_with_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot open"):
            JsonlSink(tmp_path / "no" / "such" / "dir" / "t.jsonl")

    def test_write_after_close_fails_cleanly(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError, match="closed"):
            sink.handle(TraceEvent("round_start", 0))

    def test_from_dict_rejects_malformed_records(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            TraceEvent.from_dict([1, 2])
        with pytest.raises(ConfigurationError, match="kind"):
            TraceEvent.from_dict({"round": 3})
        with pytest.raises(ConfigurationError, match="round"):
            TraceEvent.from_dict({"kind": "round_start", "round": "x"})


class TestReadTrace:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            list(read_trace(tmp_path / "absent.jsonl"))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"round_start","round":0}\n{oops\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            list(read_trace(path))

    def test_non_event_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"round": 7}\n')
        with pytest.raises(ConfigurationError, match="line 1"):
            list(read_trace(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"kind":"round_start","round":0}\n\n')
        assert len(list(read_trace(path))) == 1

    def test_on_malformed_skips_and_reports(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"round_start","round":0}\n'
                        '{"kind":"round_end","rou\n'
                        '{"round": 7}\n'
                        '{"kind":"run_end"}\n')
        skipped = []
        events = list(read_trace(
            path,
            on_malformed=lambda number, line, error:
                skipped.append((number, line)),
        ))
        assert [event.kind for event in events] == ["round_start",
                                                    "run_end"]
        assert [number for number, __ in skipped] == [2, 3]
        assert skipped[0][1].startswith('{"kind":"round_end"')

    def test_on_malformed_still_raises_on_unreadable_file(self,
                                                          tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            list(read_trace(tmp_path / "absent.jsonl",
                            on_malformed=lambda *a: None))


class TestSummarize:
    def test_rollup_counts_phases_and_faults(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        for event in _sample_events():
            tracer.emit(event.kind, event.round_index, **event.payload)
        tracer.close()
        summary = summarize_trace(path)
        assert summary.num_events == len(_sample_events())
        assert summary.num_rounds == 5  # max round index 4
        assert summary.events_by_kind["fault"] == 1
        assert summary.faults_by_kind == {"corruption": 1}
        assert summary.policies == ["CMAB-HS"]
        assert summary.phase_timings["equilibrium solve"].count == 1
        text = summary.to_text()
        assert "event counts" in text
        assert "per-phase timing" in text
        assert "corruption" in text
        assert "p50" in text and "p95" in text

    def test_truncated_tail_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"round_start","round":0}\n'
                        '{"kind":"round_end","round":0,"duration_s":0.5}\n'
                        '{"kind":"round_end","round":1,"durat\n')
        summary = summarize_trace(path)
        assert summary.skipped_lines == 1
        assert summary.num_events == 2
        assert "skipped 1 malformed line" in summary.to_text()

    def test_negative_duration_is_skipped_not_raised(self, tmp_path):
        # A hostile record cannot abort the rollup or poison the
        # phase's minimum and total.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"round_end","round":0,"duration_s":0.5}\n'
                        '{"kind":"round_end","round":1,"duration_s":-3}\n')
        summary = summarize_trace(path)
        timing = summary.phase_timings["round"]
        assert summary.events_by_kind["round_end"] == 2
        assert (timing.count, timing.total, timing.minimum) == (1, 0.5, 0.5)
        assert "per-phase timing" in summary.to_text()

    def test_clean_trace_reports_no_skips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"round_start","round":0}\n')
        summary = summarize_trace(path)
        assert summary.skipped_lines == 0
        assert "skipped" not in summary.to_text()


class TestLoggingSink:
    def test_forwards_to_logger(self, caplog):
        logger = logging.getLogger("repro.trace.test")
        sink = LoggingSink(logger, level=logging.INFO)
        with caplog.at_level(logging.INFO, logger="repro.trace.test"):
            Tracer(sink).emit("selection", round_index=2, selected=[0, 1])
        assert len(caplog.records) == 1
        assert "selection" in caplog.records[0].message or (
            "selection" in caplog.records[0].getMessage()
        )
        assert '"selected":[0,1]' in caplog.records[0].getMessage()

    def test_skips_work_when_level_disabled(self):
        logger = logging.getLogger("repro.trace.silent")
        logger.setLevel(logging.CRITICAL)
        sink = LoggingSink(logger, level=logging.DEBUG)
        sink.handle(TraceEvent("round_start", 0))  # must not raise


class TestConfigureLogging:
    def test_installs_single_handler_idempotently(self):
        logger = configure_logging("info")
        before = len(logger.handlers)
        logger = configure_logging("debug")
        assert len(logger.handlers) == before
        assert logger.level == logging.DEBUG
        # Clean up the handler so other tests see pristine logging.
        configure_logging("warning")

    def test_rejects_unknown_level(self):
        with pytest.raises(ConfigurationError, match="unknown log level"):
            configure_logging("loud")

    def test_get_logger_namespaces(self):
        assert get_logger().name == "repro"
        assert get_logger("repro.core.state").name == "repro.core.state"
        assert get_logger("custom").name == "repro.custom"
