"""Unit tests for the performance-observability layer.

Covers the clock-injected :class:`~repro.obs.PhaseProfiler` (exact-rate
assertions against a fake clock, self-time attribution, memory probes,
engine/replication integration, the byte-identity guarantee) and the
critical-path analysis over JSONL traces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bandits import UCBPolicy
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    PhaseProfiler,
    critical_path,
)
from repro.sim import (
    SimulationConfig,
    TradingSimulator,
    replicate_comparison,
)


class FakeClock:
    """A manually advanced monotonic clock for exact assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPhaseProfiler:
    def test_rejects_unknown_memory_probe(self):
        with pytest.raises(ConfigurationError, match="memory probe"):
            PhaseProfiler(memory="psutil")

    def test_run_finished_without_start_raises(self):
        with pytest.raises(ConfigurationError, match="run_started"):
            PhaseProfiler().run_finished()

    def test_exact_rates_with_fake_clock(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock, memory="off")
        reg = profiler.bind(None)
        profiler.run_started()
        reg.counter("rounds").inc(10)
        for __ in range(10):
            reg.timer("engine.selection").observe(0.01)
        for __ in range(5):
            reg.timer("engine.solve").observe(0.02)
        clock.advance(2.0)
        profiler.run_finished()
        report = profiler.report()
        assert report.wall_s == pytest.approx(2.0)
        assert report.rounds == 10
        assert report.rates["rounds_per_s"] == pytest.approx(5.0)
        assert report.rates["selections_per_s"] == pytest.approx(5.0)
        assert report.rates["solves_per_s"] == pytest.approx(2.5)

    def test_nested_brackets_count_outermost_only(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock, memory="off")
        profiler.run_started()
        clock.advance(1.0)
        profiler.run_started()   # inner bracket (compare() over run())
        clock.advance(1.0)
        profiler.run_finished()
        clock.advance(1.0)
        profiler.run_finished()
        assert profiler.report().wall_s == pytest.approx(3.0)

    def test_report_mid_run_includes_open_bracket(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock, memory="off")
        profiler.run_started()
        clock.advance(1.5)
        assert profiler.report().wall_s == pytest.approx(1.5)

    def test_self_time_subtracts_children(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock, memory="off")
        reg = profiler.bind(None)
        profiler.run_started()
        reg.timer("engine.round").observe(1.0)
        reg.timer("engine.selection").observe(0.3)
        reg.timer("engine.solve").observe(0.5)
        clock.advance(1.0)
        profiler.run_finished()
        phases = {p.name: p for p in profiler.report().phases}
        assert phases["engine.round"].total_s == pytest.approx(1.0)
        assert phases["engine.round"].self_s == pytest.approx(0.2)
        assert phases["engine.selection"].self_s == pytest.approx(0.3)
        assert phases["engine.round"].share == pytest.approx(0.2)

    def test_bind_prefers_caller_registry(self):
        profiler = PhaseProfiler()
        mine = MetricsRegistry()
        assert profiler.bind(mine) is mine
        assert profiler.registry is mine
        assert profiler.bind(None) is profiler.registry
        assert profiler.bind(None) is not mine

    def test_context_accumulates(self):
        profiler = PhaseProfiler(clock=FakeClock(), memory="off")
        profiler.run_started()
        profiler.run_finished(policy="CMAB-HS")
        profiler.run_started()
        profiler.run_finished(seed=3)
        context = profiler.report().context
        assert context == {"policy": "CMAB-HS", "seed": 3}

    def test_rss_probe_reports_peak(self):
        profiler = PhaseProfiler(memory="rss")
        with profiler.profile():
            pass
        report = profiler.report()
        assert report.memory_probe == "rss"
        assert report.peak_memory_bytes > 0
        assert report.peak_memory_mb == pytest.approx(
            report.peak_memory_bytes / (1024.0 * 1024.0)
        )

    def test_tracemalloc_probe_reports_peak(self):
        profiler = PhaseProfiler(memory="tracemalloc")
        with profiler.profile():
            buffer = [0.0] * 200_000  # noqa: F841 - allocate something
        assert profiler.report().peak_memory_bytes > 100_000

    def test_off_probe_reports_none(self):
        profiler = PhaseProfiler(clock=FakeClock(), memory="off")
        with profiler.profile():
            pass
        report = profiler.report()
        assert report.peak_memory_bytes is None
        assert report.peak_memory_mb is None

    def test_hotspot_table_rejects_nonpositive_top(self):
        with pytest.raises(ConfigurationError, match="top"):
            PhaseProfiler().report().hotspot_table(0)


class TestProfiledEngine:
    _CONFIG = dict(num_sellers=30, num_selected=4, num_rounds=60, seed=7)

    def test_profiled_run_results_are_byte_identical(self):
        plain = TradingSimulator(SimulationConfig(**self._CONFIG)).run(
            UCBPolicy()
        )
        profiler = PhaseProfiler()
        with profiler.profile():
            profiled = TradingSimulator(
                SimulationConfig(**self._CONFIG)
            ).run(UCBPolicy(), metrics=profiler.registry)
        assert np.array_equal(plain.realized_revenue,
                              profiled.realized_revenue)
        assert np.array_equal(plain.regret, profiled.regret)
        assert np.array_equal(plain.selection_counts,
                              profiled.selection_counts)

    def test_engine_run_populates_report(self):
        profiler = PhaseProfiler()
        with profiler.profile(policy="CMAB-HS", num_sellers=30):
            TradingSimulator(SimulationConfig(**self._CONFIG)).run(
                UCBPolicy(), metrics=profiler.registry
            )
        report = profiler.report()
        assert report.rounds == self._CONFIG["num_rounds"]
        assert report.wall_s > 0.0
        assert report.rates["rounds_per_s"] > 0.0
        names = {p.name for p in report.phases}
        assert {"engine.round", "engine.selection",
                "engine.solve"} <= names
        assert report.context["policy"] == "CMAB-HS"
        assert report.context["num_sellers"] == 30

    def test_caller_registry_wins_and_accumulates(self):
        profiler = PhaseProfiler()
        mine = MetricsRegistry()
        with profiler.profile():
            TradingSimulator(SimulationConfig(**self._CONFIG)).run(
                UCBPolicy(), metrics=profiler.bind(mine)
            )
        assert profiler.registry is mine
        assert mine.counters["rounds"] == self._CONFIG["num_rounds"]

    def test_replicate_comparison_profiles_sweep(self):
        profiler = PhaseProfiler()
        with profiler.profile(num_seeds=2):
            replicate_comparison(
                SimulationConfig(num_sellers=16, num_selected=3,
                                 num_rounds=40),
                lambda q: [UCBPolicy()], num_seeds=2,
                metrics=profiler.registry,
            )
        report = profiler.report()
        assert report.rounds == 80
        assert report.context["num_seeds"] == 2
        names = {p.name for p in report.phases}
        assert "replication.seed" in names

    def test_report_dict_is_json_and_versioned(self):
        profiler = PhaseProfiler()
        with profiler.profile():
            TradingSimulator(SimulationConfig(**self._CONFIG)).run(
                UCBPolicy(), metrics=profiler.registry
            )
        payload = profiler.report().to_dict()
        json.dumps(payload)
        assert payload["schema"] == 1
        assert payload["memory"]["probe"] == "rss"
        assert payload["phases"][0]["self_s"] >= 0.0


class TestProfileCli:
    def test_profile_round_trips_json(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        assert main(["profile", "--sellers", "20", "--selected", "3",
                     "--rounds", "40", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rounds/s" in printed
        assert "engine.round" in printed
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["rounds"] == 40
        assert payload["context"] == {
            "num_seeds": 1, "first_seed": 0, "workers": 1,
            "num_sellers": 20, "num_selected": 3, "num_rounds": 40,
        }

    def test_profile_rejects_bad_rounds(self, capsys):
        assert main(["profile", "--rounds", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_path_fails_cleanly(self, capsys, tmp_path):
        out = tmp_path / "no-such-dir" / "profile.json"
        assert main(["profile", "--sellers", "20", "--selected", "3",
                     "--rounds", "20", "--out", str(out)]) == 1
        assert "cannot write profile" in capsys.readouterr().err


def _span(kind, duration, round_index=None, **payload):
    record = {"kind": kind, "duration_s": duration, **payload}
    if round_index is not None:
        record["round"] = round_index
    return json.dumps(record)


class TestCriticalPath:
    def test_names_the_dominating_chain(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([
            _span("seed_end", 10.0),
            _span("run_end", 9.5),
            _span("round_end", 9.0, round_index=0),
            _span("selection", 2.0, round_index=0),
            _span("equilibrium", 6.0, round_index=0),
            _span("checkpoint", 0.2),
        ]) + "\n")
        report = critical_path(str(path))
        assert report.dominant == (
            "seed > run > round > equilibrium solve"
        )
        shares = {link.phase: link.share_of_parent
                  for link in report.chain}
        assert shares["run"] == pytest.approx(9.5 / 10.0)
        assert shares["equilibrium solve"] == pytest.approx(6.0 / 9.0)

    def test_straggler_worker_lane(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([
            _span("worker_task_done", 1.0, worker=0, task=0),
            _span("worker_task_done", 3.0, worker=1, task=1),
            _span("worker_task_done", 0.5, worker=1, task=2),
        ]) + "\n")
        report = critical_path(str(path))
        assert report.slowest_lane == "worker 1"
        lanes = {lane.name: lane for lane in report.lanes}
        assert lanes["worker 1"].total_s == pytest.approx(3.5)
        assert lanes["worker 1"].calls == 2

    def test_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            _span("round_end", 1.0, round_index=0)
            + '\n{"kind": "round_end", "durat\n'
        )
        report = critical_path(str(path))
        assert report.skipped_lines == 1
        assert report.dominant == "round"

    def test_empty_trace_reports_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"kind": "run_start"}) + "\n")
        report = critical_path(str(path))
        assert report.chain == []
        assert "nothing to analyse" in report.to_text()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            critical_path(str(tmp_path / "missing.jsonl"))

    def test_cli_round_trips_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([
            _span("run_end", 2.0),
            _span("round_end", 1.8, round_index=0),
            _span("selection", 1.2, round_index=0),
        ]) + "\n")
        out = tmp_path / "critical.json"
        assert main(["trace", "critical-path", str(trace),
                     "--report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "critical path: run > round > selection" in printed
        payload = json.loads(out.read_text())
        assert payload["dominant"] == "run > round > selection"

    def test_cli_unwritable_report_path_fails_cleanly(self, capsys,
                                                      tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(_span("round_end", 1.0, round_index=0) + "\n")
        out = tmp_path / "no-such-dir" / "critical.json"
        assert main(["trace", "critical-path", str(trace),
                     "--report", str(out)]) == 1
        assert "cannot write critical-path report" in \
            capsys.readouterr().err
