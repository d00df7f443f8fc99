"""Integration tests: observability wired through the trading runtime.

The load-bearing guarantee is *zero observational interference*: a
seeded run with full JSONL tracing produces bit-identical results —
series, checkpoint files — to the same run with the NullTracer default.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultSpec
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator
from repro.sim.results import SERIES_FIELDS


def _config(**overrides):
    defaults = dict(num_sellers=10, num_selected=3, num_pois=5,
                    num_rounds=12, seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _ucb():
    from repro.bandits import UCBPolicy

    return UCBPolicy()


def _series_equal(a, b):
    for name in SERIES_FIELDS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return True


class TestDeterminismGuard:
    def test_traced_run_bit_identical_to_untraced(self, tmp_path):
        config = _config()
        baseline = TradingSimulator(config).run(_ucb())
        traced = TradingSimulator(config).run(
            _ucb(),
            tracer=Tracer(JsonlSink(tmp_path / "run.jsonl"),
                          RingBufferSink()),
            metrics=MetricsRegistry(),
        )
        assert _series_equal(baseline, traced)

    def test_traced_faulty_run_bit_identical(self, tmp_path):
        config = _config()
        spec = FaultSpec(dropout_rate=0.25, corruption_rate=0.15,
                         stall_rate=0.1)
        baseline_sim = TradingSimulator(config)
        baseline = baseline_sim.run(
            _ucb(), fault_model=baseline_sim.fault_model(spec)
        )
        traced_sim = TradingSimulator(config)
        traced = traced_sim.run(
            _ucb(), fault_model=traced_sim.fault_model(spec),
            tracer=Tracer(JsonlSink(tmp_path / "run.jsonl")),
            metrics=MetricsRegistry(),
        )
        assert _series_equal(baseline, traced)

    def test_traced_checkpoint_files_byte_identical(self, tmp_path):
        """Tracing must not leak into the persisted artefacts.

        Metrics snapshots only enter checkpoint meta when the caller
        supplies a registry, so a plain traced run's checkpoints match
        an untraced run's byte for byte.
        """
        config = _config()
        plain = tmp_path / "plain.npz"
        traced = tmp_path / "traced.npz"
        TradingSimulator(config).run(
            _ucb(), checkpoint_path=plain, checkpoint_every=5,
        )
        TradingSimulator(config).run(
            _ucb(), checkpoint_path=traced, checkpoint_every=5,
            tracer=Tracer(JsonlSink(tmp_path / "run.jsonl")),
        )
        assert plain.read_bytes() == traced.read_bytes()

    def test_mechanism_traced_run_identical(self):
        from repro import (
            CMABHSMechanism,
            Consumer,
            Job,
            Platform,
            SellerPopulation,
        )

        rng = np.random.default_rng(5)
        population = SellerPopulation.random(num_sellers=8, rng=rng)
        job = Job.simple(num_pois=4, num_rounds=8)

        def build():
            return CMABHSMechanism(
                population, job, Platform.default(), Consumer.default(),
                k=3, seed=2,
            )

        baseline = build().run()
        ring = RingBufferSink()
        traced = build().run(tracer=Tracer(ring), metrics=MetricsRegistry())
        assert baseline.realized_revenue == traced.realized_revenue
        assert np.array_equal(baseline.regret_history,
                              traced.regret_history)
        assert np.array_equal(baseline.final_means, traced.final_means)
        assert len(ring.events) > 0


def _traced_engine_run() -> tuple[RingBufferSink, int]:
    ring = RingBufferSink()
    config = _config()
    TradingSimulator(config).run(_ucb(), tracer=Tracer(ring))
    return ring, config.num_rounds


def _traced_mechanism_run() -> tuple[RingBufferSink, int]:
    from repro import (
        CMABHSMechanism,
        Consumer,
        Job,
        Platform,
        SellerPopulation,
    )

    ring = RingBufferSink()
    population = SellerPopulation.random(10, np.random.default_rng(5))
    job = Job.simple(num_pois=5, num_rounds=12)
    CMABHSMechanism(population, job, Platform.default(), Consumer.default(),
                    k=3, seed=7).run(tracer=Tracer(ring))
    return ring, job.num_rounds


def _traced_runtime_run() -> tuple[RingBufferSink, int]:
    from repro.runtime import MarketRuntime

    ring = RingBufferSink()
    config = _config()
    MarketRuntime(config, _ucb(), tracer=Tracer(ring)).run()
    return ring, config.num_rounds


class TestTraceCompleteness:
    def test_every_round_has_selection_equilibrium_and_brackets(self):
        # Every driver of the shared round core: the engine, the
        # stand-alone mechanism and the event runtime.
        for ring, n in (_traced_engine_run(), _traced_mechanism_run(),
                        _traced_runtime_run()):
            assert len(ring.of_kind("run_start")) == 1
            assert len(ring.of_kind("run_end")) == 1
            assert len(ring.of_kind("round_start")) == n
            assert len(ring.of_kind("round_end")) == n
            assert len(ring.of_kind("selection")) == n
            assert len(ring.of_kind("equilibrium")) == n
            assert len(ring.of_kind("profits")) == n
            rounds = [e.round_index for e in ring.of_kind("round_start")]
            assert rounds == list(range(n))

    def test_selection_events_expose_ucb_indices(self):
        ring = RingBufferSink()
        config = _config()
        TradingSimulator(config).run(_ucb(), tracer=Tracer(ring))
        selections = ring.of_kind("selection")
        # Exploit-phase selections of a UCB policy carry the selected
        # sellers' Eq.-19 indices.
        exploit = [e for e in selections if not e.payload.get("explore")]
        assert exploit, "expected at least one exploit-phase selection"
        for event in exploit:
            ucb = event.payload["ucb"]
            assert ucb is not None
            assert len(ucb) == config.num_selected

    def test_selection_ucb_equals_the_full_index_vector(self, monkeypatch):
        # Selection no longer builds the full Eq.-19 vector, so the
        # traced indices are computed at the selected sellers alone;
        # they must be the full vector's entries, bit for bit, as they
        # were when selection stashed that vector.
        from repro.bandits import UCBPolicy

        select = UCBPolicy.select
        full: list[np.ndarray] = []

        def recording(self, round_index, state, rng, online=None):
            selected = select(self, round_index, state, rng, online)
            full.append(state.ucb_values(self.exploration_coefficient))
            return selected

        monkeypatch.setattr(UCBPolicy, "select", recording)
        for run in (_traced_engine_run, _traced_mechanism_run,
                    _traced_runtime_run):
            full.clear()
            ring, n = run()
            events = ring.of_kind("selection")
            assert len(events) == len(full) == n
            for event, vector in zip(events, full):
                np.testing.assert_array_equal(
                    event.payload["ucb"], vector[event.payload["selected"]])

    def test_equilibrium_events_carry_strategy_profile(self):
        ring = RingBufferSink()
        TradingSimulator(_config()).run(_ucb(), tracer=Tracer(ring))
        for event in ring.of_kind("equilibrium"):
            assert set(event.payload) >= {
                "service_price", "collection_price", "tau_total",
            }

    def test_fault_events_cover_injections_and_reactions(self):
        ring = RingBufferSink()
        config = _config(num_rounds=20)
        simulator = TradingSimulator(config)
        model = simulator.fault_model(
            FaultSpec(dropout_rate=0.3, corruption_rate=0.2)
        )
        simulator.run(_ucb(), fault_model=model, tracer=Tracer(ring))
        kinds = {e.payload["fault"] for e in ring.of_kind("fault")}
        assert "dropout" in kinds
        assert "corruption" in kinds
        assert "quarantine" in kinds

    def test_checkpoint_events_emitted(self, tmp_path):
        ring = RingBufferSink()
        TradingSimulator(_config()).run(
            _ucb(), checkpoint_path=tmp_path / "c.npz", checkpoint_every=4,
            tracer=Tracer(ring),
        )
        saves = ring.of_kind("checkpoint")
        assert saves
        assert all(e.payload["action"] == "saved" for e in saves)


class TestMetricsThroughRuntime:
    def test_engine_counters_and_timers(self):
        reg = MetricsRegistry()
        config = _config()
        metrics = TradingSimulator(config).run(_ucb(), metrics=reg)
        assert reg.counters["rounds"] == config.num_rounds
        assert reg.timer("engine.round").count == config.num_rounds
        assert reg.timer("engine.selection").count == config.num_rounds
        assert reg.timer("engine.solve").count == config.num_rounds
        assert "cumulative_regret" in reg.gauges
        # The run's telemetry snapshot rides on the metrics object.
        assert metrics.telemetry is not None
        assert metrics.telemetry["counters"]["rounds"] == config.num_rounds

    def test_gauge_names_do_not_grow_with_the_population(self):
        def gauge_names(num_sellers):
            config = _config(num_sellers=num_sellers)
            run = TradingSimulator(config).run(
                _ucb(), metrics=MetricsRegistry())
            return set(run.telemetry["gauges"])

        assert gauge_names(20) == gauge_names(200)

    def test_telemetry_absent_without_registry(self):
        assert TradingSimulator(_config()).run(_ucb()).telemetry is None

    def test_fault_counters(self):
        reg = MetricsRegistry()
        config = _config(num_rounds=20)
        simulator = TradingSimulator(config)
        model = simulator.fault_model(
            FaultSpec(dropout_rate=0.3, corruption_rate=0.2)
        )
        simulator.run(_ucb(), fault_model=model, metrics=reg)
        assert reg.counters["fault_events"] > 0
        assert reg.counters["quarantined_reports"] > 0

    def test_checkpoint_resume_carries_metrics_forward(self, tmp_path,
                                                       monkeypatch):
        """A resumed run restores the snapshot a checkpoint embedded."""
        config = _config(num_rounds=10)
        path = tmp_path / "c.npz"

        class Interrupt(Exception):
            pass

        from repro.sim import runcore

        # Run the first half, then crash (checkpoint at round 5 exists).
        reg1 = MetricsRegistry()
        original = runcore.play_clean_round

        calls = {"n": 0}

        def crashing(*args, **kwargs):
            if calls["n"] == 7:
                raise Interrupt()
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(runcore, "play_clean_round", crashing)
        with pytest.raises(Interrupt):
            TradingSimulator(config).run(
                _ucb(), checkpoint_path=path, checkpoint_every=5,
                metrics=reg1,
            )
        monkeypatch.undo()

        # Resume with a fresh registry: the embedded snapshot restores,
        # so the final rounds counter covers the whole horizon (the
        # checkpointed 5 rounds + the 5 replayed after resume).
        reg2 = MetricsRegistry()
        metrics = TradingSimulator(config).run(
            _ucb(), checkpoint_path=path, checkpoint_every=5,
            resume=True, metrics=reg2,
        )
        assert reg2.counters["rounds"] == config.num_rounds
        assert metrics.telemetry["counters"]["rounds"] == config.num_rounds
        # The round timer the run holds survives the restore too.
        assert reg2.timers["engine.round"].count == config.num_rounds
        assert reg2.timers["engine.selection"].count == config.num_rounds
        # So do the settle step's handles.
        assert reg2.timers["engine.solve"].count == config.num_rounds
        assert reg2.gauges["service_price"] == metrics.service_price[-1]
        # The restore itself was traced as a counter too.
        assert reg2.counters["checkpoint_writes"] >= 1

    def test_runtime_resume_carries_metrics_forward(self, tmp_path):
        """A restored runtime keeps counting into the restored metrics."""
        from repro.runtime import MarketRuntime

        config = _config(num_rounds=10)
        path = tmp_path / "r.npz"
        first = MarketRuntime(config, _ucb(), metrics=MetricsRegistry())
        first.advance(5)
        first.save(path)

        reg = MetricsRegistry()
        resumed = MarketRuntime(config, _ucb(), metrics=reg)
        metrics = resumed.run(checkpoint_path=path, resume=True)
        assert reg.counters["rounds"] == config.num_rounds
        assert reg.timers["engine.round"].count == config.num_rounds
        assert reg.timers["engine.selection"].count == config.num_rounds
        assert reg.gauges["cumulative_regret"] == metrics.regret[-1]
        assert reg.timers["engine.solve"].count == config.num_rounds
        assert reg.gauges["collection_price"] \
            == metrics.collection_price[-1]

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        config = _config(num_rounds=10)
        baseline = TradingSimulator(config).run(_ucb())
        path = tmp_path / "c.npz"
        TradingSimulator(config).run(
            _ucb(), num_rounds=None, checkpoint_path=path,
            checkpoint_every=4, metrics=MetricsRegistry(),
        )
        resumed = TradingSimulator(config).run(
            _ucb(), checkpoint_path=path, checkpoint_every=4, resume=True,
            metrics=MetricsRegistry(),
        )
        assert _series_equal(baseline, resumed)


class TestReplicationObservability:
    def test_seed_brackets_and_counters(self):
        from repro.bandits import RandomPolicy, UCBPolicy
        from repro.sim.replication import replicate_comparison

        ring = RingBufferSink()
        reg = MetricsRegistry()
        config = _config(num_rounds=8)
        replicate_comparison(
            config,
            lambda qualities: [UCBPolicy(), RandomPolicy()],
            num_seeds=2,
            tracer=Tracer(ring),
            metrics=reg,
        )
        assert len(ring.of_kind("seed_start")) == 2
        assert len(ring.of_kind("seed_end")) == 2
        # 2 seeds x 2 policies worth of run brackets flow through too.
        assert len(ring.of_kind("run_start")) == 4
        assert reg.counters["seeds_completed"] == 2
        assert reg.timer("replication.seed").count == 2

    def test_traced_sweep_identical_to_untraced(self):
        from repro.bandits import RandomPolicy, UCBPolicy
        from repro.sim.replication import replicate_comparison

        config = _config(num_rounds=8)

        def factory(qualities):
            return [UCBPolicy(), RandomPolicy()]

        baseline = replicate_comparison(config, factory, num_seeds=2)
        traced = replicate_comparison(
            config, factory, num_seeds=2,
            tracer=Tracer(RingBufferSink()), metrics=MetricsRegistry(),
        )
        for policy in baseline.policy_names():
            for key in ("total_revenue", "regret"):
                assert (baseline.metric(policy, key).mean
                        == traced.metric(policy, key).mean)


class TestDiagnosticsTracing:
    def test_lemma18_violation_emits_event(self):
        from repro.core.diagnostics import counter_report

        qualities = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        counts = np.array([10, 10, 10, 10, 10**7])
        ring = RingBufferSink()
        report = counter_report(qualities, counts, k=2, num_pois=4,
                                num_rounds=100, tracer=Tracer(ring))
        assert not report.all_within_bounds
        events = ring.of_kind("invariant_violation")
        assert len(events) == 1
        assert events[0].payload["seller"] == 4
        assert events[0].payload["invariant"] == "lemma18_counter_bound"

    def test_clean_run_emits_no_violation(self):
        from repro.core.diagnostics import counter_report

        qualities = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        ring = RingBufferSink()
        counter_report(qualities, np.array([50, 50, 2, 2, 2]), k=2,
                       num_pois=4, num_rounds=100, tracer=Tracer(ring))
        assert ring.of_kind("invariant_violation") == ()
