"""The event-hosted market (:mod:`repro.runtime.market`).

The determinism contract, end to end: a static-population runtime is
bit-identical to the batch :class:`~repro.sim.engine.TradingSimulator`;
a churning runtime reproduces the same trade ledger from the same seed,
including across a checkpoint/restore boundary; and mid-round
departures settle through the dropout fault path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.policies import (
    EpsilonGreedyPolicy,
    RandomPolicy,
    UCBPolicy,
)
from repro.exceptions import (
    ConfigurationError,
    GracefulShutdownInterrupt,
    PersistenceError,
)
from repro.obs import (JsonlSink, MetricsRegistry, RingBufferSink, Tracer,
                       summarize_trace)
from repro.resilience import ScheduledAbort
from repro.runtime import ChurnSpec, MarketRuntime, TradeLedger, TradeRecord
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim.persistence import load_checkpoint, save_checkpoint
from repro.sim.results import SERIES_FIELDS

CHURN = ChurnSpec(arrival_rate=0.3, departure_rate=0.15, min_online=2)


def _config(num_rounds: int = 40, seed: int = 7) -> SimulationConfig:
    return SimulationConfig(num_sellers=12, num_selected=3, num_pois=4,
                            num_rounds=num_rounds, seed=seed)


def _record(round_index: int, *slots: int,
            prices: tuple[float, float, float, float] = (1.0, 2.0, 3.0, 4.0),
            ) -> TradeRecord:
    return TradeRecord(
        round_index=round_index,
        participants=np.array(slots, dtype=np.int64),
        service_price=prices[0], collection_price=prices[1],
        tau_total=prices[2], realized=prices[3],
    )


class TestBatchEquivalence:
    def test_static_runtime_matches_batch_engine_bit_for_bit(self):
        config = _config()
        batch = TradingSimulator(config).run(UCBPolicy())
        live = MarketRuntime(config, UCBPolicy()).run()
        assert live.policy_name == batch.policy_name
        for field in SERIES_FIELDS:
            assert np.array_equal(getattr(live, field),
                                  getattr(batch, field)), field

    def test_equivalence_holds_for_other_policies(self):
        config = _config(num_rounds=25, seed=3)
        batch = TradingSimulator(config).run(EpsilonGreedyPolicy())
        live = MarketRuntime(config, EpsilonGreedyPolicy()).run()
        for field in SERIES_FIELDS:
            assert np.array_equal(getattr(live, field),
                                  getattr(batch, field)), field

    def test_disabled_churn_spec_keeps_the_static_path(self):
        config = _config(num_rounds=20)
        batch = TradingSimulator(config).run(UCBPolicy())
        live = MarketRuntime(config, UCBPolicy(), churn=ChurnSpec()).run()
        assert np.array_equal(live.realized_revenue, batch.realized_revenue)

    def test_ledger_mirrors_the_metrics_series(self):
        config = _config(num_rounds=30)
        runtime = MarketRuntime(config, UCBPolicy())
        metrics = runtime.run()
        records = runtime.ledger.records
        assert len(records) == config.num_rounds
        # Round 0 explores the full population; later rounds trade K.
        assert records[0].participants.size == config.num_sellers
        assert all(r.participants.size == config.num_selected
                   for r in records[1:])
        for t, record in enumerate(records):
            assert record.round_index == t
            assert record.realized == metrics.realized_revenue[t]
            assert record.service_price == metrics.service_price[t]
            assert record.collection_price == metrics.collection_price[t]
            assert record.tau_total == metrics.total_sensing_time[t]


class TestChurnDeterminism:
    def test_same_seed_same_churn_same_ledger(self):
        config = _config(num_rounds=60)
        a = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        b = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        metrics_a, metrics_b = a.run(), b.run()
        assert a.ledger.digest() == b.ledger.digest()
        assert a.sessions_opened == b.sessions_opened
        assert a.sessions_closed == b.sessions_closed
        for field in SERIES_FIELDS:
            assert np.array_equal(getattr(metrics_a, field),
                                  getattr(metrics_b, field)), field

    def test_departures_settle_through_the_dropout_path(self):
        config = _config(num_rounds=60)
        runtime = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        runtime.run()
        # Mid-round departures drop their collect messages...
        assert runtime.kernel.messages_dropped > 0
        # ...and the settlement records them as missing participants.
        short = [r for r in runtime.ledger.records
                 if 0 < r.round_index
                 and r.participants.size < config.num_selected]
        assert short
        assert runtime.sessions_closed > 0

    def test_churn_respects_the_min_online_floor(self):
        spec = ChurnSpec(arrival_rate=0.05, departure_rate=0.9,
                         min_online=4)
        runtime = MarketRuntime(_config(num_rounds=50), UCBPolicy(),
                                churn=spec)
        for _ in range(50):
            runtime.play_round()
            assert runtime.num_online >= 4

    def test_consumer_sees_one_trade_per_round(self):
        runtime = MarketRuntime(_config(num_rounds=15), UCBPolicy(),
                                churn=CHURN)
        runtime.run()
        consumer = runtime.kernel.agent("consumer")
        assert consumer.trades_seen == 15
        assert consumer.last_trade["round"] == 14


class TestSessions:
    def test_open_session_claims_the_lowest_free_slot(self):
        runtime = MarketRuntime(_config(), start_online=False)
        session0, slot0 = runtime.open_session()
        session1, slot1 = runtime.open_session()
        assert (slot0, slot1) == (0, 1)
        assert session0 != session1
        assert runtime.session_slot(session1) == 1
        assert runtime.num_online == 2

    def test_close_session_frees_the_slot(self):
        runtime = MarketRuntime(_config(), start_online=False)
        session, slot = runtime.open_session()
        summary = runtime.close_session(session)
        assert summary["slot"] == slot
        assert summary["trades"] == 0
        assert runtime.num_online == 0
        with pytest.raises(ConfigurationError, match="no open session"):
            runtime.close_session(session)

    def test_cannot_double_book_a_slot(self):
        runtime = MarketRuntime(_config(), start_online=False)
        runtime.open_session(3)
        with pytest.raises(ConfigurationError, match="already online"):
            runtime.open_session(3)
        with pytest.raises(ConfigurationError, match="slot must be"):
            runtime.open_session(99)

    def test_full_population_rejects_registration(self):
        runtime = MarketRuntime(_config())  # start_online=True
        with pytest.raises(ConfigurationError, match="all 12"):
            runtime.open_session()

    def test_no_online_sellers_cannot_trade(self):
        runtime = MarketRuntime(_config(), start_online=False)
        with pytest.raises(ConfigurationError, match="no seller is online"):
            runtime.play_round()

    def test_churn_rejects_a_policy_that_cannot_mask(self):
        # Random selection has no notion of an online roster; the
        # runtime must not quietly play masked UCB under its name.
        runtime = MarketRuntime(
            _config(), RandomPolicy(),
            churn=ChurnSpec(arrival_rate=0.1, departure_rate=0.1),
        )
        with pytest.raises(ConfigurationError, match="'random'"):
            runtime.run()

    def test_offline_slot_rejects_a_policy_that_cannot_mask(self):
        runtime = MarketRuntime(_config(), EpsilonGreedyPolicy(),
                                start_online=False)
        runtime.open_session()
        with pytest.raises(ConfigurationError, match="'0.1-greedy'"):
            runtime.play_round()

    def test_closed_slot_is_never_selected_afterwards(self):
        runtime = MarketRuntime(_config(num_rounds=30))
        runtime.advance(5)
        slot = 2
        frozen = int(runtime.metrics().selection_counts[slot])
        runtime.close_session(int(runtime._slot_session[slot]))
        runtime.advance(None)
        assert int(runtime.metrics().selection_counts[slot]) == frozen

    def test_session_events_are_traced(self):
        ring = RingBufferSink()
        runtime = MarketRuntime(_config(), start_online=False,
                                tracer=Tracer(ring))
        session, slot = runtime.open_session()
        runtime.open_session()
        runtime.close_session(session)
        opens = ring.of_kind("session_open")
        assert [e.payload["slot"] for e in opens] == [0, 1]
        closes = ring.of_kind("session_close")
        assert closes[0].payload == {"session": session, "slot": slot,
                                     "rounds_online": 0, "trades": 0}

    def test_session_opened_after_the_last_round_adds_no_round(self,
                                                              tmp_path):
        # A session_open payload key named "round" is read back as the
        # event's round index, so a late session added a phantom round.
        path = tmp_path / "runtime.jsonl"
        tracer = Tracer(JsonlSink(path))
        runtime = MarketRuntime(_config(num_rounds=6), tracer=tracer)
        assert runtime.advance(None) == 6
        runtime.close_session(0)
        runtime.open_session()
        tracer.close()
        assert summarize_trace(path).num_rounds == 6


class TestRunControl:
    def test_advance_and_partial_metrics(self):
        runtime = MarketRuntime(_config(num_rounds=40))
        assert runtime.advance(10) == 10
        partial = runtime.metrics()
        assert partial.realized_revenue.shape == (10,)
        assert runtime.next_round == 10
        assert runtime.advance(None) == 30
        assert runtime.metrics().realized_revenue.shape == (40,)

    def test_playing_past_the_end_raises(self):
        runtime = MarketRuntime(_config(num_rounds=5))
        runtime.run()
        with pytest.raises(ConfigurationError, match="complete"):
            runtime.play_round()

    def test_run_emits_lifecycle_and_round_events(self):
        ring = RingBufferSink()
        runtime = MarketRuntime(_config(num_rounds=8),
                                tracer=Tracer(ring))
        runtime.run()
        assert len(ring.of_kind("run_start")) == 1
        assert ring.of_kind("run_start")[0].payload["churn"] is False
        assert len(ring.of_kind("round_start")) == 8
        assert len(ring.of_kind("round_end")) == 8
        assert ring.of_kind("run_end")[0].payload["rounds_played"] == 8

    def test_metrics_registry_sees_runtime_counters(self):
        registry = MetricsRegistry()
        runtime = MarketRuntime(_config(num_rounds=12), metrics=registry)
        metrics = runtime.run()
        snapshot = metrics.telemetry
        assert snapshot is not None
        assert snapshot["counters"]["rounds"] == 12


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_an_uninterrupted_run(self, tmp_path):
        config = _config(num_rounds=60)
        straight = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        straight_metrics = straight.run()

        path = tmp_path / "runtime.npz"
        first = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        first.advance(25)
        first.save(path)

        resumed = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        assert resumed.restore(path) == 25
        resumed_metrics = resumed.run()

        assert resumed.ledger.digest() == straight.ledger.digest()
        # Traffic counters resume too, so status output is identical.
        assert (resumed.kernel.messages_delivered
                == straight.kernel.messages_delivered)
        assert (resumed.kernel.messages_dropped
                == straight.kernel.messages_dropped)
        for field in SERIES_FIELDS:
            assert np.array_equal(getattr(resumed_metrics, field),
                                  getattr(straight_metrics, field)), field

    def test_run_resume_after_a_graceful_interrupt(self, tmp_path):
        config = _config(num_rounds=50)
        path = tmp_path / "runtime.npz"
        straight = MarketRuntime(config, UCBPolicy(), churn=CHURN).run()

        interrupted = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        with pytest.raises(GracefulShutdownInterrupt) as excinfo:
            interrupted.run(shutdown=ScheduledAbort([20]),
                            checkpoint_path=path)
        assert excinfo.value.checkpoint_path == str(path)
        assert path.exists()

        resumed = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        metrics = resumed.run(checkpoint_path=path, resume=True)
        assert np.array_equal(metrics.realized_revenue,
                              straight.realized_revenue)
        assert np.array_equal(metrics.regret, straight.regret)

    def test_restore_rejects_a_mismatched_fingerprint(self, tmp_path):
        path = tmp_path / "runtime.npz"
        runtime = MarketRuntime(_config(seed=7), UCBPolicy(), churn=CHURN)
        runtime.advance(5)
        runtime.save(path)
        other_seed = MarketRuntime(_config(seed=8), UCBPolicy(),
                                   churn=CHURN)
        with pytest.raises(PersistenceError, match="seed"):
            other_seed.restore(path)
        no_churn = MarketRuntime(_config(seed=7), UCBPolicy())
        with pytest.raises(PersistenceError, match="churn_spec"):
            no_churn.restore(path)

    @pytest.mark.parametrize("field,value", [
        ("next_round", "twenty-five"), ("next_session", None),
        ("messages_dropped", "many"), ("tracker_rounds", [25]),
    ])
    def test_restore_names_a_malformed_field(self, tmp_path, field, value):
        path = tmp_path / "runtime.npz"
        runtime = MarketRuntime(_config(), UCBPolicy(), churn=CHURN)
        runtime.advance(5)
        runtime.save(path)
        meta, arrays = load_checkpoint(path)
        meta[field] = value
        save_checkpoint(path, meta, arrays)
        fresh = MarketRuntime(_config(), UCBPolicy(), churn=CHURN)
        with pytest.raises(PersistenceError,
                           match=f"malformed {field!r}") as excinfo:
            fresh.restore(path)
        assert excinfo.value.path == str(path)

    def test_restore_reconciles_the_agent_roster(self, tmp_path):
        config = _config(num_rounds=40)
        path = tmp_path / "runtime.npz"
        source = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        source.advance(20)
        source.save(path)
        target = MarketRuntime(config, UCBPolicy(), churn=CHURN)
        target.restore(path)
        assert np.array_equal(target.online_mask, source.online_mask)
        for slot in np.flatnonzero(source.online_mask):
            assert target.kernel.has_agent(f"seller-{slot}")
        for slot in np.flatnonzero(~source.online_mask):
            assert not target.kernel.has_agent(f"seller-{slot}")

    def test_graceful_shutdown_without_checkpoint_path(self):
        runtime = MarketRuntime(_config(num_rounds=30))
        with pytest.raises(GracefulShutdownInterrupt) as excinfo:
            runtime.run(shutdown=ScheduledAbort([10]))
        assert excinfo.value.checkpoint_path is None
        assert runtime.next_round == 10


class TestTradeLedger:
    def test_rounds_must_be_strictly_increasing(self):
        ledger = TradeLedger()
        ledger.append(_record(0, 1, 2))
        ledger.append(_record(1, 3))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            ledger.append(_record(1, 4))

    def test_digest_is_sensitive_to_every_field(self):
        def digest_of(record: TradeRecord) -> str:
            ledger = TradeLedger()
            ledger.append(record)
            return ledger.digest()

        base = _record(0, 1, 2)
        assert digest_of(base) == digest_of(_record(0, 1, 2))
        variants = [
            _record(1, 1, 2),
            _record(0, 1, 3),
            _record(0, 1),
            _record(0, 1, 2, prices=(1.0, 2.0, 3.0, 5.0)),
        ]
        assert len({digest_of(v) for v in [base, *variants]}) == 5

    def test_to_arrays_round_trips(self):
        ledger = TradeLedger()
        ledger.append(_record(0, 4, 7, 9))
        ledger.append(_record(1))  # a no-trade round
        ledger.append(_record(5, 2, prices=(0.5, 0.25, 8.0, -1.0)))
        restored = TradeLedger()
        restored.restore_arrays(ledger.to_arrays())
        assert restored.digest() == ledger.digest()
        assert [r.round_index for r in restored.records] == [0, 1, 5]
        assert restored.records[1].participants.size == 0

    def test_restore_rejects_inconsistent_arrays(self):
        arrays = TradeLedger().to_arrays()
        arrays["offsets"] = np.array([0, 0], dtype=np.int64)
        with pytest.raises(PersistenceError, match="inconsistent"):
            TradeLedger().restore_arrays(arrays)

    def test_empty_ledger_digest_is_stable(self):
        assert TradeLedger().digest() == TradeLedger().digest()
        assert len(TradeLedger()) == 0
