"""The request front-end (:mod:`repro.runtime.service`).

Covers the register/quote/trade/close request surface, the service's
batch-equivalence posture, in-process graceful draining through
``trade``, and the real thing: SIGINT against a live ``repro serve``
subprocess drains to a resumable checkpoint and exits 0.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.bandits.policies import UCBPolicy
from repro.exceptions import (
    ConfigurationError,
    GracefulShutdownInterrupt,
)
from repro.resilience import GracefulShutdown
from repro.runtime import ChurnSpec, MarketRuntime, MarketService
from repro.sim import SimulationConfig, TradingSimulator


def _config(num_rounds: int = 30, seed: int = 4) -> SimulationConfig:
    return SimulationConfig(num_sellers=10, num_selected=3, num_pois=4,
                            num_rounds=num_rounds, seed=seed)


class TestRequests:
    def test_register_quote_trade_close_flow(self):
        service = MarketService(_config())
        first = service.register()
        assert first == {"session": 0, "slot": 0, "round": 0}
        for _ in range(4):
            service.register()

        quote = service.quote(first["session"])
        assert quote["slot"] == 0
        assert quote["observations"] == 0
        assert quote["service_price"] is None  # nothing traded yet

        result = service.trade(3)
        assert result["rounds_played"] == 3
        assert result["next_round"] == 3
        assert [t["round"] for t in result["trades"]] == [0, 1, 2]
        # Round 0 explores every online seller; later rounds trade K.
        assert result["trades"][0]["participants"] == 5
        assert result["trades"][1]["participants"] == 3

        quote = service.quote(first["session"])
        assert quote["observations"] > 0
        assert quote["service_price"] is not None

        summary = service.close(first["session"])
        assert summary["rounds_online"] == 3
        with pytest.raises(ConfigurationError, match="no open session"):
            service.quote(first["session"])

        second = first["session"] + 1
        # Across several requests: a quote carries the newest ledger
        # record's prices, and a trade returns exactly the records it
        # appended.
        ledger = service.runtime.ledger
        for rounds in (1, 4, 2):
            before = len(ledger)
            trades = service.trade(rounds)["trades"]
            appended = ledger.records[before:]
            assert len(appended) == rounds
            assert [t["round"] for t in trades] == [
                r.round_index for r in appended
            ]
            for trade, record in zip(trades, appended):
                assert trade == {
                    "round": record.round_index,
                    "participants": record.participants.size,
                    "service_price": record.service_price,
                    "collection_price": record.collection_price,
                    "tau_total": record.tau_total,
                    "realized": record.realized,
                }
            quote = service.quote(second)
            last = ledger.records[-1]
            assert quote["service_price"] == last.service_price
            assert quote["collection_price"] == last.collection_price

    def test_trade_stops_at_the_round_budget(self):
        service = MarketService(_config(num_rounds=5), start_online=True)
        assert service.trade(99)["rounds_played"] == 5
        assert service.trade(1)["rounds_played"] == 0

    def test_status_snapshot(self):
        service = MarketService(_config())
        service.register()
        service.register()
        service.trade(2)
        status = service.status()
        assert status["round"] == 2
        assert status["online"] == 2
        assert status["slots"] == 10
        assert status["sessions_opened"] == 2
        assert status["sessions_closed"] == 0
        assert status["trades"] == 2
        assert status["policy"] == UCBPolicy().name
        assert status["messages_delivered"] > 0

    def test_batch_posture_matches_the_batch_engine(self):
        config = _config(num_rounds=25)
        batch = TradingSimulator(config).run(UCBPolicy())
        service = MarketService(config, UCBPolicy(), start_online=True)
        service.trade(config.num_rounds)
        live = service.metrics()
        assert np.array_equal(live.realized_revenue, batch.realized_revenue)
        assert np.array_equal(live.regret, batch.regret)
        assert np.array_equal(live.selection_counts, batch.selection_counts)

    def test_churn_spec_drives_organic_sessions(self):
        service = MarketService(
            _config(num_rounds=40),
            churn=ChurnSpec(arrival_rate=0.4, departure_rate=0.2),
            start_online=True,
        )
        service.trade(40)
        status = service.status()
        assert status["sessions_opened"] > 10  # arrivals beyond the start
        assert status["sessions_closed"] > 0


class TestInProcessDrain:
    def test_requested_shutdown_drains_trade_to_a_checkpoint(self, tmp_path):
        config = _config(num_rounds=40)
        path = tmp_path / "service.npz"
        churn = ChurnSpec(arrival_rate=0.3, departure_rate=0.15)

        straight = MarketService(config, churn=churn, start_online=True)
        straight.trade(config.num_rounds)

        service = MarketService(config, churn=churn, start_online=True)
        service.trade(15)
        stop = GracefulShutdown()
        stop.request()  # programmatic trip: no signal handlers involved
        with pytest.raises(GracefulShutdownInterrupt) as excinfo:
            service.trade(99, shutdown=stop, checkpoint_path=path)
        assert excinfo.value.checkpoint_path == str(path)

        resumed = MarketService(config, churn=churn, start_online=True)
        resumed.runtime.restore(path)
        assert resumed.status()["round"] == 15
        resumed.trade(config.num_rounds)
        assert (resumed.runtime.ledger.digest()
                == straight.runtime.ledger.digest())
        assert np.array_equal(resumed.metrics().realized_revenue,
                              straight.metrics().realized_revenue)


class TestServeSignalDrain:
    """Satellite (c): SIGINT during ``repro serve`` exits 0 with a
    resumable final checkpoint."""

    def test_sigint_drains_serve_to_a_resumable_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "serve.npz"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--sellers", "8", "--selected", "3",
             "--rounds", "2000000", "--seed", "1",
             "--arrival-rate", "0.2", "--departure-rate", "0.1",
             "--checkpoint", str(checkpoint), "--checkpoint-every", "25"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,  # isolate the test's signals
        )
        try:
            deadline = time.monotonic() + 60.0
            while not checkpoint.exists():
                assert child.poll() is None, child.communicate()[1]
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.01)
            child.send_signal(signal.SIGINT)
            stdout, stderr = child.communicate(timeout=60.0)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
                child.communicate()
        assert child.returncode == 0, (stdout, stderr)
        assert "graceful shutdown at round" in stdout
        assert "resumable checkpoint" in stdout

        # The checkpoint restores into a matching runtime mid-run.
        config = SimulationConfig(num_sellers=8, num_selected=3,
                                  num_rounds=2_000_000, seed=1)
        runtime = MarketRuntime(
            config,
            churn=ChurnSpec(arrival_rate=0.2, departure_rate=0.1),
        )
        next_round = runtime.restore(checkpoint)
        assert next_round > 0
        runtime.advance(5)  # and keeps trading from where it stopped
        assert runtime.next_round == next_round + 5
