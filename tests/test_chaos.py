"""Tests for the chaos harness: drills pass, and the oracle has teeth.

The harness asserts recovered sweeps are bit-identical to fault-free
goldens; the mutation test here disables checkpoint checksumming and
demands the drill *fail*, proving the oracle detects broken recovery
rather than rubber-stamping it.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.faults import FaultSpec
from repro.obs import MetricsRegistry
from repro.resilience.chaos import (
    CHAOS_FAULT_KINDS,
    ChaosConfig,
    ChaosReport,
    _plan_round,
    run_chaos,
)
from repro.sim import persistence
from repro.sim.rng import seeded_generator

_DISK = {"corrupt_checkpoint", "tamper_checkpoint", "truncate_checkpoint"}


def round_plans(config: ChaosConfig) -> list[list[str]]:
    """Replay the planner's draws without running any sweeps."""
    plans = []
    for round_index in range(config.rounds):
        rng = seeded_generator([config.seed, round_index])
        if rng.random() < 0.5:  # same draw order as _run_round
            FaultSpec.random(rng)
        plans.append(_plan_round(rng, config))
    return plans


def find_seed(predicate, *, rounds: int = 2, budget: int = 3,
              include_process_faults: bool = False) -> ChaosConfig:
    """The first master seed whose fault plans satisfy ``predicate``."""
    for seed in range(64):
        config = ChaosConfig(
            seed=seed, rounds=rounds, budget=budget,
            include_process_faults=include_process_faults,
        )
        if predicate(round_plans(config)):
            return config
    raise AssertionError("no satisfying seed in 0..63")  # pragma: no cover


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            ChaosConfig(rounds=0)
        with pytest.raises(ConfigurationError, match="budget"):
            ChaosConfig(budget=-1)

    def test_planner_respects_process_fault_gate(self):
        config = ChaosConfig(rounds=8, budget=3,
                             include_process_faults=False)
        drawn = {kind for plan in round_plans(config) for kind in plan}
        assert drawn <= set(CHAOS_FAULT_KINDS) - {"worker_crash",
                                                  "worker_stall"}

    def test_plans_are_replayable(self):
        config = ChaosConfig(seed=7, rounds=4)
        assert round_plans(config) == round_plans(config)


class TestChaosRun:
    def test_in_process_drill_recovers_bit_identically(self):
        registry = MetricsRegistry()
        config = ChaosConfig(seed=0, rounds=2, budget=2,
                             include_process_faults=False)
        report = run_chaos(config, metrics=registry)
        assert report.passed
        assert report.num_violations == 0
        assert report.num_faults_applied >= 1
        assert registry.counters["chaos.rounds"] == 2
        assert "chaos.violations" not in registry.counters

    def test_process_fault_drill_recovers(self):
        config = find_seed(
            lambda plans: "worker_crash" in plans[0],
            rounds=1, include_process_faults=True,
        )
        report = run_chaos(config)
        assert report.passed
        crash_entries = [
            fault for entry in report.rounds for fault in entry.applied
            if fault["kind"] == "worker_crash"
        ]
        assert any(fault.get("fired") for fault in crash_entries)

    def test_mutation_broken_checksum_is_caught(self, monkeypatch):
        # A tamper must be a round's *only* disk fault: an earlier
        # corruption leaves nothing parseable to tamper with, a later
        # one rolls the poisoned artefact back — both hide the mutant.
        def tamper_survives(plans):
            return any(
                [kind for kind in plan if kind in _DISK]
                == ["tamper_checkpoint"]
                for plan in plans
            )

        config = find_seed(tamper_survives)
        assert run_chaos(config).passed  # healthy code: clean

        # Disable the NPZ footer check: a digest that certifies nothing
        # makes every stale footer match, so a tampered file loads.
        class NullDigest:
            def __init__(self, data=b""):
                pass

            def digest(self):
                return bytes(32)

        monkeypatch.setattr(persistence, "hashlib",
                            types.SimpleNamespace(sha256=NullDigest))
        report = run_chaos(config)
        assert report.num_violations >= 1
        assert not report.passed


class TestChaosReport:
    @pytest.fixture(scope="class")
    def report(self) -> ChaosReport:
        return run_chaos(ChaosConfig(seed=1, rounds=2, budget=2,
                                     include_process_faults=False))

    def test_to_dict_shape(self, report):
        payload = report.to_dict()
        assert payload["seed"] == 1
        assert payload["rounds"] == 2
        assert payload["passed"] is True
        assert payload["num_violations"] == 0
        assert len(payload["round_reports"]) == 2
        entry = payload["round_reports"][0]
        assert set(entry) == {"round", "fault_spec", "plan", "applied",
                              "passed", "detail", "max_error"}
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_to_text_readable(self, report):
        text = report.to_text()
        assert "chaos run: seed=1" in text
        assert "round 0 [ok]" in text
        assert "recovered bit-identically" in text


class TestChaosCli:
    def test_smoke_with_report_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--seed", "0", "--rounds", "1", "--budget", "2",
            "--no-process-faults", "--report", str(report_path),
        ])
        assert code == 0
        assert "chaos run: seed=0" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert payload["num_violations"] == 0
