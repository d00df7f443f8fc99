"""Seeded-defect tests: each workload's check must fail on a broken program.

Every test runs its workload at the small size through
:func:`measure.measure`, the same path a benchmark run takes.  Run with
``PYTHONPATH=src python -m pytest bench/``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import measure
import run
import workloads
from repro import RandomPolicy, TradingSimulator
from repro.sim import engine

ROOT = Path(__file__).resolve().parent.parent


def measure_small(name: str, out: Path) -> dict:
    return measure.measure(name, 3, 0, False, str(out), size="small")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_check_passes_on_the_unbroken_program(name, tmp_path):
    result = measure_small(name, tmp_path)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    assert result["repeats"] == measure.MIN_REPEATS


def test_corrupt_checkpoint_between_abort_and_resume_fails_faults_resume(
        monkeypatch, tmp_path):
    resume = workloads.FaultsResume.resume_phase

    def corrupt_then_resume(self, simulator, policy, faults, path, *args):
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        return resume(self, simulator, policy, faults, path, *args)

    monkeypatch.setattr(workloads.FaultsResume, "resume_phase",
                        corrupt_then_resume)
    result = measure_small("faults_resume", tmp_path)
    assert not result["correct"]
    assert "PersistenceError" in " ".join(result["errors"])


def test_resume_that_drifts_from_the_checkpoint_fails_faults_resume(
        monkeypatch, tmp_path):
    load = engine.load_checkpoint

    def drifting(path, **kwargs):
        meta, arrays = load(path, **kwargs)
        arrays["state_sums"] = arrays["state_sums"] + 1e-9
        return meta, arrays

    monkeypatch.setattr(engine, "load_checkpoint", drifting)
    result = measure_small("faults_resume", tmp_path)
    assert not result["correct"]
    assert "differs from an uninterrupted run" in " ".join(result["errors"])


def test_dropping_one_close_request_fails_serve_soak(monkeypatch, tmp_path):
    script = workloads.ServeSoak.script

    def without_one_close(self, seed, size):
        ops = script(self, seed, size)
        ops.remove({"op": "close"})
        return ops

    monkeypatch.setattr(workloads.ServeSoak, "script", without_one_close)
    result = measure_small("serve_soak", tmp_path)
    assert not result["correct"]
    assert "sessions opened" in " ".join(result["errors"])


def test_random_in_place_of_optimal_fails_fig7_point(monkeypatch, tmp_path):
    policies = workloads.default_policies

    def swapped(qualities):
        impostor = RandomPolicy()
        impostor.name = "optimal"
        return [impostor, *policies(qualities)[1:]]

    monkeypatch.setattr(workloads, "default_policies", swapped)
    result = measure_small("fig7_point", tmp_path)
    assert not result["correct"]
    assert "optimal regret" in " ".join(result["errors"])


def test_non_conserving_selection_count_fails_large_m(monkeypatch, tmp_path):
    play = TradingSimulator.run

    def one_selection_too_many(self, *args, **kwargs):
        result = play(self, *args, **kwargs)
        counts = result.selection_counts.copy()
        counts[0] += 1
        return dataclasses.replace(result, selection_counts=counts)

    monkeypatch.setattr(TradingSimulator, "run", one_selection_too_many)
    result = measure_small("large_m", tmp_path)
    assert not result["correct"]
    assert "selection counts" in " ".join(result["errors"])


def test_benchmark_json_describes_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        measure.PER_LAYER)
