"""Tests of the benchmark's layer tracing.

Run with ``PYTHONPATH=src python -m pytest bench/``.
"""

from __future__ import annotations

import sys
import types
from collections import Counter

import pytest

import measure
import spans
from repro import SimulationConfig, TradingSimulator, UCBPolicy
from repro.core import incentive
from repro.kernels import selection
from repro.sim import rounds


class FakeClock:
    """A clock the traced functions advance themselves."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def probe(monkeypatch):
    """A throwaway ``repro`` module with an outer, an inner and a nested call."""
    clock = FakeClock()
    module = types.ModuleType("repro._bench_probe")

    def inner() -> None:
        clock.spend(3.0)

    def same() -> None:
        clock.spend(2.0)

    def outer() -> None:
        clock.spend(1.0)
        module.inner()
        clock.spend(1.0)
        module.same()
        clock.spend(1.0)

    module.inner, module.same, module.outer = inner, same, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (("a", "repro._bench_probe:outer"),
               ("b", "repro._bench_probe:inner"),
               ("a", "repro._bench_probe:same"))
    return module, clock, targets


def test_nested_same_layer_call_is_part_of_the_enclosing_span(probe):
    module, clock, targets = probe
    recorder = spans.Recorder(("a", "b"), clock=clock)
    with spans.installed(recorder, targets):
        recorder.active = True
        module.outer()
    assert recorder.layer_calls() == {"a": 1, "b": 1}
    assert recorder.layer_self_s() == {"a": 5.0, "b": 3.0}
    outer, inner = recorder.spans
    assert outer[:5] == (0, "repro._bench_probe:outer", 0.0, 8.0, -1)
    assert inner[:5] == (1, "repro._bench_probe:inner", 1.0, 4.0, 0)


def test_layer_self_times_and_harness_add_up_to_wall_time(probe):
    module, clock, targets = probe
    recorder = spans.Recorder(("a", "b"), clock=clock)
    with spans.installed(recorder, targets):
        recorder.active = True
        clock.spend(1.5)
        module.outer()
        clock.spend(0.5)
    values = measure.layer_metrics(recorder, wall_s=clock.now, ops=2)
    assert values["a.self_share"] == 0.5
    assert values["b.self_share"] == 0.3
    assert values["harness.self_share"] == pytest.approx(0.2)
    assert values["harness.us_per_round"] == pytest.approx(1e6)
    assert sum(values[f"{layer}.self_share"] for layer in ("a", "b", "harness")
               ) == pytest.approx(1.0)


def test_real_round_nests_selection_calls_into_one_bandits_span():
    config = SimulationConfig(num_sellers=40, num_selected=5, num_pois=5,
                              num_rounds=30, seed=3)
    recorder = spans.Recorder()
    with spans.installed(recorder, spans.TARGETS):
        recorder.active = True
        TradingSimulator(config).run(UCBPolicy())
    bandits = Counter(target for layer, target, *_ in recorder.spans
                      if recorder.layers[layer] == "bandits")
    # UCBPolicy.select calls ucb_values and top_k_indices, inside its own
    # span; the one top_k_indices span is the regret tracker's set-up.
    assert bandits == {"repro.bandits.base:SelectionPolicy.select": 30,
                       "repro.core.selection:top_k_indices": 1}
    calls = recorder.layer_calls()
    assert calls["engine"] == 1
    assert calls["rounds"] == 30
    wall = max(end for *_, end, _, _ in recorder.spans) - min(
        start for _, _, start, *_ in recorder.spans)
    assert sum(recorder.layer_self_s().values()) == pytest.approx(wall)


def test_a_target_imported_under_another_name_is_wrapped(monkeypatch):
    original = selection.estimation_error
    assert rounds._estimation_error is original
    alias = types.ModuleType("repro._bench_alias")
    alias.solve = incentive.solve_round_fast
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    recorder = spans.Recorder()
    solve = incentive.solve_round_fast
    with spans.installed(recorder, spans.TARGETS):
        assert rounds._estimation_error.__wrapped__ is original
        assert selection.estimation_error is rounds._estimation_error
        assert alias.solve.__wrapped__ is solve
        assert alias.solve is incentive.solve_round_fast
    assert rounds._estimation_error is original
    assert alias.solve is solve


def test_a_missing_target_fails_the_traced_run_and_names_it(
        monkeypatch, tmp_path, capsys):
    missing = "repro.core.incentive:solve_round_gone"
    monkeypatch.setattr(spans, "TARGETS", (*spans.TARGETS, ("incentive", missing)))
    argv = ["--workload", "large_m", "--seconds", "0", "--out", str(tmp_path)]
    assert measure.main([*argv, "--trace", "1"], size="small") != 0
    assert missing in capsys.readouterr().err
    assert not hasattr(incentive.solve_round_fast, "__wrapped__")
    # Untraced runs never install wrappers, so the same table passes.
    assert measure.main([*argv, "--trace", "0"], size="small") == 0


@pytest.mark.parametrize("workload", sorted(measure.WORKLOADS))
def test_traced_digest_equals_untraced_digest(workload, tmp_path):
    plain = measure.measure(workload, 5, 0, False, str(tmp_path), size="small")
    traced = measure.measure(workload, 5, 0, True, str(tmp_path), size="small")
    assert plain["correct"] and traced["correct"], (plain["errors"],
                                                    traced["errors"])
    assert traced["digest"] == plain["digest"]
