"""Fault injection, graceful degradation, and clean-path bit-identity."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandits import ThompsonSamplingPolicy, UCBPolicy
from repro.cli import main
from repro.core import CMABHSMechanism, LearningState
from repro.core.state import observation_mask
from repro.entities import Consumer, Job, Platform, SellerPopulation
from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultLog,
    FaultModel,
    FaultSpec,
    parse_fault_spec,
)
from repro.faults.model import _SKIP_RATIO
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim.results import SERIES_FIELDS
from repro.sim.rng import RngFactory
from repro.sim.rounds import member_mask

DATA = Path(__file__).parent / "data"

SMALL = SimulationConfig(num_sellers=15, num_selected=4, num_rounds=120,
                         seed=11)


class TestFaultSpec:
    def test_defaults_are_disabled(self):
        assert not FaultSpec().enabled

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError, match="dropout_rate"):
            FaultSpec(dropout_rate=1.5)
        with pytest.raises(ConfigurationError, match="sum to at most 1"):
            FaultSpec(dropout_rate=0.6, corruption_rate=0.6)

    def test_dict_round_trip(self):
        spec = FaultSpec(dropout_rate=0.2, corruption_rate=0.05,
                         stall_rate=0.01)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_names_missing_field(self):
        with pytest.raises(ConfigurationError, match="stall_rate"):
            FaultSpec.from_dict({"dropout_rate": 0.1,
                                 "corruption_rate": 0.0})


class TestParseFaultSpec:
    @pytest.mark.parametrize("text", [None, "", "none", "off", "  NONE "])
    def test_disabled_forms(self, text):
        assert parse_fault_spec(text) is None

    def test_full_spec(self):
        spec = parse_fault_spec("dropout=0.2,corrupt=0.05,stall=0.01")
        assert spec == FaultSpec(dropout_rate=0.2, corruption_rate=0.05,
                                 stall_rate=0.01)

    def test_aliases(self):
        assert parse_fault_spec("drop=0.1") == FaultSpec(dropout_rate=0.1)
        assert parse_fault_spec("corruption=0.1") == FaultSpec(
            corruption_rate=0.1
        )

    @pytest.mark.parametrize("text", ["bogus=0.1", "dropout", "dropout=x",
                                      "dropout=0.1,drop=0.2"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(text)


class TestFaultModel:
    def make_model(self, spec=None, seed=5, m=20):
        spec = spec or FaultSpec(dropout_rate=0.25, corruption_rate=0.15,
                                 stall_rate=0.1)
        return FaultModel(spec, RngFactory(seed), m)

    def test_same_round_same_plan(self):
        model = self.make_model()
        selected = np.array([1, 4, 9, 13, 17])
        first = model.plan_round(7, selected, 10)
        second = model.plan_round(7, selected, 10)
        np.testing.assert_array_equal(first.dropped, second.dropped)
        np.testing.assert_array_equal(first.corrupted, second.corrupted)
        np.testing.assert_array_equal(first.corrupted_sums,
                                      second.corrupted_sums)
        np.testing.assert_array_equal(first.stalled, second.stalled)

    def test_schedule_is_selection_independent(self):
        # Whether a given seller faults in round t must not depend on
        # which other sellers were selected (common random faults).
        model = self.make_model()
        wide = model.plan_round(3, np.arange(20), 10)
        narrow = model.plan_round(3, np.array([2, 5, 11]), 10)
        for field in ("dropped", "corrupted", "stalled"):
            wide_set = set(getattr(wide, field).tolist())
            narrow_set = set(getattr(narrow, field).tolist())
            assert narrow_set == wide_set & {2, 5, 11}

    def test_faults_are_disjoint(self):
        model = self.make_model(FaultSpec(dropout_rate=0.3,
                                          corruption_rate=0.3,
                                          stall_rate=0.3))
        for t in range(50):
            plan = model.plan_round(t, np.arange(20), 10)
            combined = np.concatenate([plan.dropped, plan.corrupted,
                                       plan.stalled])
            assert combined.size == np.unique(combined).size

    def test_corrupted_sums_are_always_detectable(self):
        model = self.make_model(FaultSpec(corruption_rate=0.5))
        num_observations = 10
        seen = 0
        for t in range(100):
            plan = model.plan_round(t, np.arange(20), num_observations)
            seen += plan.corrupted.size
            assert not observation_mask(plan.corrupted_sums,
                                        num_observations).any()
        assert seen > 0

    def test_zero_rates_give_clean_plans(self):
        model = self.make_model(FaultSpec())
        for t in range(20):
            assert model.plan_round(t, np.arange(20), 10).is_clean

    def test_out_of_range_selection_rejected(self):
        model = self.make_model()
        with pytest.raises(ConfigurationError, match="out of range"):
            model.plan_round(0, np.array([25]), 10)


def dense_reference_plan(factory, spec, num_sellers, round_index,
                         selected, num_observations):
    """A round's plan read from the whole ``3M``-uniform stream.

    The stream layout the fault model documents: ``[0, M)`` decides the
    fault, ``[M, 2M)`` the corruption mode, ``[2M, 3M)`` its magnitude.
    """
    stream = factory.generator("faults", round_index).random(
        3 * num_sellers)
    selected = np.asarray(selected, dtype=int)
    d, c, s = spec.dropout_rate, spec.corruption_rate, spec.stall_rate
    u = stream[selected]
    dropped = selected[u < d]
    corrupted = selected[(u >= d) & (u < d + c)]
    stalled = selected[(u >= d + c) & (u < d + c + s)]
    mode = stream[num_sellers + corrupted]
    magnitude = stream[2 * num_sellers + corrupted]
    sums = np.empty(corrupted.size)
    sums[mode < 1.0 / 3.0] = np.nan
    negative = (mode >= 1.0 / 3.0) & (mode < 2.0 / 3.0)
    sums[negative] = -1.0 - 4.0 * magnitude[negative]
    oversized = mode >= 2.0 / 3.0
    sums[oversized] = num_observations * (1.5 + 8.5 * magnitude[oversized])
    return dropped, corrupted, sums, stalled


class TestFaultStream:
    """A plan reads only its positions, and reads the dense stream's values."""

    MILD = FaultSpec(dropout_rate=0.1, corruption_rate=0.05, stall_rate=0.05)
    HEAVY = FaultSpec(dropout_rate=0.05, corruption_rate=0.8,
                      stall_rate=0.1)

    def assert_matches_dense(self, spec, num_sellers, round_index,
                             selected, seed=4):
        factory = RngFactory(seed)
        plan = FaultModel(spec, factory, num_sellers).plan_round(
            round_index, selected, 10)
        expected = dense_reference_plan(factory, spec, num_sellers,
                                        round_index, selected, 10)
        actual = (plan.dropped, plan.corrupted, plan.corrupted_sums,
                  plan.stalled)
        for name, got, want in zip(("dropped", "corrupted", "sums",
                                    "stalled"), actual, expected):
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            # Byte compare: NaNs and signed zeros must match too.
            assert got.tobytes() == want.tobytes(), name
        return plan

    def test_factory_streams_are_pcg64(self):
        # Skipping relies on PCG64: advance() jumps exact outputs and
        # random() takes one 64-bit output.  A new numpy default bit
        # generator must fail here, not reshuffle every fault schedule.
        generator = RngFactory(0).generator("faults", 3)
        assert type(generator.bit_generator) is np.random.PCG64

    @pytest.mark.parametrize("spec", [MILD, HEAVY], ids=["mild", "heavy"])
    @pytest.mark.parametrize("num_sellers", [1, 7, 300, 5_000])
    def test_edge_selections(self, spec, num_sellers):
        last = num_sellers - 1
        selections = [
            np.array([], dtype=int),
            np.array([0]),
            np.array([last]),
            np.array([last, 0]),
            np.array([0, last, 0, last]),
            np.arange(num_sellers),
            np.arange(num_sellers)[::-1],
        ]
        for t, selected in enumerate(selections):
            self.assert_matches_dense(spec, num_sellers, t, selected)

    @pytest.mark.parametrize("spec", [MILD, HEAVY], ids=["mild", "heavy"])
    def test_sizes_on_both_sides_of_the_skip_rule(self, spec):
        num_sellers = 40 * _SKIP_RATIO
        rng = np.random.default_rng(8)
        for size in (1, 39, 40, 41, 400):
            for t in range(6):
                selected = rng.integers(0, num_sellers, size=size)
                if t % 2:
                    selected = np.sort(selected)
                self.assert_matches_dense(spec, num_sellers, 100 + t,
                                          selected)

    def test_random_rounds(self):
        rng = np.random.default_rng(21)
        heavy_seen = 0
        for trial in range(300):
            num_sellers = int(rng.choice([2, 50, 2_000, 20_000]))
            spec = self.HEAVY if trial % 3 == 0 else self.MILD
            size = int(rng.integers(0, min(num_sellers, 30) + 1))
            selected = rng.integers(0, num_sellers, size=size)
            if rng.random() < 0.5:
                selected = np.sort(selected)
            plan = self.assert_matches_dense(
                spec, num_sellers, int(rng.integers(0, 10_000)), selected,
                seed=trial)
            heavy_seen += plan.corrupted.size
        assert heavy_seen > 100

    def test_quickstart_with_many_more_sellers_than_selected(self, capsys):
        # M=2000, K=10 skips to the selected sellers' draws; the output
        # was recorded while every plan still drew all 3M uniforms.
        assert 10 * _SKIP_RATIO <= 2000
        assert main(["quickstart", "--sellers", "2000", "--selected", "10",
                     "--rounds", "200", "--seed", "3", "--faults",
                     "dropout=0.1,corrupt=0.05,stall=0.05"]) == 0
        recorded = (DATA / "quickstart_faults_m2000.txt").read_text()
        assert capsys.readouterr().out == recorded


class TestMemberMask:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.integers(-3, 60), max_size=120),
           pool=st.lists(st.integers(-3, 60), max_size=60))
    def test_matches_isin(self, values, pool):
        values = np.array(values, dtype=np.int64)
        pool = np.array(pool, dtype=np.int64)
        mask = member_mask(values, pool)
        assert mask.dtype == bool and mask.shape == values.shape
        np.testing.assert_array_equal(mask, np.isin(values, pool))

    def test_full_population_round(self):
        rng = np.random.default_rng(3)
        values = np.arange(20_000)
        pool = np.sort(rng.choice(20_000, 2_000, replace=False))
        np.testing.assert_array_equal(member_mask(values, pool),
                                      np.isin(values, pool))


class TestFaultLog:
    def test_log_matches_planned_schedule(self):
        model = FaultModel(
            FaultSpec(dropout_rate=0.2, corruption_rate=0.1,
                      stall_rate=0.05),
            RngFactory(9), 20,
        )
        log = FaultLog()
        selected = np.arange(20)
        for t in range(40):
            model.log_plan(model.plan_round(t, selected, 10), log)
        for t in range(40):
            plan = model.plan_round(t, selected, 10)
            assert (set(log.sellers_hit(FaultKind.DROPOUT, t))
                    == set(plan.dropped.tolist()))
            assert (set(log.sellers_hit(FaultKind.CORRUPTION, t))
                    == set(plan.corrupted.tolist()))
            assert (set(log.sellers_hit(FaultKind.STALL, t))
                    == set(plan.stalled.tolist()))

    def test_bulk_log_plan_equals_per_event_record(self):
        model = FaultModel(
            FaultSpec(dropout_rate=0.2, corruption_rate=0.3,
                      stall_rate=0.1),
            RngFactory(13), 500,
        )
        bulk, single = FaultLog(), FaultLog()
        for t in range(30):
            selected = np.arange(500) if t == 0 else np.arange(t, 500, 7)
            plan = model.plan_round(t, selected, 10)
            model.log_plan(plan, bulk)
            for seller in plan.dropped:
                single.record(t, FaultKind.DROPOUT, int(seller))
            for seller, value in zip(plan.corrupted, plan.corrupted_sums):
                single.record(t, FaultKind.CORRUPTION, int(seller),
                              float(value))
            for seller in plan.stalled:
                single.record(t, FaultKind.STALL, int(seller))
            bulk.record(t, FaultKind.DEGRADED, value=3.0)
            single.record(t, FaultKind.DEGRADED, value=3.0)
        assert_events_equal(bulk.events, single.events)
        assert bulk.summary() == single.summary()
        assert list(bulk.summary()) == list(single.summary())
        bulk_arrays, single_arrays = bulk.to_arrays(), single.to_arrays()
        assert bulk_arrays.keys() == single_arrays.keys()
        for key, column in single_arrays.items():
            assert bulk_arrays[key].dtype == column.dtype, key
            assert bulk_arrays[key].tobytes() == column.tobytes(), key
        restored = FaultLog.from_arrays(bulk_arrays)
        assert_events_equal(restored.events, single.events)
        for key, column in restored.to_arrays().items():
            assert column.tobytes() == single_arrays[key].tobytes(), key

    def test_record_many_rejects_misaligned_values(self):
        log = FaultLog()
        with pytest.raises(ConfigurationError, match="aligned"):
            log.record_many(0, FaultKind.CORRUPTION, np.array([1, 2]),
                            np.array([0.5]))
        assert len(log) == 0

    def test_array_round_trip(self):
        log = FaultLog()
        log.record(0, FaultKind.DROPOUT, 3)
        log.record(1, FaultKind.CORRUPTION, 5, float("nan"))
        log.record(1, FaultKind.NO_TRADE)
        restored = FaultLog.from_arrays(log.to_arrays())
        assert restored.summary() == log.summary()
        assert len(restored) == 3
        assert restored.events_in_round(1)[0].seller == 5

    def test_from_arrays_names_missing_field(self):
        arrays = FaultLog().to_arrays()
        del arrays["sellers"]
        with pytest.raises(ConfigurationError, match="missing field 'sellers'"):
            FaultLog.from_arrays(arrays)

    def test_from_arrays_rejects_misaligned_columns(self):
        log = FaultLog()
        log.record(0, FaultKind.DROPOUT, 3)
        log.record(1, FaultKind.STALL, 4)
        arrays = log.to_arrays()
        arrays["values"] = arrays["values"][:1]
        with pytest.raises(ConfigurationError, match="misaligned"):
            FaultLog.from_arrays(arrays)

    def test_from_arrays_rejects_unknown_kind_code(self):
        log = FaultLog()
        log.record(0, FaultKind.DROPOUT, 3)
        log.record(1, FaultKind.STALL, 4)
        arrays = log.to_arrays()
        arrays["kinds"] = np.array([0, len(FaultKind) + 2], dtype=np.int64)
        with pytest.raises(ConfigurationError,
                           match=f"unknown fault-kind code {len(FaultKind) + 2}"):
            FaultLog.from_arrays(arrays)
        arrays["kinds"] = np.array([-1, 0], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="code -1"):
            FaultLog.from_arrays(arrays)

    def test_failed_restore_leaves_log_untouched(self):
        log = FaultLog()
        log.record(2, FaultKind.NO_TRADE)
        with pytest.raises(ConfigurationError):
            log.restore_arrays({"rounds": np.array([1])})
        assert log.events == (FaultEvent(2, FaultKind.NO_TRADE),)


_EVENT_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(list(FaultKind)),
        st.integers(min_value=-1, max_value=9),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    ),
    max_size=40,
)


class TestFaultLogAgainstListReference:
    """The columnar log answers every query like a plain event list."""

    @settings(max_examples=80, deadline=None)
    @given(rows=_EVENT_ROWS)
    def test_queries_match_naive_reference(self, rows):
        log = FaultLog()
        reference: list[FaultEvent] = []
        for round_index, kind, seller, value in rows:
            log.record(round_index, kind, seller, value)
            reference.append(FaultEvent(round_index, kind, seller, value))

        assert_events_equal(log.events, reference)
        assert len(log) == len(reference)
        summary: dict[str, int] = {}
        for event in reference:
            summary[event.kind.value] = summary.get(event.kind.value, 0) + 1
        assert log.summary() == summary
        assert list(log.summary()) == list(summary)  # first-seen order
        for kind in FaultKind:
            assert log.count(kind) == sum(e.kind is kind for e in reference)
            assert log.sellers_hit(kind) == [
                e.seller for e in reference if e.kind is kind]
            for round_index in range(7):
                assert log.sellers_hit(kind, round_index) == [
                    e.seller for e in reference
                    if e.kind is kind and e.round_index == round_index]
        for round_index in range(7):
            assert_events_equal(
                log.events_in_round(round_index),
                [e for e in reference if e.round_index == round_index])

        arrays = log.to_arrays()
        codes = {kind: code for code, kind in enumerate(FaultKind)}
        expected = {
            "rounds": np.array([e.round_index for e in reference],
                               dtype=np.int64),
            "kinds": np.array([codes[e.kind] for e in reference],
                              dtype=np.int64),
            "sellers": np.array([e.seller for e in reference],
                                dtype=np.int64),
            "values": np.array([e.value for e in reference], dtype=float),
        }
        assert arrays.keys() == expected.keys()
        for key, column in expected.items():
            assert arrays[key].dtype == column.dtype, key
            np.testing.assert_array_equal(arrays[key], column, err_msg=key)

        restored = FaultLog()
        restored.record(99, FaultKind.DEGRADED, value=2.0)
        restored.restore_arrays(arrays)
        assert_events_equal(restored.events, reference)


def assert_events_equal(actual, expected):
    """Event sequences equal field by field, NaN values matching NaN."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert (got.round_index, got.kind, got.seller) == (
            want.round_index, want.kind, want.seller)
        assert type(got.round_index) is int and type(got.seller) is int
        assert type(got.value) is float
        np.testing.assert_equal(got.value, want.value)


class TestQuarantineGate:
    def test_learning_state_rejects_infeasible_sums(self):
        state = LearningState(5)
        with pytest.raises(ConfigurationError, match="quarantine"):
            state.update(np.array([0]), np.array([np.nan]), 10)
        with pytest.raises(ConfigurationError, match="quarantine"):
            state.update(np.array([1]), np.array([11.0]), 10)
        with pytest.raises(ConfigurationError, match="quarantine"):
            state.update(np.array([2]), np.array([-0.5]), 10)

    def test_observation_mask(self):
        sums = np.array([0.0, 10.0, -0.1, 10.1, np.nan, np.inf, 5.0])
        np.testing.assert_array_equal(
            observation_mask(sums, 10),
            [True, True, False, False, False, False, True],
        )


class TestEngineDegradation:
    def test_clean_path_bit_identical_with_faults_disabled(self):
        simulator = TradingSimulator(SMALL)
        baseline = simulator.run(UCBPolicy())
        zero_model = simulator.fault_model(FaultSpec())
        log = FaultLog()
        with_model = simulator.run(UCBPolicy(), fault_model=zero_model,
                                   fault_log=log)
        for field in SERIES_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(with_model, field),
                err_msg=field,
            )
        assert len(log) == 0

    def test_fault_injection_integration(self):
        # The acceptance scenario: 20% dropout + 5% corruption must
        # complete, log exactly the planned schedule, and keep regret
        # finite.
        simulator = TradingSimulator(SMALL)
        spec = FaultSpec(dropout_rate=0.2, corruption_rate=0.05)
        model = simulator.fault_model(spec)
        log = FaultLog()
        run = simulator.run(UCBPolicy(), fault_model=model, fault_log=log)

        assert np.isfinite(run.regret).all()
        assert np.isfinite(run.final_regret)
        summary = log.summary()
        assert summary.get("dropout", 0) > 0
        assert summary.get("corruption", 0) > 0
        # every corruption was caught: quarantines == corruptions
        assert summary.get("quarantine") == summary.get("corruption")

        # the log's injected events replay the model's schedule exactly
        reference = FaultModel(spec, RngFactory(SMALL.seed),
                               SMALL.num_sellers)
        for event in log.events:
            if event.kind not in (FaultKind.DROPOUT, FaultKind.CORRUPTION,
                                  FaultKind.STALL):
                continue
            plan = reference.plan_round(
                event.round_index,
                np.arange(SMALL.num_sellers), SMALL.num_pois,
            )
            planned = {
                FaultKind.DROPOUT: plan.dropped,
                FaultKind.CORRUPTION: plan.corrupted,
                FaultKind.STALL: plan.stalled,
            }[event.kind]
            assert event.seller in planned

    def test_common_random_faults_across_policies(self):
        simulator = TradingSimulator(SMALL)
        model = simulator.fault_model(FaultSpec(dropout_rate=0.3))
        logs = {}
        for policy in (UCBPolicy(), ThompsonSamplingPolicy()):
            log = FaultLog()
            simulator.run(policy, fault_model=model, fault_log=log)
            logs[policy.name] = log
        ucb, thompson = logs.values()
        # Different policies select different sets, so raw event counts
        # differ — but any seller both policies selected in a round gets
        # the same verdict.  Cheap proxy: per-round dropout sets of the
        # intersection agree (checked via the reference model above);
        # here assert both logs are consistent with one schedule.
        reference = FaultModel(FaultSpec(dropout_rate=0.3),
                               RngFactory(SMALL.seed), SMALL.num_sellers)
        for log in (ucb, thompson):
            for event in log.events:
                if event.kind is not FaultKind.DROPOUT:
                    continue
                plan = reference.plan_round(
                    event.round_index,
                    np.arange(SMALL.num_sellers), SMALL.num_pois,
                )
                assert event.seller in plan.dropped

    def test_total_dropout_settles_as_no_trade(self):
        simulator = TradingSimulator(
            SimulationConfig(num_sellers=6, num_selected=3, num_rounds=30,
                             seed=2)
        )
        model = simulator.fault_model(FaultSpec(dropout_rate=0.9))
        log = FaultLog()
        run = simulator.run(UCBPolicy(), fault_model=model, fault_log=log)
        no_trade_rounds = [e.round_index for e in log.events
                           if e.kind is FaultKind.NO_TRADE]
        assert no_trade_rounds  # at 90% dropout some round loses everyone
        for t in no_trade_rounds:
            assert run.realized_revenue[t] == 0.0
            assert run.platform_profit[t] == 0.0
            assert run.total_sensing_time[t] == 0.0
        assert np.isfinite(run.regret).all()

    def test_fault_model_must_match_population(self):
        simulator = TradingSimulator(SMALL)
        foreign = FaultModel(FaultSpec(dropout_rate=0.1), RngFactory(0), 99)
        with pytest.raises(ConfigurationError, match="different number"):
            simulator.run(UCBPolicy(), fault_model=foreign)


class TestMechanismDegradation:
    def make_mechanism(self, seed=1):
        rng = np.random.default_rng(7)
        population = SellerPopulation.random(num_sellers=12, rng=rng)
        job = Job.simple(num_pois=5, num_rounds=60)
        return CMABHSMechanism(population, job, Platform.default(),
                               Consumer.default(), k=3, seed=seed)

    def test_zero_rate_model_is_bit_identical(self):
        baseline = self.make_mechanism().run()
        model = FaultModel(FaultSpec(), RngFactory(1), 12)
        injected = self.make_mechanism().run(fault_model=model)
        assert baseline.realized_revenue == injected.realized_revenue
        np.testing.assert_array_equal(baseline.regret_history,
                                      injected.regret_history)
        for clean, faulty in zip(baseline.rounds, injected.rounds):
            np.testing.assert_array_equal(clean.sensing_times,
                                          faulty.sensing_times)
            assert clean.platform_profit == faulty.platform_profit

    def test_faulty_run_completes_and_degrades(self):
        model = FaultModel(
            FaultSpec(dropout_rate=0.3, corruption_rate=0.1,
                      stall_rate=0.05),
            RngFactory(1), 12,
        )
        log = FaultLog()
        result = self.make_mechanism().run(fault_model=model, fault_log=log)
        assert np.isfinite(result.regret_history).all()
        summary = log.summary()
        assert summary.get("dropout", 0) > 0
        assert summary.get("quarantine") == summary.get("corruption")
        degraded = [e for e in log.events
                    if e.kind is FaultKind.DEGRADED]
        assert degraded
        for event in degraded:
            outcome = result.rounds[event.round_index]
            assert outcome.participants is not None
            assert outcome.participants.size == int(event.value)
            assert outcome.participants.size < outcome.selected.size
