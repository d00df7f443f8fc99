"""Unit tests for the Lemma-18 counter diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.diagnostics import counter_report
from repro.exceptions import ConfigurationError

QUALITIES = np.array([0.9, 0.7, 0.5, 0.3, 0.1])


class TestCounterReport:
    def test_optimal_sellers_unbounded(self):
        counts = np.array([100, 100, 5, 5, 5])
        report = counter_report(QUALITIES, counts, k=2, num_pois=4,
                                num_rounds=100)
        optimal = [d for d in report.diagnostics if d.is_optimal]
        assert {d.seller for d in optimal} == {0, 1}
        assert all(np.isinf(d.bound) for d in optimal)
        assert all(d.within_bound for d in optimal)

    def test_gaps_to_weakest_optimal(self):
        report = counter_report(QUALITIES, np.zeros(5, dtype=int), k=2,
                                num_pois=4, num_rounds=100)
        gaps = {d.seller: d.gap for d in report.diagnostics}
        assert gaps[2] == pytest.approx(0.2)
        assert gaps[4] == pytest.approx(0.6)

    def test_smaller_gap_bigger_bound(self):
        report = counter_report(QUALITIES, np.zeros(5, dtype=int), k=2,
                                num_pois=4, num_rounds=100)
        bounds = {d.seller: d.bound for d in report.diagnostics}
        assert bounds[2] > bounds[3] > bounds[4]

    def test_violation_detected(self):
        counts = np.array([10, 10, 10, 10, 10**7])
        report = counter_report(QUALITIES, counts, k=2, num_pois=4,
                                num_rounds=100)
        offender = next(d for d in report.diagnostics if d.seller == 4)
        assert not offender.within_bound
        assert not report.all_within_bounds

    def test_table_renders(self):
        report = counter_report(QUALITIES, np.arange(5), k=2, num_pois=4,
                                num_rounds=100)
        table = report.to_table()
        assert "seller" in table
        assert "bound" in table

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(ConfigurationError, match="aligned"):
            counter_report(QUALITIES, np.zeros(3, dtype=int), k=2,
                           num_pois=4, num_rounds=100)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError, match="k must be"):
            counter_report(QUALITIES, np.zeros(5, dtype=int), k=9,
                           num_pois=4, num_rounds=100)

    def test_worst_utilisation_in_unit_range_for_real_run(self):
        from repro.bandits.policies import UCBPolicy
        from repro.entities.seller import SellerPopulation
        from repro.quality.distributions import TruncatedGaussianQuality
        from repro.sim import SimulationConfig, TradingSimulator

        qualities = np.array([0.9, 0.75, 0.55, 0.35, 0.2, 0.1])
        config = SimulationConfig(num_sellers=qualities.size,
                                  num_selected=2, num_pois=4,
                                  num_rounds=1_500, seed=6)
        result = TradingSimulator(
            config,
            population=SellerPopulation.from_arrays(
                qualities, np.ones_like(qualities),
                np.zeros_like(qualities)),
            quality_model=TruncatedGaussianQuality(qualities),
        ).run(UCBPolicy())
        report = counter_report(qualities, result.selection_counts, k=2,
                                num_pois=4, num_rounds=1_500)
        assert report.all_within_bounds, report.to_table()
        assert 0.0 < report.worst_utilisation <= 1.0

    def test_violation_emits_invariant_trace_event(self):
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        counts = np.array([10, 10, 10, 10, 10**7])
        report = counter_report(QUALITIES, counts, k=2, num_pois=4,
                                num_rounds=100, tracer=Tracer(ring))
        assert not report.all_within_bounds
        violations = ring.of_kind("invariant_violation")
        assert [e.payload["seller"] for e in violations] == [4]
        payload = violations[0].payload
        assert payload["invariant"] == "lemma18_counter_bound"
        assert payload["observations"] > payload["bound"]
        assert payload["gap"] == pytest.approx(0.6)

    def test_compliant_report_emits_no_events(self):
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        report = counter_report(QUALITIES, np.array([40, 40, 1, 1, 1]),
                                k=2, num_pois=4, num_rounds=100,
                                tracer=Tracer(ring))
        assert report.all_within_bounds
        assert ring.events == ()

    def test_mechanism_counters_certified(self):
        from repro.core.mechanism import CMABHSMechanism
        from repro.entities import (
            Consumer,
            Job,
            Platform,
            SellerPopulation,
        )

        population = SellerPopulation.from_arrays(
            qualities=np.array([0.9, 0.7, 0.5, 0.35, 0.2]),
            a=np.full(5, 0.3),
            b=np.full(5, 0.2),
        )
        job = Job.simple(num_pois=4, num_rounds=800)
        mechanism = CMABHSMechanism(
            population, job, Platform.default(price_max=5.0),
            Consumer.default(), k=2, seed=11,
        )
        result = mechanism.run()
        counts = result.selection_matrix.sum(axis=0)
        report = counter_report(
            population.expected_qualities, counts, k=2, num_pois=4,
            num_rounds=800,
        )
        assert report.all_within_bounds, report.to_table()
