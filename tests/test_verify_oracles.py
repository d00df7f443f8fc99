"""Differential oracles (repro.verify.oracles)."""

from __future__ import annotations

import numpy as np

import repro.verify.oracles as oracles
from repro.core.selection import top_k_indices
from repro.game.profits import GameInstance
from repro.verify import (
    Check,
    VerificationReport,
    brute_force_top_k,
    check_full_solve_oracle,
    check_selection_oracle,
    check_stage1_oracle,
    check_stage2_oracle,
    check_stage3_oracle,
)


def interior_game(num_sellers: int = 3) -> GameInstance:
    rng = np.random.default_rng(7)
    return GameInstance(
        qualities=rng.uniform(0.4, 0.9, num_sellers),
        cost_a=rng.uniform(0.15, 0.35, num_sellers),
        cost_b=rng.uniform(0.1, 0.5, num_sellers),
        theta=0.1, lam=1.0, omega=800.0,
    )


def binding_game() -> GameInstance:
    return GameInstance(
        qualities=np.array([0.5, 0.7]),
        cost_a=np.array([0.2, 0.25]),
        cost_b=np.array([0.3, 0.5]),
        theta=0.2, lam=0.5, omega=800.0,
        collection_price_bounds=(0.0, 0.75),
    )


class TestBruteForceTopK:
    def test_matches_argsort_on_plain_scores(self):
        scores = np.array([0.3, 0.9, 0.1, 0.7, 0.5])
        np.testing.assert_array_equal(
            brute_force_top_k(scores, 2), top_k_indices(scores, 2))

    def test_tie_breaking_prefers_lower_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.1])
        np.testing.assert_array_equal(
            brute_force_top_k(scores, 2), np.array([0, 1]))

    def test_handles_infinities(self):
        scores = np.array([0.2, np.inf, 0.3, np.inf])
        np.testing.assert_array_equal(
            brute_force_top_k(scores, 2), np.array([1, 3]))

    def test_k_equals_m(self):
        scores = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            brute_force_top_k(scores, 3), np.array([0, 1, 2]))


class TestStageOracles:
    def test_stage3_agrees_on_interior_game(self):
        game = interior_game()
        price = oracles.optimal_collection_price(
            game, oracles.optimal_service_price(game))
        check = check_stage3_oracle(game, price, "interior")
        assert check.passed, check.describe()
        assert check.max_error <= 1e-5

    def test_stage3_detects_perturbed_closed_form(self, monkeypatch):
        game = interior_game()
        true_times = oracles.optimal_sensing_times
        monkeypatch.setattr(
            oracles, "optimal_sensing_times",
            lambda g, p: true_times(g, p) * 1.05 + 0.01)
        check = check_stage3_oracle(game, 1.0, "mutated")
        assert not check.passed

    def test_stage2_agrees_on_interior_game(self):
        game = interior_game()
        check = check_stage2_oracle(
            game, oracles.optimal_service_price(game), "interior")
        assert check.passed, check.describe()
        assert "skipped" not in check.detail

    def test_stage2_skips_binding_bound(self):
        game = binding_game()
        check = check_stage2_oracle(
            game, oracles.optimal_service_price(game), "binding")
        assert check.passed
        assert check.detail.startswith("skipped")

    def test_stage2_detects_perturbed_closed_form(self, monkeypatch):
        game = interior_game()
        true_price = oracles.optimal_collection_price
        monkeypatch.setattr(
            oracles, "optimal_collection_price",
            lambda g, pj: true_price(g, pj) * 1.3 + 0.2)
        check = check_stage2_oracle(
            game, oracles.optimal_service_price(game), "mutated")
        assert not check.passed

    def test_stage1_agrees_on_interior_game(self):
        game = interior_game(num_sellers=2)
        check = check_stage1_oracle(game, "interior")
        assert check.passed, check.describe()
        assert "skipped" not in check.detail

    def test_stage1_detects_perturbed_closed_form(self, monkeypatch):
        game = interior_game(num_sellers=2)
        true_price = oracles.optimal_service_price
        monkeypatch.setattr(
            oracles, "optimal_service_price",
            lambda g: true_price(g) * 1.5 + 1.0)
        check = check_stage1_oracle(game, "mutated")
        # Either the perturbed price breaks the interior premise (then
        # the numerical leg is skipped) or the profit comparison fails;
        # a perturbation must never silently pass as agreement.
        if "skipped" not in check.detail:
            assert not check.passed

    def test_full_solve_agrees_on_interior_game(self):
        game = interior_game(num_sellers=2)
        check = check_full_solve_oracle(game, "interior")
        assert check.passed, check.describe()
        assert "skipped" not in check.detail

    def test_full_solve_skips_binding_bound(self):
        check = check_full_solve_oracle(binding_game(), "binding")
        assert check.passed
        assert check.detail.startswith("skipped")


class TestSelectionOracle:
    def test_agrees_with_ties_and_infinities(self):
        scores = np.array([0.5, 0.5, np.inf, 0.1, 0.5])
        check = check_selection_oracle(scores, 3, "ties")
        assert check.passed, check.describe()

    def test_detects_wrong_fast_path(self, monkeypatch):
        monkeypatch.setattr(
            oracles, "top_k_indices",
            lambda scores, k: np.arange(k, dtype=np.int64)[::-1].copy()
            if k > 1 else np.array([len(scores) - 1]))
        check = check_selection_oracle(np.array([0.1, 0.9, 0.5]), 1, "bad")
        assert not check.passed


class TestSuiteReport:
    def make_report(self, *passed_flags: bool) -> VerificationReport:
        return VerificationReport({"oracles": [
            Check(f"stage3/case-{i}", flag, "detail", 0.1)
            for i, flag in enumerate(passed_flags)
        ]})

    def test_all_passed(self):
        report = self.make_report(True, True)
        assert report.passed
        assert report.to_dict()["oracles"]["num_failed"] == 0
        assert report.to_dict()["oracles"]["failures"] == []

    def test_failures_surface(self):
        report = self.make_report(True, False, False)
        assert not report.passed
        assert report.to_dict()["oracles"]["num_failed"] == 2
        assert len(report.to_dict()["oracles"]["failures"]) == 2

    def test_to_dict_shape(self):
        payload = self.make_report(True, False).to_dict()["oracles"]
        assert payload["passed"] is False
        assert payload["num_checks"] == 2
        assert payload["num_failed"] == 1
        assert payload["failures"][0]["name"] == "stage3/case-1"

    def test_describe_marks_status(self):
        assert "[ok]" in Check("stage3/c", True, "d").describe()
        assert "[FAIL]" in Check("stage3/c", False, "d").describe()
