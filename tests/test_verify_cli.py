"""The ``repro verify`` subcommand and verification runner."""

from __future__ import annotations

import json

import pytest

import repro.sim.rounds as rounds_module
from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError
from repro.verify import run_verification, update_goldens
from repro.verify.runner import SECTIONS


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.seed == 0
        assert args.oracle_cases == 12
        assert args.strict_rounds == 60
        assert args.goldens_dir is None
        assert args.only is None
        assert args.update_goldens is False
        assert args.report is None

    def test_only_is_repeatable(self):
        args = build_parser().parse_args(
            ["verify", "--only", "strict", "--only", "goldens"])
        assert args.only == ["strict", "goldens"]

    def test_only_rejects_unknown_section(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--only", "bogus"])

    def test_quickstart_strict_flag(self):
        assert build_parser().parse_args(["quickstart"]).strict is False
        assert build_parser().parse_args(
            ["quickstart", "--strict"]).strict is True


class TestRunner:
    def test_rejects_unknown_section(self):
        with pytest.raises(ConfigurationError, match="unknown verification"):
            run_verification(sections=("bogus",))

    def test_section_subset_leaves_others_unset(self):
        report = run_verification(sections=("strict",), strict_rounds=15)
        assert "oracles" not in report.sections
        assert "goldens" not in report.sections
        assert "strict" in report.sections
        assert report.passed == all(
            check.passed for check in report.sections["strict"])

    def test_report_to_text_has_verdict_line(self):
        report = run_verification(sections=("strict",), strict_rounds=15)
        text = report.to_text()
        assert text.splitlines()[-1].startswith("verification:")

    def test_every_section_reports_one_json_shape(self, tmp_path):
        # Goldens are blessed into a scratch store so both golden-backed
        # sections run; the oracle suite keeps to its edge cases.
        update_goldens(str(tmp_path))
        payload = run_verification(oracle_cases=0, strict_rounds=15,
                                   goldens_dir=str(tmp_path)).to_dict()
        assert list(payload) == ["passed", *SECTIONS]
        for section in SECTIONS:
            assert set(payload[section]) == {
                "passed", "num_checks", "num_failed", "failures"}, section
        assert payload["passed"] is True


class TestVerifyCommand:
    def test_strict_section_passes(self, capsys):
        assert main(["verify", "--only", "strict",
                     "--strict-rounds", "20"]) == 0
        out = capsys.readouterr().out
        assert "strict: PASS" in out
        assert "verification: PASS" in out

    def test_goldens_against_checked_in_store(self, capsys):
        assert main(["verify", "--only", "goldens"]) == 0
        out = capsys.readouterr().out
        assert "goldens: PASS (3 checks, 0 failed)" in out

    def test_update_then_verify_round_trips(self, tmp_path, capsys):
        assert main(["verify", "--update-goldens",
                     "--goldens-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # Three engine goldens plus the runtime churn golden.
        assert out.count("wrote ") == 4
        assert main(["verify", "--only", "goldens",
                     "--goldens-dir", str(tmp_path)]) == 0
        assert main(["verify", "--only", "runtime",
                     "--goldens-dir", str(tmp_path)]) == 0

    def test_missing_goldens_fail(self, tmp_path, capsys):
        assert main(["verify", "--only", "goldens",
                     "--goldens-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "goldens: FAIL" in out
        assert "--update-goldens" in out

    def test_unwritable_report_path_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "report.json"
        assert main(["verify", "--only", "strict", "--strict-rounds", "15",
                     "--report", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot write verification report" in err

    def test_report_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", "--only", "strict", "--strict-rounds", "15",
                     "--report", str(path)]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["passed"] is True
        assert payload["strict"]["passed"] is True
        assert "oracles" not in payload


class TestMutationSmoke:
    """A deliberately perturbed closed form must fail ``repro verify``."""

    @pytest.fixture
    def perturbed_solver(self, monkeypatch):
        true_solve = rounds_module.solve_round_fast

        def perturbed(*args, **kwargs):
            p_j, p, taus = true_solve(*args, **kwargs)
            # A 1% price error: far below anything eyeballing revenue
            # curves would catch.
            return p_j, p * 1.01, taus

        monkeypatch.setattr(rounds_module, "solve_round_fast", perturbed)

    def test_goldens_catch_perturbed_solver(self, perturbed_solver, capsys):
        assert main(["verify", "--only", "goldens"]) == 1
        out = capsys.readouterr().out
        assert "goldens: FAIL" in out
        assert "verification: FAIL" in out

    def test_strict_catches_perturbed_solver(self, perturbed_solver, capsys):
        assert main(["verify", "--only", "strict",
                     "--strict-rounds", "20"]) == 1
        out = capsys.readouterr().out
        assert "strict: FAIL" in out
        assert "violated an invariant" in out

    def test_oracles_catch_perturbed_closed_form(self, monkeypatch, capsys):
        import repro.verify.oracles as oracles

        true_price = oracles.optimal_collection_price
        monkeypatch.setattr(
            oracles, "optimal_collection_price",
            lambda game, pj: true_price(game, pj) * 1.05 + 0.02)
        # Edge cases only (--oracle-cases 0) keep the mutated suite fast;
        # the Stage-2 differential oracle still fails by construction.
        assert main(["verify", "--only", "oracles",
                     "--oracle-cases", "0"]) == 1
        out = capsys.readouterr().out
        assert "oracles: FAIL" in out
        assert "verification: FAIL" in out
