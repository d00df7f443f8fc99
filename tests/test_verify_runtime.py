"""The runtime verification section (:mod:`repro.verify.runtime`)."""

from __future__ import annotations

import json

from repro.verify import (
    RUNTIME_GOLDEN_CASE,
    run_verification,
    update_goldens,
    verify_goldens,
)
from repro.verify.runtime import check_batch_equivalence, check_runtime

CHURN = (RUNTIME_GOLDEN_CASE,)


class TestBatchEquivalenceOracle:
    def test_passes_on_the_real_engines(self):
        check = check_batch_equivalence(seed=0, num_rounds=30)
        assert check.passed, check.detail
        assert "bit-identical" in check.detail

    def test_detail_names_the_scenario(self):
        detail = check_batch_equivalence(seed=9, num_rounds=20).detail
        assert "seed 9" in detail
        assert "20 rounds" in detail


class TestChurnGolden:
    def test_missing_golden_points_at_update_goldens(self, tmp_path):
        checks = verify_goldens(str(tmp_path), CHURN)
        assert len(checks) == 1
        assert not checks[0].passed
        assert "--update-goldens" in checks[0].describe()

    def test_update_then_verify_is_clean(self, tmp_path):
        [path] = update_goldens(str(tmp_path), CHURN)
        assert path.endswith("runtime-churn.json")
        assert all(check.passed
                   for check in verify_goldens(str(tmp_path), CHURN))

    def test_golden_pins_the_ledger_digest(self, tmp_path):
        [path] = update_goldens(str(tmp_path), CHURN)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["ledger_digest"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        [check] = verify_goldens(str(tmp_path), CHURN)
        assert not check.passed
        assert "ledger_digest" in check.describe()

    def test_golden_payload_shape(self):
        payload = RUNTIME_GOLDEN_CASE.compute()
        assert payload["case"]["name"] == "runtime-churn"
        assert len(payload["ledger_digest"]) == 64
        assert payload["sessions_opened"] > payload["case"]["num_sellers"]
        assert payload["messages_dropped"] > 0
        assert "total_revenue" in payload["summary"]

    def test_checked_in_golden_is_current(self):
        # The committed store must match what the code computes today.
        [check] = verify_goldens(cases=CHURN)
        assert check.passed, check.detail


class TestRuntimeSection:
    def test_check_runtime_combines_both_legs(self, tmp_path):
        update_goldens(str(tmp_path), CHURN)
        checks = check_runtime(num_rounds=20, goldens_dir=str(tmp_path))
        assert [check.name for check in checks] == [
            "batch-equivalence", "runtime-churn"]
        assert all(check.passed for check in checks)

    def test_run_verification_runtime_only(self, tmp_path):
        update_goldens(str(tmp_path), CHURN)
        report = run_verification(sections=("runtime",),
                                  goldens_dir=str(tmp_path))
        assert list(report.sections) == ["runtime"]
        assert report.passed == all(
            check.passed for check in report.sections["runtime"])
        text = report.to_text()
        assert "runtime: PASS" in text
        assert report.to_dict()["runtime"]["passed"] is True

    def test_missing_golden_fails_the_section(self, tmp_path):
        equivalence, golden = check_runtime(num_rounds=20,
                                            goldens_dir=str(tmp_path))
        assert not golden.passed
        assert equivalence.passed  # only the golden leg failed
