"""Golden-trace regression store (repro.verify.golden)."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import PersistenceError
from repro.sim.persistence import denormalize_json_value
from repro.verify import (
    GOLDEN_CASES,
    RUNTIME_GOLDEN_CASE,
    GoldenCase,
    golden_directory,
    golden_path,
    update_goldens,
    verify_goldens,
)

#: The cheapest canonical case, used where one run suffices.
SMALL_CASE = GoldenCase("tiny", num_sellers=8, num_selected=2, num_pois=3,
                        num_rounds=30, seed=5)


class TestGoldenCase:
    def test_config_round_trip(self):
        config = SMALL_CASE.config()
        assert config.num_sellers == 8
        assert config.num_rounds == 30
        assert config.seed == 5

    def test_clean_case_has_no_fault_spec(self):
        assert SMALL_CASE.fault_spec() is None

    def test_faulty_case_builds_spec(self):
        case = GoldenCase("f", num_sellers=8, num_selected=2, num_pois=3,
                          num_rounds=30, seed=5, dropout_rate=0.2)
        spec = case.fault_spec()
        assert spec is not None
        assert spec.dropout_rate == 0.2


class TestCheckedInGoldens:
    def test_files_exist_for_every_case(self):
        for case in GOLDEN_CASES:
            assert os.path.exists(golden_path(case)), case.name

    def test_no_drift_against_checked_in_goldens(self):
        drifted = {check.name: check.detail for check in verify_goldens()
                   if not check.passed}
        assert drifted == {}

    def test_goldens_cover_distinct_regimes(self):
        names = {case.name for case in GOLDEN_CASES}
        assert any(case.num_selected == case.num_sellers
                   for case in GOLDEN_CASES), "K = M corner missing"
        assert any(case.fault_spec() is not None
                   for case in GOLDEN_CASES), "fault-injected case missing"
        assert len(names) == len(GOLDEN_CASES)


class TestGoldenStore:
    CASES = (SMALL_CASE,)

    def test_update_then_verify_round_trips(self, tmp_path):
        paths = update_goldens(str(tmp_path), self.CASES)
        assert paths == [str(tmp_path / "tiny.json")]
        results = verify_goldens(str(tmp_path), self.CASES)
        assert [(check.name, check.passed) for check in results] == [
            ("tiny", True)]

    def test_tampered_series_value_is_reported(self, tmp_path):
        update_goldens(str(tmp_path), self.CASES)
        path = golden_path(SMALL_CASE, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["series"]["regret"][10] += 1.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        [check] = verify_goldens(str(tmp_path), self.CASES)
        assert not check.passed
        assert check.detail.startswith("1 mismatch: series.regret[10]: ")

    def test_edited_case_parameters_are_detected_drift(self, tmp_path):
        # The payload embeds the case: changing GOLDEN_CASES without
        # regenerating the files must not verify silently.
        update_goldens(str(tmp_path), self.CASES)
        edited = GoldenCase("tiny", num_sellers=8, num_selected=2,
                            num_pois=3, num_rounds=30, seed=6)
        [check] = verify_goldens(str(tmp_path), (edited,))
        assert not check.passed
        assert "case.seed: " in check.detail

    def test_missing_file_points_at_update_command(self, tmp_path):
        results = verify_goldens(str(tmp_path), self.CASES)
        assert len(results) == 1
        assert not results[0].passed
        assert "--update-goldens" in results[0].detail

    def test_corrupt_file_raises_persistence_error(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError, match="corrupt"):
            verify_goldens(str(tmp_path), self.CASES)

    def test_missing_file_does_not_mask_other_cases(self, tmp_path):
        other = GoldenCase("tiny2", num_sellers=8, num_selected=2,
                           num_pois=3, num_rounds=30, seed=7)
        update_goldens(str(tmp_path), (other,))
        results = verify_goldens(str(tmp_path), (SMALL_CASE, other))
        assert [(check.name, check.passed) for check in results] == [
            ("tiny", False), ("tiny2", True)]


class TestComputeGolden:
    def test_payload_shape(self):
        payload = SMALL_CASE.compute()
        assert payload["case"]["name"] == "tiny"
        assert payload["policy"]
        assert set(payload["series"]) >= {"regret", "realized_revenue",
                                          "selection_counts"}
        assert len(payload["series"]["regret"]) == SMALL_CASE.num_rounds

    def test_strict_mode_produces_identical_golden(self):
        # The invariant monitor must be purely observational: computing
        # a golden under strict mode cannot change a single number.
        assert SMALL_CASE.compute(strict=True) == SMALL_CASE.compute()


def test_golden_directory_is_packaged():
    directory = golden_directory()
    assert os.path.basename(directory) == "goldens"
    assert os.path.dirname(directory).endswith(os.path.join("repro",
                                                            "verify"))


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return denormalize_json_value(json.load(handle))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_engine_golden_bit_identical(case):
    # Exact equality, not the verify tolerance: any hot-path shortcut
    # that moves one ulp of one settled price in one round shows up here.
    stored = _load(golden_path(case))
    fresh = case.compute()
    assert fresh["case"] == stored["case"]
    assert fresh["policy"] == stored["policy"]
    assert fresh["summary"] == stored["summary"]
    for field, series in stored["series"].items():
        assert fresh["series"][field] == series, (
            f"{case.name}: series {field} drifted"
        )


def test_runtime_churn_golden_bit_identical():
    stored = _load(golden_path(RUNTIME_GOLDEN_CASE))
    fresh = RUNTIME_GOLDEN_CASE.compute()
    assert fresh["ledger_digest"] == stored["ledger_digest"]
    assert fresh["summary"] == stored["summary"]
    for key in ("sessions_opened", "sessions_closed",
                "messages_delivered", "messages_dropped"):
        assert fresh[key] == stored[key]


def test_update_goldens_rewrites_the_checked_in_store_byte_for_byte(
        tmp_path):
    # One store, four files: regenerating into an empty directory must
    # reproduce exactly the checked-in set, bytes included.
    paths = update_goldens(str(tmp_path))
    checked_in = sorted(os.listdir(golden_directory()))
    assert sorted(os.listdir(tmp_path)) == checked_in
    assert len(paths) == len(checked_in) == 4
    for name in checked_in:
        with open(os.path.join(golden_directory(), name), "rb") as handle:
            expected = handle.read()
        assert (tmp_path / name).read_bytes() == expected, name
