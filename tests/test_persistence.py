"""Unit tests for result persistence (NPZ runs and checkpoints, JSON experiments)."""

from __future__ import annotations

import hashlib
import io
import json
import zipfile

import numpy as np
import pytest

from repro.exceptions import PersistenceError
from repro.experiments.registry import ExperimentResult, Series
from repro.obs.metrics import MetricsRegistry
from repro.resilience.chaos import _tamper
from repro.sim import persistence
from repro.sim.persistence import (
    CHECKPOINT_SCHEMA_VERSION,
    RUN_SCHEMA_VERSION,
    atomic_write_bytes,
    experiment_result_to_dict,
    load_checkpoint,
    load_experiment_result,
    generation_paths,
    load_run_metrics,
    quarantine_file,
    recover_checkpoint,
    save_checkpoint,
    save_experiment_result,
    save_run_metrics,
)
from repro.sim.replication import _decode_sweep_checkpoint, _save_sweep_state
from repro.sim.results import RunMetrics
from repro.sim.rng import seeded_generator

#: One completed seed's per-policy samples, as the sweep records them.
SEED_SAMPLES = {"CMAB-HS": {"total_revenue": 12.5, "regret": 3.25}}


def save_sweep(path, seeds, keep_generations: int = 1) -> None:
    """A sweep checkpoint holding ``seeds`` completed seeds."""
    _save_sweep_state(path, {"num_seeds": 3},
                      {seed: SEED_SAMPLES for seed in seeds},
                      {seed: 0.5 for seed in seeds}, MetricsRegistry(),
                      keep_generations=keep_generations)


def make_run(n=25) -> RunMetrics:
    rng = np.random.default_rng(3)
    return RunMetrics(
        policy_name="CMAB-HS",
        realized_revenue=rng.random(n),
        expected_revenue=rng.random(n),
        regret=np.cumsum(rng.random(n)),
        consumer_profit=rng.random(n),
        platform_profit=rng.random(n),
        seller_profit_mean=rng.random(n),
        service_price=rng.random(n),
        collection_price=rng.random(n),
        total_sensing_time=rng.random(n),
        selection_counts=rng.integers(0, 10, size=8),
        estimation_error=rng.random(n),
    )


class TestRunMetricsPersistence:
    def test_round_trip(self, tmp_path):
        run = make_run()
        path = tmp_path / "run.npz"
        save_run_metrics(run, path)
        loaded = load_run_metrics(path)
        assert loaded.policy_name == "CMAB-HS"
        np.testing.assert_array_equal(loaded.regret, run.regret)
        np.testing.assert_array_equal(loaded.selection_counts,
                                      run.selection_counts)
        assert loaded.summary() == run.summary()

    def test_load_rejects_incomplete_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, policy_name=np.array("x"),
                 realized_revenue=np.ones(3))
        with pytest.raises(PersistenceError, match="missing series"):
            load_run_metrics(path)

    def test_missing_field_error_names_the_fields(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, policy_name=np.array("x"),
                 realized_revenue=np.ones(3))
        with pytest.raises(PersistenceError, match="expected_revenue"):
            load_run_metrics(path)

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        run = make_run()
        path = tmp_path / "run.npz"
        save_run_metrics(run, path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["schema_version"] = np.array(RUN_SCHEMA_VERSION + 1)
        np.savez(path, **arrays)
        with pytest.raises(PersistenceError, match="schema version"):
            load_run_metrics(path)

    def test_legacy_file_without_schema_version_loads(self, tmp_path):
        run = make_run()
        path = tmp_path / "run.npz"
        save_run_metrics(run, path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files
                      if name != "schema_version"}
        np.savez(path, **arrays)
        loaded = load_run_metrics(path)
        assert loaded.summary() == run.summary()


class TestExperimentResultPersistence:
    def make_result(self) -> ExperimentResult:
        result = ExperimentResult("figX", "demo title", "N",
                                  notes=["a note"])
        result.add_series(
            "revenue", Series("optimal", np.array([1.0, 2.0]),
                              np.array([10.0, 20.0]))
        )
        result.add_series(
            "revenue", Series("random", np.array([1.0, 2.0]),
                              np.array([5.0, 9.0]))
        )
        result.add_series(
            "regret", Series("random", np.array([1.0, 2.0]),
                             np.array([1.0, 2.5]))
        )
        return result

    def test_dict_structure(self):
        payload = experiment_result_to_dict(self.make_result())
        assert payload["experiment_id"] == "figX"
        assert set(payload["panels"]) == {"revenue", "regret"}
        assert payload["panels"]["revenue"][0]["label"] == "optimal"

    def test_round_trip(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "figX.json"
        save_experiment_result(result, path)
        loaded = load_experiment_result(path)
        assert loaded.experiment_id == result.experiment_id
        assert loaded.notes == result.notes
        np.testing.assert_array_equal(
            loaded.series("revenue", "random").y,
            result.series("revenue", "random").y,
        )
        assert loaded.to_text() == result.to_text()

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"title": "no id"}')
        with pytest.raises(PersistenceError, match="missing key"):
            load_experiment_result(path)

    def test_real_experiment_round_trip(self, tmp_path):
        from repro.experiments import Scale, run_experiment

        result = run_experiment("fig14", Scale.SMALL)
        path = tmp_path / "fig14.json"
        save_experiment_result(result, path)
        loaded = load_experiment_result(path)
        np.testing.assert_allclose(
            loaded.series("profits", "PoC").y,
            result.series("profits", "PoC").y,
        )


class TestFailureModes:
    """Persistence must fail loudly and precisely, never half-load."""

    def test_truncated_json_raises_persistence_error(self, tmp_path):
        result = TestExperimentResultPersistence().make_result()
        path = tmp_path / "figX.json"
        save_experiment_result(result, path)
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])  # simulated crash
        with pytest.raises(PersistenceError, match="corrupt"):
            load_experiment_result(path)

    def test_truncated_npz_raises_persistence_error(self, tmp_path):
        path = tmp_path / "run.npz"
        save_run_metrics(make_run(), path)
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])
        with pytest.raises(PersistenceError, match="corrupt"):
            load_run_metrics(path)

    def test_garbage_bytes_raise_persistence_error(self, tmp_path):
        path = tmp_path / "run.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(PersistenceError):
            load_run_metrics(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_metrics(tmp_path / "absent.npz")
        with pytest.raises(FileNotFoundError):
            load_experiment_result(tmp_path / "absent.json")

    def test_wrong_experiment_schema_version(self, tmp_path):
        import json

        result = TestExperimentResultPersistence().make_result()
        path = tmp_path / "figX.json"
        save_experiment_result(result, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        payload.pop("checksum", None)  # hand-edit invalidates it
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="schema version 99"):
            load_experiment_result(path)


class TestAtomicWrites:
    def test_replaces_existing_content_atomically(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new content")
        assert path.read_bytes() == b"new content"
        # no temp litter after a successful write
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_write_leaves_destination_untouched(
        self, tmp_path, monkeypatch
    ):
        import os as _os

        path = tmp_path / "data.bin"
        path.write_bytes(b"precious")

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(_os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk on fire"):
            atomic_write_bytes(path, b"half-written garbage")
        monkeypatch.undo()
        assert path.read_bytes() == b"precious"
        # the failed temp file was cleaned up
        assert list(tmp_path.iterdir()) == [path]


class TestCheckpointPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.npz"
        meta = {"kind": "engine_run", "next_round": 42, "seed": 7}
        arrays = {"counts": np.arange(5), "sums": np.linspace(0, 1, 5)}
        save_checkpoint(path, meta, arrays)
        loaded_meta, loaded_arrays = load_checkpoint(path)
        assert loaded_meta == meta  # schema stamp stripped on load
        np.testing.assert_array_equal(loaded_arrays["counts"],
                                      arrays["counts"])
        np.testing.assert_array_equal(loaded_arrays["sums"], arrays["sums"])

    def test_reserved_array_names_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="reserved"):
            save_checkpoint(tmp_path / "ck.npz", {},
                            {"checkpoint_meta": np.zeros(1)})

    def test_npz_without_meta_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, values=np.ones(3))
        with pytest.raises(PersistenceError, match="no metadata record"):
            load_checkpoint(path)

    def test_truncated_checkpoint_detected(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 3}, {"x": np.ones(4)})
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])
        with pytest.raises(PersistenceError, match="corrupt"):
            load_checkpoint(path)

    def test_sweep_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "sweep.npz"
        save_sweep(path, [0, 1])
        fingerprint, per_seed, durations = _decode_sweep_checkpoint(path)
        assert fingerprint == {"num_seeds": 3}
        assert per_seed == {0: SEED_SAMPLES, 1: SEED_SAMPLES}
        assert durations == {0: 0.5, 1: 0.5}
        meta, arrays = load_checkpoint(path)
        assert meta["kind"] == "replication_sweep"
        assert meta["completed_seeds"] == [0, 1]
        assert arrays == {}  # the sweep's state is all metadata

    def test_sweep_checkpoint_without_version_rejected(self, tmp_path):
        path = tmp_path / "sweep.npz"
        write_checkpoint_meta(path, {"kind": "replication_sweep"}, {})
        with pytest.raises(PersistenceError, match="schema_version"):
            _decode_sweep_checkpoint(path)


class TestPersistenceErrorContext:
    """The error carries path / schema versions / cause, not just prose."""

    def test_schema_mismatch_carries_versions_and_path(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 3}, {"x": np.ones(2)})
        meta, arrays = load_checkpoint(path)
        bad_meta = dict(meta)
        # re-stamp with a future schema version via the raw writer
        from repro.sim import persistence

        bad_meta["schema_version"] = 99
        persistence._atomic_write_npz(path, {
            "checkpoint_meta": np.array(__import__("json").dumps(bad_meta)),
            **arrays,
        })
        with pytest.raises(PersistenceError) as excinfo:
            load_checkpoint(path)
        error = excinfo.value
        assert error.path == str(path)
        assert error.schema_found == 99
        assert error.schema_expected == CHECKPOINT_SCHEMA_VERSION
        assert "found 99" in str(error)
        assert f"expected {CHECKPOINT_SCHEMA_VERSION}" in str(error)

    def test_corruption_carries_path_and_cause(self, tmp_path):
        path = tmp_path / "figX.json"
        path.write_text("{garbage")
        with pytest.raises(PersistenceError) as excinfo:
            load_experiment_result(path)
        error = excinfo.value
        assert error.path == str(path)
        assert error.schema_found is None
        assert isinstance(error.__cause__, Exception)
        assert "cause" in str(error)
        assert type(error.__cause__).__name__ in str(error)

    def test_path_appears_in_str_once(self, tmp_path):
        path = tmp_path / "run.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(PersistenceError) as excinfo:
            load_run_metrics(path)
        assert str(excinfo.value).count(str(path)) == 1


class TestChecksumFooter:
    def test_bit_flip_inside_payload_detected(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 3}, {"x": np.arange(64.0)})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="checksum"):
            load_checkpoint(path)

    def test_footerless_legacy_npz_still_loads(self, tmp_path):
        import io

        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 3}, {"x": np.arange(4.0)})
        from repro.sim.persistence import (
            _CHECKSUM_FOOTER_LEN,
            _CHECKSUM_MAGIC,
        )

        raw = path.read_bytes()
        assert raw[-_CHECKSUM_FOOTER_LEN:].startswith(_CHECKSUM_MAGIC)
        path.write_bytes(raw[:-_CHECKSUM_FOOTER_LEN])  # strip the footer
        meta, arrays = load_checkpoint(path)
        assert meta["next_round"] == 3
        del io

    def test_sweep_value_tamper_detected(self, tmp_path):
        path = tmp_path / "sweep.npz"
        save_sweep(path, [0, 1])
        # One sample inflated in the metadata, under the stale footer.
        assert "skipped" not in _tamper(str(path), seeded_generator(0))
        with pytest.raises(PersistenceError, match="checksum"):
            _decode_sweep_checkpoint(path)


class TestQuarantineAndRollback:
    def test_generations_rotate_and_cap(self, tmp_path):
        path = tmp_path / "ck.npz"
        for i in range(5):
            save_checkpoint(path, {"next_round": i}, {"x": np.arange(2.0)},
                            keep_generations=3)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ck.npz", "ck.npz.gen-1", "ck.npz.gen-2"]
        assert load_checkpoint(path)[0]["next_round"] == 4
        assert load_checkpoint(str(path) + ".gen-1")[0]["next_round"] == 3
        assert load_checkpoint(str(path) + ".gen-2")[0]["next_round"] == 2

    def test_single_generation_keeps_flat_layout(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 0}, {"x": np.arange(2.0)})
        save_checkpoint(path, {"next_round": 1}, {"x": np.arange(2.0)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]

    def test_recover_rolls_back_and_quarantines(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 1}, {"x": np.arange(2.0)},
                        keep_generations=2)
        save_checkpoint(path, {"next_round": 2}, {"x": np.arange(2.0)},
                        keep_generations=2)
        path.write_bytes(b"scrambled")
        recovered = recover_checkpoint(path)
        assert recovered is not None
        meta, arrays, actual = recovered
        assert meta["next_round"] == 1
        assert actual.endswith(".gen-1")
        quarantine_dir = tmp_path / "ck.npz.quarantine"
        assert [p.name for p in quarantine_dir.iterdir()] == ["ck.npz"]
        assert not path.exists()

    def test_recover_returns_none_when_nothing_valid(self, tmp_path):
        path = tmp_path / "ck.npz"
        assert recover_checkpoint(path) is None
        path.write_bytes(b"junk")
        assert recover_checkpoint(path) is None
        assert (tmp_path / "ck.npz.quarantine" / "ck.npz").exists()

    def test_recover_sweep_checkpoint(self, tmp_path):
        path = tmp_path / "sweep.npz"
        save_sweep(path, [0], keep_generations=2)
        save_sweep(path, [0, 1], keep_generations=2)
        path.write_bytes(b"{broken")
        recovered = recover_checkpoint(path, load=_decode_sweep_checkpoint)
        assert recovered is not None
        __, per_seed, __, actual = recovered
        assert per_seed == {0: SEED_SAMPLES}
        assert actual.endswith(".gen-1")

    def test_recover_quarantines_a_sweep_that_does_not_decode(
            self, tmp_path):
        # Checksummed and loadable, but a per-seed record is malformed:
        # the walk judges by the sweep's decode, not by loading alone.
        path = tmp_path / "sweep.npz"
        save_sweep(path, [0], keep_generations=2)
        save_sweep(path, [0, 1], keep_generations=2)
        meta, arrays = load_checkpoint(path)
        meta["seed_samples"]["1"] = "oops"
        save_checkpoint(path, meta, arrays)
        __, per_seed, __, actual = recover_checkpoint(
            path, load=_decode_sweep_checkpoint)
        assert per_seed == {0: SEED_SAMPLES}
        assert actual.endswith(".gen-1")
        assert (tmp_path / "sweep.npz.quarantine" / "sweep.npz").exists()

    def test_generation_paths_list_every_generation_past_a_gap(
            self, tmp_path):
        path = tmp_path / "ck.npz"
        for i in range(3):
            save_checkpoint(path, {"next_round": i}, {"x": np.arange(2.0)},
                            keep_generations=3)
        (tmp_path / "ck.npz.gen-1").unlink()
        (tmp_path / "ck.npz.gen-10").write_bytes(b"older")
        (tmp_path / "ck.npz.gen-x").write_bytes(b"not a generation")
        assert generation_paths(path) == [
            str(path), str(path) + ".gen-2", str(path) + ".gen-10"]
        assert generation_paths(tmp_path / "absent" / "ck.npz") == [
            str(tmp_path / "absent" / "ck.npz")]

    def test_recover_walks_past_a_missing_generation(self, tmp_path):
        # A crash between two rotation steps (or an earlier quarantine)
        # can leave .gen-1 missing; .gen-2 is still a rollback target.
        path = tmp_path / "ck.npz"
        for i in range(3):
            save_checkpoint(path, {"next_round": i}, {"x": np.arange(2.0)},
                            keep_generations=3)
        (tmp_path / "ck.npz.gen-1").unlink()
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])  # torn write
        recovered = recover_checkpoint(path)
        assert recovered is not None
        meta, __, actual = recovered
        assert meta == {"next_round": 0}
        assert actual.endswith(".gen-2")
        assert (tmp_path / "ck.npz.quarantine" / "ck.npz").exists()

    def test_quarantine_disambiguates_repeat_offenders(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"bad one")
        first = quarantine_file(path)
        path.write_bytes(b"bad two")
        second = quarantine_file(path)
        assert first != second
        quarantine_dir = tmp_path / "ck.npz.quarantine"
        assert sorted(p.name for p in quarantine_dir.iterdir()) == [
            "ck.npz", "ck.npz.1",
        ]

    def test_quarantine_emits_event_and_metric(self, tmp_path):
        from repro.obs.tracer import RingBufferSink, Tracer

        path = tmp_path / "ck.npz"
        path.write_bytes(b"junk")
        sink = RingBufferSink(capacity=8)
        metrics = MetricsRegistry()
        assert recover_checkpoint(path, tracer=Tracer(sink),
                                  metrics=metrics) is None
        kinds = [event.kind for event in sink.events]
        assert "checkpoint_quarantined" in kinds
        assert metrics.counters[
            "resilience.checkpoints_quarantined"] == 1


def npz_members(path) -> list[zipfile.ZipInfo]:
    """The ZIP entries of a library-written NPZ (checksum footer stripped)."""
    raw = path.read_bytes()[:-persistence._CHECKSUM_FOOTER_LEN]
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        return archive.infolist()


def write_compressed_with_footer(path, arrays: dict) -> None:
    """The layout earlier versions wrote: deflated members + SHA-256 footer."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    payload = buffer.getvalue()
    path.write_bytes(payload + persistence._CHECKSUM_MAGIC
                     + hashlib.sha256(payload).digest())


def write_checkpoint_meta(path, meta: dict, arrays: dict) -> None:
    """Write a checkpoint with ``meta`` verbatim (no schema stamp)."""
    persistence._atomic_write_npz(path, {
        "checkpoint_meta": np.array(json.dumps(meta)), **arrays,
    })


class TestStoredMembers:
    """NPZ files hold stored (uncompressed) members; old files still load."""

    def test_checkpoint_members_are_stored(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 3},
                        {"counts": np.arange(500), "sums": np.ones(500)})
        members = npz_members(path)
        assert {m.filename for m in members} == {
            "checkpoint_meta.npy", "counts.npy", "sums.npy"}
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_run_metrics_members_are_stored(self, tmp_path):
        path = tmp_path / "run.npz"
        save_run_metrics(make_run(), path)
        members = npz_members(path)
        assert len(members) == 13  # 11 series + policy name + schema
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_compressed_checkpoint_still_loads(self, tmp_path):
        path = tmp_path / "ck.npz"
        arrays = {"counts": np.arange(50), "sums": np.linspace(0, 1, 50)}
        meta = {"next_round": 7, "schema_version": CHECKPOINT_SCHEMA_VERSION}
        write_compressed_with_footer(path, {
            "checkpoint_meta": np.array(json.dumps(meta)), **arrays,
        })
        assert all(m.compress_type == zipfile.ZIP_DEFLATED
                   for m in npz_members(path))
        loaded_meta, loaded_arrays = load_checkpoint(path)
        assert loaded_meta == {"next_round": 7}
        for name, values in arrays.items():
            np.testing.assert_array_equal(loaded_arrays[name], values)


class TestMalformedMetadata:
    """Malformed fields fail as PersistenceError naming the field."""

    @pytest.mark.parametrize("version", ["v1", None, [1], 1e400])
    def test_checkpoint_schema_version(self, tmp_path, version):
        path = tmp_path / "ck.npz"
        write_checkpoint_meta(path, {"next_round": 3,
                                     "schema_version": version},
                              {"x": np.ones(2)})
        with pytest.raises(PersistenceError,
                           match="malformed 'schema_version'") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.path == str(path)

    @pytest.mark.parametrize("version", ["v1", [1, 2]])
    def test_run_file_schema_version(self, tmp_path, version):
        path = tmp_path / "run.npz"
        save_run_metrics(make_run(), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["schema_version"] = np.array(version)
        persistence._atomic_write_npz(path, arrays)
        with pytest.raises(PersistenceError,
                           match="run file .* malformed 'schema_version'"):
            load_run_metrics(path)

    def test_sweep_schema_version(self, tmp_path):
        path = tmp_path / "sweep.npz"
        write_checkpoint_meta(path, {"kind": "replication_sweep",
                                     "schema_version": "two"}, {})
        with pytest.raises(PersistenceError,
                           match="malformed 'schema_version'"):
            _decode_sweep_checkpoint(path)

    def test_recover_rolls_back_past_malformed_schema_version(
            self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"next_round": 1}, {"x": np.arange(2.0)},
                        keep_generations=2)
        save_checkpoint(path, {"next_round": 2}, {"x": np.arange(2.0)},
                        keep_generations=2)
        write_checkpoint_meta(path, {"next_round": 2,
                                     "schema_version": None},
                              {"x": np.arange(2.0)})
        meta, __, actual = recover_checkpoint(path)
        assert meta == {"next_round": 1}
        assert actual.endswith(".gen-1")
        assert (tmp_path / "ck.npz.quarantine" / "ck.npz").exists()
