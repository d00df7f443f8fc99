"""Crash-safe checkpoint/resume: resumed runs equal uninterrupted ones."""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np
import pytest

from repro.bandits import (
    OptimalPolicy,
    RandomPolicy,
    SlidingWindowUCBPolicy,
    ThompsonSamplingPolicy,
    UCBPolicy,
)
from repro.exceptions import (
    ConfigurationError,
    GracefulShutdownInterrupt,
    PersistenceError,
)
from repro.faults import FaultLog, FaultSpec
from repro.obs import RingBufferSink, Tracer
from repro.resilience import ResiliencePolicy, ScheduledAbort
from repro.sim import SimulationConfig, TradingSimulator
from repro.sim import persistence
from repro.sim.persistence import load_checkpoint, save_checkpoint
from repro.sim.replication import replicate_comparison
from repro.sim.results import SERIES_FIELDS

CONFIG = SimulationConfig(num_sellers=12, num_selected=3, num_rounds=90,
                          seed=4)


def keep_first_seeds(path, count: int) -> None:
    """Emulate a crash after ``count`` seeds: drop the later seeds' records.

    The edit goes through the checkpoint API, so the file keeps a valid
    checksum.
    """
    meta, arrays = load_checkpoint(path)
    kept = meta["completed_seeds"][:count]
    meta["completed_seeds"] = kept
    for key in ("seed_samples", "seed_durations"):
        meta[key] = {str(seed): meta[key][str(seed)] for seed in kept}
    save_checkpoint(path, meta, arrays)


def assert_runs_identical(reference, resumed):
    assert reference.policy_name == resumed.policy_name
    for field in SERIES_FIELDS:
        np.testing.assert_array_equal(
            getattr(reference, field), getattr(resumed, field),
            err_msg=field,
        )


class TestEngineResume:
    def run_interrupted(self, make_policy, tmp_path, *, spec=None,
                        checkpoint_every=20):
        """An uninterrupted reference vs a checkpoint-resumed run."""
        path = tmp_path / "run.npz"

        simulator = TradingSimulator(CONFIG)
        model = simulator.fault_model(spec) if spec is not None else None
        reference = simulator.run(make_policy(), fault_model=model)
        reference_log = None
        if spec is not None:
            reference_log = FaultLog()
            TradingSimulator(CONFIG).run(
                make_policy(),
                fault_model=TradingSimulator(CONFIG).fault_model(spec),
                fault_log=reference_log,
            )

        # "crash": a fresh process writes checkpoints but we discard its
        # result, keeping only the checkpoint file...
        crashed = TradingSimulator(CONFIG)
        crashed.run(
            make_policy(),
            fault_model=(crashed.fault_model(spec)
                         if spec is not None else None),
            checkpoint_path=path, checkpoint_every=checkpoint_every,
        )
        assert path.exists()

        # ...and a third fresh process resumes from it.
        resumed_sim = TradingSimulator(CONFIG)
        resumed_log = FaultLog() if spec is not None else None
        resumed = resumed_sim.run(
            make_policy(),
            fault_model=(resumed_sim.fault_model(spec)
                         if spec is not None else None),
            fault_log=resumed_log,
            checkpoint_path=path, resume=True,
        )
        return reference, resumed, reference_log, resumed_log

    def test_resume_equals_uninterrupted_clean(self, tmp_path):
        reference, resumed, _, _ = self.run_interrupted(UCBPolicy, tmp_path)
        assert_runs_identical(reference, resumed)

    def test_resume_equals_uninterrupted_with_faults(self, tmp_path):
        spec = FaultSpec(dropout_rate=0.2, corruption_rate=0.05)
        reference, resumed, ref_log, res_log = self.run_interrupted(
            UCBPolicy, tmp_path, spec=spec
        )
        assert_runs_identical(reference, resumed)
        assert ref_log.summary() == res_log.summary()

    def test_resume_with_stateful_policies(self, tmp_path):
        # Thompson keeps Beta posteriors, the sliding window keeps a
        # deque — both must survive the snapshot/restore round trip.
        for make_policy in (ThompsonSamplingPolicy,
                            lambda: SlidingWindowUCBPolicy(window=25)):
            reference, resumed, _, _ = self.run_interrupted(
                make_policy, tmp_path
            )
            assert_runs_identical(reference, resumed)

    def test_missing_checkpoint_starts_fresh(self, tmp_path):
        simulator = TradingSimulator(CONFIG)
        reference = TradingSimulator(CONFIG).run(UCBPolicy())
        resumed = simulator.run(
            UCBPolicy(), checkpoint_path=tmp_path / "absent.npz",
            resume=True,
        )
        assert_runs_identical(reference, resumed)

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "run.npz"
        simulator = TradingSimulator(CONFIG)
        simulator.run(UCBPolicy(), checkpoint_path=path,
                      checkpoint_every=20)
        other_policy = TradingSimulator(CONFIG)
        with pytest.raises(PersistenceError, match="policy_name"):
            other_policy.run(RandomPolicy(), checkpoint_path=path,
                             resume=True)
        other_config = TradingSimulator(CONFIG.derive(seed=99))
        with pytest.raises(PersistenceError, match="seed"):
            other_config.run(UCBPolicy(), checkpoint_path=path,
                             resume=True)

    def test_resume_rejects_fault_spec_mismatch(self, tmp_path):
        path = tmp_path / "run.npz"
        simulator = TradingSimulator(CONFIG)
        simulator.run(
            UCBPolicy(),
            fault_model=simulator.fault_model(FaultSpec(dropout_rate=0.2)),
            checkpoint_path=path, checkpoint_every=20,
        )
        with pytest.raises(PersistenceError, match="fault_spec"):
            TradingSimulator(CONFIG).run(UCBPolicy(), checkpoint_path=path,
                                         resume=True)

    def test_truncated_checkpoint_raises(self, tmp_path):
        path = tmp_path / "run.npz"
        simulator = TradingSimulator(CONFIG)
        simulator.run(UCBPolicy(), checkpoint_path=path,
                      checkpoint_every=20)
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])
        with pytest.raises(PersistenceError, match="corrupt"):
            TradingSimulator(CONFIG).run(UCBPolicy(), checkpoint_path=path,
                                         resume=True)

    def test_checkpointing_requires_a_path(self):
        simulator = TradingSimulator(CONFIG)
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            simulator.run(UCBPolicy(), checkpoint_every=10)
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            simulator.run(UCBPolicy(), resume=True)


FAULTS = FaultSpec(dropout_rate=0.2, corruption_rate=0.05, stall_rate=0.05)


def faulty_run(path=None, **kwargs):
    """One faulty CMAB-HS run of ``CONFIG`` with its fault log."""
    simulator = TradingSimulator(CONFIG)
    log = FaultLog()
    run = simulator.run(UCBPolicy(), fault_model=simulator.fault_model(FAULTS),
                        fault_log=log, checkpoint_path=path, **kwargs)
    return run, log


def recompress(path) -> None:
    """Rewrite a checkpoint in the earlier layout: deflated members + footer."""
    raw = path.read_bytes()[:-persistence._CHECKSUM_FOOTER_LEN]
    with np.load(io.BytesIO(raw)) as data:
        members = {name: data[name] for name in data.files}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **members)
    payload = buffer.getvalue()
    path.write_bytes(payload + persistence._CHECKSUM_MAGIC
                     + hashlib.sha256(payload).digest())


class TestCheckpointFormat:
    def test_compressed_checkpoint_resumes_bit_identical(self, tmp_path):
        path = tmp_path / "run.npz"
        reference, reference_log = faulty_run()
        with pytest.raises(GracefulShutdownInterrupt):
            faulty_run(path, checkpoint_every=20,
                       shutdown=ScheduledAbort([50]))
        recompress(path)
        raw = path.read_bytes()[:-persistence._CHECKSUM_FOOTER_LEN]
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            assert {m.compress_type for m in archive.infolist()} == {
                zipfile.ZIP_DEFLATED}
        resumed, resumed_log = faulty_run(path, resume=True)
        assert_runs_identical(reference, resumed)
        resumed_columns = resumed_log.to_arrays()
        for key, column in reference_log.to_arrays().items():
            np.testing.assert_array_equal(resumed_columns[key], column,
                                          err_msg=key)

    def test_identical_runs_write_identical_checkpoints(self, tmp_path):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        faulty_run(first, checkpoint_every=20)
        faulty_run(second, checkpoint_every=20)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("field,value", [
        ("next_round", "v1"), ("next_round", None),
        ("tracker_rounds", "forty"), ("tracker_rounds", [3]),
        ("tracker_cumulative", "NaN?"),
    ])
    def test_malformed_meta_field_raises_persistence_error(
            self, tmp_path, field, value):
        path = tmp_path / "run.npz"
        faulty_run(path, checkpoint_every=20)
        meta, arrays = load_checkpoint(path)
        meta[field] = value
        save_checkpoint(path, meta, arrays)
        with pytest.raises(PersistenceError,
                           match=f"malformed {field!r}") as excinfo:
            faulty_run(path, resume=True)
        assert excinfo.value.path == str(path)

    def test_quarantine_rolls_back_past_malformed_schema_version(
            self, tmp_path):
        path = tmp_path / "run.npz"
        resilience = ResiliencePolicy(quarantine=True,
                                      checkpoint_generations=2)
        reference, __ = faulty_run()
        with pytest.raises(GracefulShutdownInterrupt):
            faulty_run(path, checkpoint_every=20,
                       shutdown=ScheduledAbort([50]), resilience=resilience)
        assert os.path.exists(f"{path}.gen-1")
        meta, arrays = load_checkpoint(path)
        meta["schema_version"] = "v1"
        persistence._atomic_write_npz(path, {
            "checkpoint_meta": np.array(json.dumps(meta)), **arrays,
        })
        with pytest.raises(PersistenceError, match="schema_version"):
            faulty_run(path, resume=True)
        resumed, __ = faulty_run(path, resume=True, resilience=resilience)
        assert_runs_identical(reference, resumed)
        assert (tmp_path / "run.npz.quarantine" / "run.npz").exists()

    def test_quarantine_rolls_back_past_a_field_that_does_not_decode(
            self, tmp_path):
        path = tmp_path / "run.npz"
        resilience = ResiliencePolicy(quarantine=True,
                                      checkpoint_generations=2)
        reference, reference_log = faulty_run()
        with pytest.raises(GracefulShutdownInterrupt):
            faulty_run(path, checkpoint_every=20,
                       shutdown=ScheduledAbort([50]), resilience=resilience)
        meta, arrays = load_checkpoint(path)
        meta["next_round"] = "v1"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(PersistenceError, match="next_round"):
            faulty_run(path, resume=True)
        sink = RingBufferSink()
        resumed, resumed_log = faulty_run(path, resume=True,
                                          resilience=resilience,
                                          tracer=Tracer(sink))
        assert_runs_identical(reference, resumed)
        assert resumed_log.summary() == reference_log.summary()
        assert (tmp_path / "run.npz.quarantine" / "run.npz").exists()
        (restored,) = [event for event in sink.of_kind("checkpoint")
                       if event.payload["action"] == "restored"]
        assert restored.payload["path"] == f"{path}.gen-1"


class TestSweepResume:
    @staticmethod
    def factory(qualities):
        return [OptimalPolicy(qualities), UCBPolicy(), RandomPolicy()]

    def test_killed_sweep_resumes_to_identical_result(self, tmp_path):
        config = SimulationConfig(num_sellers=12, num_selected=3,
                                  num_rounds=50)
        path = tmp_path / "sweep.npz"
        reference = replicate_comparison(config, self.factory, num_seeds=4)

        # Full sweep with checkpointing, then emulate a crash after seed
        # 2 by truncating the checkpoint to the first two completed
        # seeds (records are keyed per seed).
        replicate_comparison(config, self.factory, num_seeds=4,
                             checkpoint_path=path)
        keep_first_seeds(path, 2)

        resumed = replicate_comparison(config, self.factory, num_seeds=4,
                                       checkpoint_path=path, resume=True)
        assert resumed.seeds == reference.seeds
        for policy in reference.policy_names():
            for metric in ("total_revenue", "expected_revenue", "regret",
                           "mean_poc", "mean_pop", "mean_pos"):
                assert (reference.metric(policy, metric)
                        == resumed.metric(policy, metric)), (policy, metric)

    def test_resume_rejects_different_sweep(self, tmp_path):
        config = SimulationConfig(num_sellers=12, num_selected=3,
                                  num_rounds=40)
        path = tmp_path / "sweep.npz"
        replicate_comparison(config, self.factory, num_seeds=2,
                             checkpoint_path=path)
        with pytest.raises(PersistenceError, match="different sweep"):
            replicate_comparison(config, self.factory, num_seeds=2,
                                 first_seed=7, checkpoint_path=path,
                                 resume=True)
        other = config.derive(num_rounds=41)
        with pytest.raises(PersistenceError, match="different sweep"):
            replicate_comparison(other, self.factory, num_seeds=2,
                                 checkpoint_path=path, resume=True)

    def test_faulty_sweep_checkpoints_and_resumes(self, tmp_path):
        config = SimulationConfig(num_sellers=12, num_selected=3,
                                  num_rounds=40)
        spec = FaultSpec(dropout_rate=0.2, corruption_rate=0.05)
        path = tmp_path / "sweep.npz"
        reference = replicate_comparison(config, self.factory, num_seeds=3,
                                         fault_spec=spec)
        replicate_comparison(config, self.factory, num_seeds=3,
                             fault_spec=spec, checkpoint_path=path)
        keep_first_seeds(path, 1)
        resumed = replicate_comparison(config, self.factory, num_seeds=3,
                                       fault_spec=spec,
                                       checkpoint_path=path, resume=True)
        for policy in reference.policy_names():
            assert (reference.metric(policy, "total_revenue")
                    == resumed.metric(policy, "total_revenue"))
        # the spec is part of the fingerprint: a clean resume must refuse
        with pytest.raises(PersistenceError, match="different sweep"):
            replicate_comparison(config, self.factory, num_seeds=3,
                                 checkpoint_path=path, resume=True)
