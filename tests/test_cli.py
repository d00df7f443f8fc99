"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "fig13", "fig14", "--paper-scale", "--seed", "7"]
        )
        assert args.experiments == ["fig13", "fig14"]
        assert args.paper_scale is True
        assert args.seed == 7

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.sellers == 50
        assert args.rounds == 1_000

    def test_workers_flags(self):
        args = build_parser().parse_args(["replicate", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["run", "fig7", "--workers", "2"])
        assert args.workers == 2

    def test_workers_default_serial(self):
        assert build_parser().parse_args(["replicate"]).workers == 1
        assert build_parser().parse_args(["run", "fig7"]).workers == 1

    def test_version_flag(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro-cdt" in out
        assert __version__ in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "table2" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "number of rounds N" in out

    def test_run_example(self, capsys):
        assert main(["run", "example"]) == 0
        out = capsys.readouterr().out
        assert "selection order" in out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 1
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_run_multiple(self, capsys):
        assert main(["run", "fig14", "fig17"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "fig17" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--sellers", "12", "--selected", "3",
                     "--rounds", "60", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "CMAB-HS" in out
        assert "optimal" in out
        assert "random" in out

    def test_run_with_charts(self, capsys):
        assert main(["run", "fig14", "--charts"]) == 0
        out = capsys.readouterr().out
        assert "(chart)" in out
        assert "|" in out

    def test_run_with_save_dir(self, capsys, tmp_path):
        save_dir = str(tmp_path / "results")
        assert main(["run", "table2", "--save-dir", save_dir]) == 0
        out = capsys.readouterr().out
        assert "saved" in out
        assert (tmp_path / "results" / "table2.json").exists()

    def test_saved_result_loads_back(self, tmp_path):
        from repro.sim.persistence import load_experiment_result

        save_dir = str(tmp_path)
        assert main(["run", "fig14", "--save-dir", save_dir]) == 0
        loaded = load_experiment_result(tmp_path / "fig14.json")
        assert loaded.experiment_id == "fig14"

    def test_replicate(self, capsys):
        assert main(["replicate", "--sellers", "12", "--selected", "3",
                     "--rounds", "80", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "+/-" in out
        assert "separation" in out

    def test_replicate_workers_matches_serial(self, capsys):
        base = ["replicate", "--sellers", "12", "--selected", "3",
                "--rounds", "60", "--seeds", "2"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical metrics; only the header mentions the worker count.
        assert parallel.replace(", workers=2", "") == serial

    def test_run_workers_matches_serial(self, capsys, tmp_path):
        import json

        serial_dir, parallel_dir = str(tmp_path / "s"), str(tmp_path / "p")
        base = ["run", "fig14", "fig17"]
        assert main(base + ["--save-dir", serial_dir]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2",
                            "--save-dir", parallel_dir]) == 0
        parallel = capsys.readouterr().out
        assert (parallel.replace(parallel_dir, serial_dir) == serial)
        for name in ("fig14.json", "fig17.json"):
            serial_payload = json.loads(
                (tmp_path / "s" / name).read_text())
            parallel_payload = json.loads(
                (tmp_path / "p" / name).read_text())
            assert parallel_payload == serial_payload

    def test_list_includes_extensions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("ext-drift", "ext-poa", "ext-replication"):
            assert experiment_id in out

    def test_retired_extension_fails_loudly(self, capsys):
        assert main(["run", "ext-market"]) == 1
        err = capsys.readouterr().err
        assert "unknown experiment 'ext-market'" in err
        assert "known: " in err and "ext-drift" in err

    def test_trace(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.csv")
        assert main(["trace", "--trips", "1500", "--taxis", "40",
                     "--pois", "5", "--sellers", "10", "--seed", "3",
                     "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "generated 1500 trips" in out
        assert "extracted 5 PoIs" in out
        assert "derived 10 sellers" in out
        # The saved CSV loads back through the library loader.
        from repro.data import load_trace

        assert len(load_trace(out_file)) == 1_500

    @pytest.mark.parametrize("command", [
        ["quickstart", "--sellers", "8", "--selected", "2",
         "--rounds", "20"],
        ["replicate", "--sellers", "8", "--selected", "2",
         "--rounds", "20", "--seeds", "2"],
        ["serve", "--sellers", "8", "--selected", "2", "--rounds", "20"],
    ], ids=["quickstart", "replicate", "serve"])
    def test_resume_without_checkpoint_fails(self, capsys, command):
        # --resume with nothing to resume from is a configuration
        # error, never a silent run from scratch.
        assert main([*command, "--resume"]) == 1
        captured = capsys.readouterr()
        assert "requires checkpoint_path" in captured.err
        assert "revenue" not in captured.out

    def test_trace_fails_cleanly_on_impossible_demand(self, capsys):
        assert main(["trace", "--trips", "300", "--taxis", "5",
                     "--pois", "4", "--sellers", "500"]) == 1
        err = capsys.readouterr().err
        assert "qualify" in err


class TestObservabilityCommands:
    def test_quickstart_trace_then_summarize(self, capsys, tmp_path):
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["quickstart", "--sellers", "10", "--selected", "3",
                     "--rounds", "30", "--seed", "1",
                     "--trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "counters:" in out
        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "event counts:" in out
        assert "selection" in out
        assert "equilibrium" in out
        assert "per-phase timing:" in out

    def test_traced_quickstart_matches_untraced(self, capsys, tmp_path):
        base = ["quickstart", "--sellers", "10", "--selected", "3",
                "--rounds", "30", "--seed", "4"]
        assert main(base) == 0
        untraced = capsys.readouterr().out
        assert main(base + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        # The results table (everything before the trace footer) is
        # identical: tracing never perturbs the run.
        assert traced.startswith(untraced.rstrip("\n"))

    def test_trace_to_unwritable_path_fails_cleanly(self, capsys, tmp_path):
        assert main(["quickstart", "--sellers", "10", "--selected", "3",
                     "--rounds", "10",
                     "--trace", str(tmp_path / "no" / "dir" / "t.jsonl")
                     ]) == 1
        err = capsys.readouterr().err
        assert "cannot open trace file" in err

    def test_summarize_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "summarize",
                     str(tmp_path / "absent.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "cannot read trace file" in err

    def test_summarize_malformed_line_skipped_and_counted(self, capsys,
                                                          tmp_path):
        # A crash mid-write leaves a truncated tail record; the summary
        # reports it honestly instead of refusing the whole trace.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"round_start","round":0}\nnot json\n')
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 malformed line" in out
        assert "round_start" in out

    def test_summarize_unreadable_file_fails_cleanly(self, capsys,
                                                     tmp_path):
        assert main(["trace", "summarize",
                     str(tmp_path / "missing.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "cannot read trace file" in err

    def test_rejects_unknown_log_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--log-level", "loud"])

    def test_replicate_with_trace(self, capsys, tmp_path):
        trace_path = str(tmp_path / "sweep.jsonl")
        assert main(["replicate", "--sellers", "10", "--selected", "3",
                     "--rounds", "30", "--seeds", "2",
                     "--trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "seed_end" in out
