"""Tests of ``bench/compare.py`` on hand-written result sets.

Run with ``PYTHONPATH=src python -m pytest bench/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import compare


def write(directory: Path, seed: int, ops_per_s: float, *,
          correct: bool = True, seconds: float = 25.0, tag: str = "") -> None:
    directory.mkdir(exist_ok=True)
    result = {"workload": "large_m", "seed": seed, "correct": correct,
              "errors": [] if correct else ["a check failed"],
              "seconds": seconds,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}
    path = directory / f"results-large_m-s{seed}{tag}.json"
    path.write_text(json.dumps(result), encoding="utf-8")


def verdict_line(capsys) -> str:
    lines = capsys.readouterr().out.splitlines()
    return next(line for line in lines if line.startswith("large_m"))


def test_runs_pair_by_seed_when_a_seed_is_missing(tmp_path, capsys):
    # B is slower than A on every seed.  Paired by position, with seed 1
    # missing from B, each B run would meet A's next-slower seed and win.
    for seed in range(1, 11):
        write(tmp_path / "a", seed, 100.0 + seed)
        if seed > 1:
            write(tmp_path / "b", seed, 100.0 + seed - 0.5)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert verdict_line(capsys).split()[-2:] == ["0%", "unchanged"]


def test_a_missing_seed_is_named(tmp_path, capsys):
    for seed in (1, 2, 3):
        write(tmp_path / "a", seed, 100.0)
    for seed in (2, 3):
        write(tmp_path / "b", seed, 100.0)
    compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    assert "seeds [1] ran on one side only" in capsys.readouterr().err


def test_a_failed_run_is_refused(tmp_path, capsys):
    for seed in (1, 2, 3):
        write(tmp_path / "a", seed, 100.0)
        write(tmp_path / "b", seed, 100.0, correct=seed != 2)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    captured = capsys.readouterr()
    assert "results-large_m-s2.json is a failed run" in captured.err
    assert "large_m" not in captured.out


def test_a_seed_run_twice_is_refused(tmp_path, capsys):
    for seed in (1, 2):
        write(tmp_path / "a", seed, 100.0)
        write(tmp_path / "b", seed, 100.0)
    write(tmp_path / "b", 2, 90.0, tag="-again")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "two runs of large_m with seed 2" in capsys.readouterr().err


def test_runs_of_different_length_are_refused(tmp_path, capsys):
    for seed in (1, 2):
        write(tmp_path / "a", seed, 100.0)
        write(tmp_path / "b", seed, 100.0, seconds=10.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "different --seconds" in capsys.readouterr().err


def test_a_slower_change_beyond_the_bound_regresses(tmp_path, capsys):
    for seed in range(1, 11):
        write(tmp_path / "a", seed, 100.0 + seed * 0.1)
        write(tmp_path / "b", seed, 50.0 + seed * 0.1)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert verdict_line(capsys).split()[-1] == "regressed"
