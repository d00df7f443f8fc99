"""Smoke tests: every example script must run cleanly end to end."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

EXPECTED_SNIPPETS = {
    "quickstart.py": ["CMAB-HS quickstart", "Theorem-19 regret bound"],
    "illustrative_example.py": ["Section III-D", "selection matrix"],
    "taxi_trace_trading.py": ["extracted PoIs", "CMAB-HS"],
    "policy_comparison.py": ["stationary qualities",
                             "drifting qualities"],
    "equilibrium_exploration.py": ["SE verification", "closed form"],
    "reproduce_figures.py": ["saved", "reloaded"],
}


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_SNIPPETS), (
        "update EXPECTED_SNIPPETS when adding/removing examples"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_SNIPPETS))
def test_example_runs(script, tmp_path):
    # The subprocess must see the in-repo package regardless of how the
    # test process itself found it (installed vs PYTHONPATH).
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC_DIR) if not existing
        else os.pathsep.join([str(SRC_DIR), existing])
    )
    process = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,  # examples writing files must not pollute the repo
        env=env,
    )
    assert process.returncode == 0, process.stderr[-2_000:]
    for snippet in EXPECTED_SNIPPETS[script]:
        assert snippet in process.stdout, (
            f"{script}: expected {snippet!r} in output"
        )
