"""End-to-end tests for ``repro lint --flow``: CLI surface, baseline
workflow, SARIF emission, ``--strict-pragmas``, and the git ``--diff``
fast path (impact restriction + identical findings for the changed
region).
"""

import json
import os
import subprocess

import pytest

from repro.cli import main
from repro.lint.framework import LintSession
from repro.lint.flow import run_flow

CLEAN_MODULE = "# repro-lint: package=pkg.m{i}\ndef f{i}(x):\n    return x\n"

TAINTED = (
    "# repro-lint: package=pkg.tainted\n"
    "import numpy as np\n"
    "def helper(factory, seed):\n"
    "    return factory(seed)\n"
    "def stream(seed):\n"
    "    return helper(np.random.default_rng, seed)\n"
)


def write_project(root, files):
    for name, source in files.items():
        (root / name).write_text(source)


class TestCliFlow:
    def test_flow_flag_runs_whole_program_rules(self, tmp_path, capsys):
        write_project(tmp_path, {"tainted.py": TAINTED})
        assert main(["lint", "--flow", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out

    def test_selecting_flow_rule_implies_flow(self, tmp_path, capsys):
        write_project(tmp_path, {"tainted.py": TAINTED})
        assert main(["lint", "--select", "RL101", str(tmp_path)]) == 1
        assert "RL101" in capsys.readouterr().out
        # a disjoint flow selection stays quiet
        assert main(["lint", "--select", "RL104", str(tmp_path)]) == 0

    def test_sarif_format(self, tmp_path, capsys):
        write_project(tmp_path, {"tainted.py": TAINTED})
        report_path = tmp_path / "out.sarif"
        assert main(["lint", "--flow", "--format", "sarif",
                     "--report", str(report_path), str(tmp_path)]) == 1
        stdout_sarif = json.loads(capsys.readouterr().out)
        file_sarif = json.loads(report_path.read_text())
        assert stdout_sarif == file_sarif
        assert file_sarif["version"] == "2.1.0"
        (run,) = file_sarif["runs"]
        assert {r["ruleId"] for r in run["results"]} == {"RL101"}
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        # flow runs list the full combined policy
        assert {"RL001", "RL101", "RL104", "RL007"} <= rule_ids

    def test_baseline_accept_then_gate(self, tmp_path, capsys):
        write_project(tmp_path, {"tainted.py": TAINTED})
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--flow", str(tmp_path),
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        # baselined finding no longer gates
        assert main(["lint", "--flow", str(tmp_path),
                     "--baseline", str(baseline)]) == 0
        assert "baselined finding(s) suppressed" in capsys.readouterr().out
        # a new finding still does
        write_project(tmp_path, {"fresh.py": TAINTED.replace(
            "pkg.tainted", "pkg.fresh")})
        assert main(["lint", "--flow", str(tmp_path),
                     "--baseline", str(baseline)]) == 1

    def test_strict_pragmas_gates_orphans(self, tmp_path, capsys):
        write_project(tmp_path, {
            "mod.py": "x = 1  # repro-lint: disable=RL004\n",
        })
        assert main(["lint", str(tmp_path)]) == 0
        assert "RL007" in capsys.readouterr().out
        assert main(["lint", "--strict-pragmas", str(tmp_path)]) == 1

    def test_list_rules_includes_flow_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL007", "RL101", "RL104"):
            assert rule_id in out

    def test_unknown_flow_rule_is_a_cli_error(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "--select", "RL999"]) == 1
        assert "unknown lint rule" in capsys.readouterr().err


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True,
                   capture_output=True,
                   env={**os.environ,
                        "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL":
                        "t@t"})


@pytest.fixture
def git_project(tmp_path):
    """A committed 12-module project; returns its root."""
    files = {f"m{i:02d}.py": CLEAN_MODULE.format(i=f"{i:02d}")
             for i in range(10)}
    files["helper.py"] = (
        "# repro-lint: package=pkg.helper\n"
        "def apply(factory, seed):\n"
        "    return factory(seed)\n"
    )
    files["caller.py"] = (
        "# repro-lint: package=pkg.caller\n"
        "import numpy as np\n"
        "from pkg.helper import apply\n"
        "def run(seed):\n"
        "    return apply(str, seed)\n"
    )
    write_project(tmp_path, files)
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-qm", "seed")
    return tmp_path


class TestDiffMode:
    def test_single_function_change_analyzes_under_20_percent(
            self, git_project):
        root = git_project
        source = (root / "caller.py").read_text()
        (root / "caller.py").write_text(source.replace(
            "return apply(str, seed)",
            "return apply(np.random.default_rng, seed)"))

        full = run_flow(LintSession([str(root)]))
        diff = run_flow(LintSession([str(root)]), diff_rev="HEAD",
                        repo_root=str(root))

        assert diff.total_files == 12
        assert len(diff.analyzed_files) / diff.total_files < 0.20
        assert diff.changed_functions == ["pkg.caller.run"]

        # the changed region's findings are identical to a full run
        region = [f.to_dict() for f in full.findings
                  if f.path in set(diff.analyzed_files)]
        assert [f.to_dict() for f in diff.findings] == region
        assert {f.rule for f in diff.findings} == {"RL101"}

    def test_callers_of_a_changed_function_are_in_the_impact_set(
            self, git_project):
        root = git_project
        source = (root / "helper.py").read_text()
        (root / "helper.py").write_text(source.replace(
            "    return factory(seed)\n",
            "    return factory(seed + 0)\n"))
        diff = run_flow(LintSession([str(root)]), diff_rev="HEAD",
                        repo_root=str(root))
        assert diff.changed_functions == ["pkg.helper.apply"]
        # reverse call graph pulls the caller's file back in
        analyzed = {os.path.basename(p) for p in diff.analyzed_files}
        assert {"helper.py", "caller.py"} <= analyzed
        assert len(diff.analyzed_files) < diff.total_files

    def test_untouched_tree_analyzes_nothing(self, git_project):
        diff = run_flow(LintSession([str(git_project)]), diff_rev="HEAD",
                        repo_root=str(git_project))
        assert diff.analyzed_files == []
        assert diff.findings == []

    def test_cli_diff_flag(self, git_project, capsys, monkeypatch):
        monkeypatch.chdir(git_project)
        source = (git_project / "caller.py").read_text()
        (git_project / "caller.py").write_text(source.replace(
            "return apply(str, seed)",
            "return apply(np.random.default_rng, seed)"))
        assert main(["lint", "--flow", "--diff", "HEAD", "."]) == 1
        assert "RL101" in capsys.readouterr().out
