"""End-to-end tests for ``repro lint``: the CLI surface, SARIF
emission, and ``--strict-pragmas``.
"""

import json

from repro.cli import main

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
    def test_default_run_includes_whole_program_rules(self, tmp_path,
                                                      capsys):
        write_project(tmp_path, {"tainted.py": TAINTED})
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out

    def test_sarif_format(self, tmp_path, capsys):
        write_project(tmp_path, {"tainted.py": TAINTED})
        report_path = tmp_path / "out.sarif"
        assert main(["lint", "--format", "sarif",
                     "--report", str(report_path), str(tmp_path)]) == 1
        stdout_sarif = json.loads(capsys.readouterr().out)
        file_sarif = json.loads(report_path.read_text())
        assert stdout_sarif == file_sarif
        assert file_sarif["version"] == "2.1.0"
        (run,) = file_sarif["runs"]
        assert {r["ruleId"] for r in run["results"]} == {"RL101"}
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        # every run lists the full policy
        assert {"RL002", "RL101", "RL103", "RL007"} <= rule_ids

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
        for rule_id in ("RL002", "RL007", "RL101", "RL103"):
            assert rule_id in out

    def test_unknown_flow_rule_is_a_cli_error(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "--select", "RL999"]) == 1
        assert "unknown lint rule" in capsys.readouterr().err
