"""Tests for the repro.lint framework: suppressions, reporters, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.lint import (
    all_rules,
    findings_to_json,
    get_rule,
    lint_paths,
    lint_source,
    render_findings,
    rule_meta,
)
from repro.lint.framework import Finding, _infer_package
from repro.lint.reporters import JSON_REPORT_VERSION

RNG_LINE = "import numpy as np\nrng = np.random.default_rng()\n"


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ["RL002", "RL004", "RL005", "RL006",
                       "RL101", "RL103"]

    def test_rules_have_title_and_rationale(self):
        for rule in all_rules():
            assert rule.title
            assert rule.rationale

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("rl101").rule_id == "RL101"

    def test_get_rule_unknown_id(self):
        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            get_rule("RL999")

    def test_select_validates_before_running(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            lint_source("x = 1\n", select=["NOPE"])


class TestPackageInference:
    @pytest.mark.parametrize("path,package", [
        ("src/repro/sim/engine.py", "repro.sim.engine"),
        ("src/repro/sim/__init__.py", "repro.sim"),
        ("src/repro/__init__.py", "repro"),
        ("tests/lint_fixtures/rl001_bad.py", ""),
    ])
    def test_infer_package(self, path, package):
        assert _infer_package(path) == package

    def test_package_pragma_overrides_inference(self):
        source = (
            "# repro-lint: package=repro.game.fake\n"
            "ok = 1.0 == 2.0\n"
        )
        findings = lint_source(source, path="anywhere.py")
        assert [f.rule for f in findings] == ["RL004"]


class TestSuppressions:
    def test_line_pragma_suppresses_one_rule(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=RL101\n"
        )
        assert lint_source(source) == []

    def test_line_pragma_for_other_rule_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=RL002\n"
        )
        # the finding stands, and the pragma that matched nothing is
        # reported by the audit
        assert [f.rule for f in lint_source(source)] == ["RL007", "RL101"]

    def test_disable_all_on_line(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=all\n"
        )
        assert lint_source(source) == []

    def test_file_pragma_suppresses_everywhere(self):
        source = "# repro-lint: disable-file=RL101\n" + RNG_LINE
        assert lint_source(source) == []

    def test_pragma_inside_string_literal_is_ignored(self):
        source = (
            "s = '# repro-lint: disable-file=RL101'\n" + RNG_LINE
        )
        assert [f.rule for f in lint_source(source)] == ["RL101"]

    def test_justification_after_the_id_is_not_part_of_it(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro-lint: disable=RL101 - seeded upstream\n"
        )
        assert lint_source(source) == []

    def test_every_listed_id_applies_before_the_justification(self):
        source = (
            "# repro-lint: package=repro.sim.fake\n"
            "import time\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(int(time.time()))  "
            "# repro-lint: disable=RL101, RL002 -- legacy\n"
        )
        assert lint_source(source) == []

    @pytest.mark.parametrize("pragma", [
        "disable=RL001", "disable=RL999 -- typo", "disable-file=bogus",
    ])
    def test_unknown_id_is_an_rl007_error(self, pragma):
        source = f"x = 1  # repro-lint: {pragma}\n"
        (finding,) = lint_source(source)
        assert finding.rule == "RL007"
        assert finding.severity == "error"
        assert "unknown rule id" in finding.message

    def test_syntax_error_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot lint"):
            lint_source("def broken(:\n", path="broken.py")


class TestReporters:
    def _findings(self):
        return lint_source(RNG_LINE, path="demo.py")

    def test_human_report_lists_location_and_summary(self):
        report = render_findings(self._findings(), files_checked=1)
        assert "demo.py:2:7: RL101" in report
        assert report.endswith("1 finding (RL101=1)")

    def test_human_report_clean(self):
        report = render_findings([], files_checked=3)
        assert report == "clean in 3 files: no lint findings"

    def test_json_report_schema(self):
        report = findings_to_json(self._findings(), files_checked=1)
        assert report["version"] == JSON_REPORT_VERSION
        assert report["tool"] == "repro-lint"
        assert report["files_checked"] == 1
        assert report["counts"] == {"RL101": 1}
        (item,) = report["findings"]
        assert set(item) == {
            "path", "line", "column", "rule", "message", "snippet",
            "severity",
        }
        assert item["severity"] == "error"
        assert item["rule"] == "RL101"
        assert item["snippet"] == "rng = np.random.default_rng()"
        assert list(report["rules"]) == list(rule_meta())
        assert "RL007" in report["rules"]
        json.dumps(report)  # must be serialisable as-is

    def test_finding_format_includes_snippet(self):
        finding = Finding(path="p.py", line=3, column=4, rule="RL101",
                          message="msg", snippet="code here")
        assert finding.format() == "p.py:3:5: RL101 msg\n    code here"


class TestLintPaths:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such file"):
            lint_paths([str(tmp_path / "nope.py")])

    def test_counts_files_and_sorts_findings(self, tmp_path):
        (tmp_path / "b.py").write_text(RNG_LINE)
        (tmp_path / "a.py").write_text(RNG_LINE)
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text(RNG_LINE)
        findings, checked = lint_paths([str(tmp_path)])
        assert checked == 2  # __pycache__ skipped
        assert [f.path for f in findings] == [
            str(tmp_path / "a.py"), str(tmp_path / "b.py"),
        ]

    def test_no_python_files_raises(self, tmp_path):
        (tmp_path / "README.md").write_text("# notes\n")
        (tmp_path / "empty").mkdir()
        for target in (tmp_path / "README.md", tmp_path / "empty"):
            with pytest.raises(ConfigurationError,
                               match="no Python files to lint"):
                lint_paths([str(target)])


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "no lint findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(RNG_LINE)
        assert main(["lint", str(target)]) == 1
        assert "RL101" in capsys.readouterr().out

    def test_select_restricts_rules(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(RNG_LINE)
        assert main(["lint", str(target), "--select", "RL002,RL103"]) == 0

    def test_json_format_and_report_file(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(RNG_LINE)
        report_path = tmp_path / "report.json"
        assert main(["lint", str(target), "--format", "json",
                     "--report", str(report_path)]) == 1
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads(report_path.read_text())
        assert stdout_report == file_report
        assert file_report["counts"] == {"RL101": 1}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_meta():
            assert rule_id in out
        assert "RL001" not in out and "RL003" not in out

    def test_unknown_rule_is_a_cli_error(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "--select", "RL999"]) == 1
        assert "unknown lint rule" in capsys.readouterr().err

    def test_no_python_files_is_a_cli_error(self, tmp_path, capsys):
        target = tmp_path / "README.md"
        target.write_text("# notes\n")
        assert main(["lint", str(target)]) == 1
        assert "no Python files to lint" in capsys.readouterr().err
