"""Reporter, fingerprint, and pragma edge-case coverage.

The SARIF checks are structural (the container has no ``jsonschema``
package): they pin the exact invariants GitHub code scanning consumes
— schema URL, version, rule index consistency, region coordinates, and
stable partial fingerprints.
"""

import json

from repro.lint import (
    Finding,
    finding_fingerprint,
    findings_to_json,
    findings_to_sarif,
    lint_paths,
    lint_source,
    rule_meta,
)
from repro.lint.reporters import (JSON_REPORT_VERSION, SARIF_SCHEMA,
                                  SARIF_VERSION)


def sample_findings():
    return [
        Finding(path="src/a.py", line=3, column=4, rule="RL101",
                message="bad rng", snippet="rng = default_rng()"),
        Finding(path="src/b.py", line=9, column=0, rule="RL007",
                message="orphan pragma", snippet="", severity="warning"),
    ]


class TestJsonReport:
    def test_round_trips_through_json(self):
        report = findings_to_json(sample_findings(), files_checked=2)
        clone = json.loads(json.dumps(report))
        assert clone == report
        assert clone["version"] == JSON_REPORT_VERSION
        assert [item["severity"] for item in clone["findings"]] \
            == ["error", "warning"]


class TestSarif:
    def test_structure_matches_sarif_2_1_0(self):
        findings = sample_findings()
        sarif = findings_to_sarif(findings)
        assert sarif["$schema"] == SARIF_SCHEMA
        assert sarif["version"] == SARIF_VERSION == "2.1.0"
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        results = run["results"]
        assert len(results) == len(findings)
        for result, finding in zip(results, findings):
            # ruleIndex must point at the matching driver rule
            assert rule_ids[result["ruleIndex"]] == result["ruleId"] \
                == finding.rule
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] == finding.line
            # SARIF columns are 1-based; findings store 0-based
            assert region["startColumn"] == finding.column + 1
            assert result["partialFingerprints"]["reproLint/v1"] \
                == finding_fingerprint(finding)
        assert [r["level"] for r in results] == ["error", "warning"]
        json.dumps(sarif)  # must serialize as-is

    def test_every_registered_rule_is_listed(self):
        sarif = findings_to_sarif([])
        rule_ids = [rule["id"]
                    for rule in sarif["runs"][0]["tool"]["driver"]["rules"]]
        assert rule_ids == list(rule_meta())
        assert "RL101" in rule_ids and "RL007" in rule_ids


class TestFingerprint:
    def test_fingerprint_is_line_independent(self):
        a = sample_findings()[0]
        moved = Finding(path=a.path, line=a.line + 40, column=2,
                        rule=a.rule, message=a.message, snippet=a.snippet)
        assert finding_fingerprint(a) == finding_fingerprint(moved)
        other = Finding(path=a.path, line=a.line, column=a.column,
                        rule="RL002", message=a.message, snippet=a.snippet)
        assert finding_fingerprint(a) != finding_fingerprint(other)


RNG_CALL = "np.random.default_rng()"


class TestPragmaEdgeCases:
    def test_pragma_on_decorator_line_suppresses_def_line(self):
        source = (
            "import numpy as np\n"
            "def deco(f):\n"
            "    return f\n"
            "@deco  # repro-lint: disable=RL101\n"
            f"def f():\n"
            f"    return 1\n"
        )
        # the pragma sits on the decorator: a finding on that exact
        # line is suppressed, but the def body is not blanketed — with
        # nothing to match, the audit reports the pragma as unused
        findings = lint_source(source)
        assert [(f.rule, f.line, f.severity) for f in findings] \
            == [("RL007", 4, "warning")]

    def test_file_level_pragma_after_docstring(self):
        source = (
            '"""Module docstring spanning\n'
            'two lines."""\n'
            "# repro-lint: disable-file=RL101\n"
            "import numpy as np\n"
            f"rng = {RNG_CALL}\n"
        )
        assert lint_source(source) == []

    def test_line_pragma_only_covers_its_line(self):
        source = (
            "import numpy as np\n"
            f"a = {RNG_CALL}  # repro-lint: disable=RL101\n"
            f"b = {RNG_CALL}\n"
        )
        findings = lint_source(source)
        assert [f.line for f in findings] == [3]

    def test_pragma_inside_string_literal_is_inert(self):
        source = (
            "import numpy as np\n"
            'note = "# repro-lint: disable-file=RL101"\n'
            f"rng = {RNG_CALL}\n"
        )
        assert len(lint_source(source)) == 1

    def test_unused_pragma_reported_via_session(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # repro-lint: disable=RL004\n")
        orphans, __ = lint_paths([str(target)])
        assert [f.rule for f in orphans] == ["RL007"]
        assert orphans[0].severity == "warning"
        strict, __ = lint_paths([str(target)], strict=True)
        assert strict[0].severity == "error"

    def test_used_pragma_is_not_orphaned(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import numpy as np\n"
            f"rng = {RNG_CALL}  # repro-lint: disable=RL101\n"
        )
        assert lint_paths([str(target)]) == ([], 1)
