"""Human, JSON, and SARIF renderings of lint findings.

The JSON schema (``version`` 2) is the artifact CI uploads::

    {
      "version": 2,
      "tool": "repro-lint",
      "files_checked": 124,
      "findings": [
        {"path": "...", "line": 10, "column": 4, "rule": "RL101",
         "message": "...", "snippet": "...", "severity": "error"}
      ],
      "counts": {"RL101": 1},
      "rules": {"RL101": {"title": "...", "rationale": "..."}}
    }

Version 2 added the per-finding ``severity`` field ("error" or
"warning"); version-1 consumers that ignore unknown keys keep working.

:func:`findings_to_sarif` emits a minimal SARIF 2.1.0 log (one run,
one ``tool.driver``) suitable for GitHub code-scanning upload; each
result carries a line-number-independent ``partialFingerprints`` entry
(:func:`finding_fingerprint`) so annotations survive rebases.  Both
machine formats list the metadata of every rule, RL007 included.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from collections.abc import Iterable, Sequence

from repro.lint.framework import Finding, rule_meta

__all__ = [
    "finding_fingerprint",
    "findings_to_json",
    "findings_to_sarif",
    "render_findings",
]

#: Schema version of the JSON report.
JSON_REPORT_VERSION = 2

#: SARIF constants for the generated log.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def finding_fingerprint(finding: Finding, root: str = ".") -> str:
    """Stable, line-number-independent fingerprint of one finding.

    Hashes the root-relative path, the rule id, the message, and the
    flagged snippet — but not the line number, so unrelated edits above
    a finding do not churn it.
    """
    try:
        rel = os.path.relpath(finding.path, root)
    except ValueError:  # different drive on windows
        rel = finding.path
    rel = rel.replace(os.sep, "/")
    payload = "|".join((rel, finding.rule, finding.message,
                        finding.snippet))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def render_findings(findings: Sequence[Finding],
                    files_checked: int | None = None) -> str:
    """The human report: one ``path:line:col: RULE message`` per finding.

    Ends with a one-line summary (``clean`` when there are none).
    """
    lines = [finding.format() for finding in findings]
    if findings:
        by_rule = Counter(finding.rule for finding in findings)
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(by_rule.items())
        )
        noun = "finding" if len(findings) == 1 else "findings"
        lines.append(f"{len(findings)} {noun} ({breakdown})")
    else:
        checked = (f" in {files_checked} files"
                   if files_checked is not None else "")
        lines.append(f"clean{checked}: no lint findings")
    return "\n".join(lines)


def findings_to_json(findings: Iterable[Finding],
                     files_checked: int = 0) -> dict[str, object]:
    """The machine-readable report dict (see module docstring)."""
    items = [finding.to_dict() for finding in findings]
    counts = Counter(str(item["rule"]) for item in items)
    return {
        "version": JSON_REPORT_VERSION,
        "tool": "repro-lint",
        "files_checked": int(files_checked),
        "findings": items,
        "counts": dict(sorted(counts.items())),
        "rules": rule_meta(),
    }


def findings_to_sarif(findings: Sequence[Finding],
                      root: str = ".") -> dict[str, object]:
    """A SARIF 2.1.0 log for ``findings``.

    Rules never mentioned by a finding are still listed so
    code-scanning UIs can show the full policy.
    """
    metadata = rule_meta()
    rule_ids = sorted(set(metadata) | {f.rule for f in findings})
    rule_index = {rule_id: index for index, rule_id in enumerate(rule_ids)}
    driver_rules = []
    for rule_id in rule_ids:
        meta = metadata.get(rule_id, {})
        driver_rules.append({
            "id": rule_id,
            "shortDescription": {
                "text": str(meta.get("title", rule_id)),
            },
            "fullDescription": {
                "text": str(meta.get("rationale", "")),
            },
        })
    results = []
    for finding in findings:
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error" if finding.severity == "error" else "warning",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.column + 1,
                        "snippet": {"text": finding.snippet},
                    },
                },
            }],
            "partialFingerprints": {
                "reproLint/v1": finding_fingerprint(finding, root),
            },
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro-lint",
                    "rules": driver_rules,
                },
            },
            "results": results,
        }],
    }
