"""The ``repro lint`` driver.

Every lint run parses each file once into a
:class:`~repro.lint.framework.LintContext`, runs every selected rule
over the parsed files, applies the suppression pragmas, and then audits
them (RL007).  :func:`lint_paths` and :func:`lint_source` are the two
entry points; the CLI calls :func:`lint_paths`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence

from repro.exceptions import ConfigurationError
from repro.lint.framework import (Finding, LintContext, audit_pragmas,
                                  build_context, select_rules)

__all__ = ["lint_paths", "lint_source"]


def _iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif not os.path.exists(path):
            raise ConfigurationError(f"cannot lint {path!r}: no such file")
        elif path.endswith(".py"):
            yield path


def _read_context(path: str) -> LintContext:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read {path}: {error}") from error
    return build_context(source, path)


def _lint_contexts(contexts: Sequence[LintContext],
                   select: Iterable[str] | None,
                   strict: bool) -> list[Finding]:
    """Run the selected rules over the files, then audit the pragmas."""
    rules = select_rules(select)
    by_path = {context.path: context for context in contexts}
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(contexts):
            context = by_path.get(finding.path)
            if context is None or not context.suppressions.is_suppressed(
                    finding.rule, finding.line):
                findings.append(finding)
    findings.extend(audit_pragmas(
        contexts, [rule.rule_id for rule in rules], strict=strict))
    findings.sort()
    return findings


def lint_paths(paths: Iterable[str],
               select: Iterable[str] | None = None,
               strict: bool = False) -> tuple[list[Finding], int]:
    """Lint files and directory trees in one run.

    Returns ``(findings, files_checked)``; the findings include the
    RL007 pragma audit (unused pragmas are errors when ``strict``).

    Raises
    ------
    ConfigurationError
        On unreadable/unparsable files, unknown paths or rules, or when
        the paths hold no Python file at all.
    """
    paths = list(paths)
    files = list(_iter_python_files(paths))
    if not files:
        raise ConfigurationError(
            f"no Python files to lint under {', '.join(map(repr, paths))}")
    contexts = [_read_context(path) for path in files]
    return _lint_contexts(contexts, select, strict), len(files)


def lint_source(source: str, path: str = "<string>",
                select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one source string as a one-file run.

    ``path`` is reported in findings and used to infer the package (a
    ``# repro-lint: package=...`` pragma overrides the inference);
    ``select`` optionally names the rule ids to run (default: all).

    Raises
    ------
    ConfigurationError
        If the source does not parse, or ``select`` names an unknown
        rule.
    """
    return _lint_contexts([build_context(source, path)], select,
                          strict=False)
