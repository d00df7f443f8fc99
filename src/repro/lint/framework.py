"""Core machinery of the ``repro.lint`` static analyser.

The framework is deliberately small: a :class:`LintRule` registry, a
:class:`LintContext` describing one source file (its AST, raw lines,
inferred package, and suppression table), and a :class:`LintSession`
driver that parses each file exactly once per run and shares the
parsed contexts between the classic single-file rules and the
whole-program flow engine (:mod:`repro.lint.flow`).

Pragma syntax
-------------
A finding is suppressed when the flagged line carries a comment of the
form ``# repro-lint: disable=RL001`` (several ids comma-separated, or
``all``).  A whole file opts out of one rule with
``# repro-lint: disable-file=RL001`` on any line.  Fixture files may
also override the inferred package with ``# repro-lint:
package=repro.sim`` so package-scoped rules can be exercised from
paths outside ``src/repro``.

One further directive annotates rather than suppresses and is consumed
by the flow rules: ``# repro-lint: mutates=out,scratch`` on (or above)
a ``def`` line declares parameters a kernel is allowed to write through
(RL102).

Suppression pragmas that never match a finding are themselves
reported (rule ``RL007``) so stale ``disable=`` comments cannot hide
regressions silently; see :meth:`LintSession.orphan_findings`.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "Finding",
    "LintContext",
    "LintRule",
    "LintSession",
    "ORPHAN_PRAGMA_RULE",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
]

#: ``# repro-lint: <directive>`` comment, e.g. ``disable=RL001,RL004``.
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<directive>disable-file|disable|package"
    r"|mutates)\s*=\s*"
    r"(?P<value>[A-Za-z0-9_.,\s-]+)"
)

#: Rule id under which unused suppression pragmas are reported.
ORPHAN_PRAGMA_RULE = "RL007"

#: Scope key used for file-level pragma entries in inventories.
_FILE_SCOPE = 0


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    snippet: str = field(default="", compare=False)
    severity: str = field(default="error", compare=False)

    def format(self) -> str:
        """The conventional ``path:line:col: RULE message`` line."""
        location = f"{self.path}:{self.line}:{self.column + 1}"
        text = f"{location}: {self.rule} {self.message}"
        if self.severity != "error":
            text = f"{location}: {self.rule} [{self.severity}] {self.message}"
        if self.snippet:
            text += f"\n    {self.snippet}"
        return text

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form consumed by the JSON reporter."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "severity": self.severity,
        }


class _Suppressions:
    """Per-file pragma table parsed from ``# repro-lint:`` comments."""

    def __init__(self, source: str) -> None:
        self.line_rules: dict[int, set[str]] = {}
        self.file_rules: set[str] = set()
        self.package_override: str | None = None
        #: ``lineno -> declared mutable parameter names`` (``mutates=``).
        self.mutates: dict[int, tuple[str, ...]] = {}
        #: ``(scope, rule) -> pragma lineno`` for every suppression
        #: entry; ``scope`` is the target line, or ``_FILE_SCOPE`` for
        #: ``disable-file``.
        self.entries: dict[tuple[int, str], int] = {}
        self._used: set[tuple[int, str]] = set()
        for lineno, comment in _iter_comments(source):
            match = _PRAGMA.search(comment)
            if match is None:
                continue
            directive = match.group("directive")
            value = match.group("value").strip()
            if directive == "package":
                self.package_override = value
                continue
            if directive == "mutates":
                self.mutates[lineno] = tuple(
                    item.strip() for item in value.split(",") if item.strip()
                )
                continue
            rules = {item.strip().upper() for item in value.split(",")
                     if item.strip()}
            if directive == "disable-file":
                self.file_rules |= rules
                for rule in rules:
                    self.entries.setdefault((_FILE_SCOPE, rule), lineno)
            else:
                self.line_rules.setdefault(lineno, set()).update(rules)
                for rule in rules:
                    self.entries.setdefault((lineno, rule), lineno)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is disabled at ``line`` (1-based).

        Matching pragma entries are recorded as *used* so the session
        can later report the orphaned ones (``RL007``).
        """
        suppressed = False
        for scope, entry_rule in ((_FILE_SCOPE, "ALL"), (_FILE_SCOPE, rule),
                                  (line, "ALL"), (line, rule)):
            if (scope, entry_rule) in self.entries:
                self._used.add((scope, entry_rule))
                suppressed = True
        return suppressed

    def inventory(self) -> dict[tuple[int, str], tuple[int, bool]]:
        """``(scope, rule) -> (pragma_lineno, used)`` for every entry."""
        return {key: (lineno, key in self._used)
                for key, lineno in self.entries.items()}

    def directive_for(self, start: int, end: int,
                      table: dict[int, object]) -> object | None:
        """The directive value attached to lines ``start..end`` if any.

        Used to bind ``mutates=`` pragmas to a ``def`` whose
        decorators may carry the comment.
        """
        for lineno in range(start, end + 1):
            if lineno in table:
                return table[lineno]
        return None


def _iter_comments(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, comment_text)`` for every comment in ``source``.

    Uses :mod:`tokenize` so string literals containing ``#`` never read
    as comments; a file that fails to tokenize yields nothing (the AST
    parse will surface the real syntax error).
    """
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return


def _infer_package(path: str) -> str:
    """Dotted package of ``path`` rooted at the ``repro`` directory.

    ``src/repro/sim/engine.py`` maps to ``repro.sim.engine``; paths not
    under a ``repro`` directory map to ``""`` (package-scoped rules
    then skip the file unless a ``package=`` pragma overrides).
    """
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts:
        return ""
    module_parts = parts[parts.index("repro"):]
    leaf = module_parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        module_parts = module_parts[:-1]
    else:
        module_parts = module_parts[:-1] + [leaf]
    return ".".join(module_parts)


@dataclass
class LintContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.AST
    package: str
    suppressions: _Suppressions

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file lives under any of the dotted ``prefixes``."""
        return any(
            self.package == prefix or self.package.startswith(prefix + ".")
            for prefix in prefixes
        )

    def snippet(self, node: ast.AST) -> str:
        """The first source line of ``node``, stripped (for reports)."""
        lineno = getattr(node, "lineno", None)
        if lineno is None or lineno > len(self.lines):
            return ""
        return self.lines[lineno - 1].strip()


def build_context(source: str, path: str) -> LintContext:
    """Parse ``source`` into a :class:`LintContext`.

    Raises
    ------
    ConfigurationError
        If the source does not parse.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise ConfigurationError(
            f"cannot lint {path}: {error.msg} (line {error.lineno})"
        ) from error
    suppressions = _Suppressions(source)
    package = suppressions.package_override
    if package is None:
        package = _infer_package(path)
    return LintContext(path=path, source=source, tree=tree,
                       package=package, suppressions=suppressions)


class LintRule:
    """Base class for one named check.

    Subclasses set :attr:`rule_id` / :attr:`title` / :attr:`rationale`
    and implement :meth:`check`, yielding :class:`Finding`\\ s (the
    driver applies suppressions afterwards, so rules never need to).
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, context: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, context: LintContext, node: ast.AST,
                message: str) -> Finding:
        """A :class:`Finding` for ``node`` in ``context``."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            snippet=context.snippet(node),
        )


_REGISTRY: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.rule_id:
        raise ConfigurationError(f"rule {cls.__name__} lacks a rule_id")
    if rule.rule_id in _REGISTRY:
        raise ConfigurationError(
            f"duplicate lint rule id {rule.rule_id!r}"
        )
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> tuple[LintRule, ...]:
    """Every registered rule, ordered by id."""
    return tuple(rule for __, rule in sorted(_REGISTRY.items()))


def get_rule(rule_id: str) -> LintRule:
    """The registered rule with this id.

    Raises
    ------
    ConfigurationError
        If no rule with ``rule_id`` exists.
    """
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown lint rule {rule_id!r} (known: {known})"
        ) from None


def _select_rules(select: Iterable[str] | None) -> tuple[LintRule, ...]:
    if select is None:
        return all_rules()
    return tuple(get_rule(rule_id) for rule_id in select)


def _check_context(context: LintContext,
                   rules: Sequence[LintRule]) -> list[Finding]:
    """Run ``rules`` over one parsed file, applying suppressions."""
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(context):
            if not context.suppressions.is_suppressed(finding.rule,
                                                      finding.line):
                findings.append(finding)
    return findings


def lint_source(source: str, path: str = "<string>",
                select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one source string, returning unsuppressed findings.

    Parameters
    ----------
    source:
        Python source text.
    path:
        Path reported in findings and used to infer the package (a
        ``# repro-lint: package=...`` pragma overrides the inference).
    select:
        Optional iterable of rule ids to run (default: all).

    Raises
    ------
    ConfigurationError
        If the source does not parse, or ``select`` names an unknown
        rule.
    """
    rules = _select_rules(select)
    findings = _check_context(build_context(source, path), rules)
    findings.sort()
    return findings


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


class LintSession:
    """One lint run: shared parsed files, classic rules, pragma audit.

    The session owns the file list and a parse cache so each file is
    read and parsed exactly once per run even when several analysis
    passes (classic rules, the flow engine, the orphan audit) need the
    same AST.
    """

    def __init__(self, paths: Iterable[str],
                 select: Iterable[str] | None = None,
                 on_file: Callable[[str], None] | None = None) -> None:
        self.rules = _select_rules(select)
        self.rule_ids = [rule.rule_id for rule in self.rules]
        self.full_rule_set = select is None
        self.files: list[str] = list(_iter_python_files(paths))
        self.on_file = on_file
        self._contexts: dict[str, LintContext] = {}
        #: ``path -> {(scope, rule): (pragma_lineno, used)}`` merged
        #: across the classic and flow passes.
        self._inventories: dict[str, dict[tuple[int, str],
                                          tuple[int, bool]]] = {}

    @property
    def files_checked(self) -> int:
        return len(self.files)

    def context(self, path: str) -> LintContext:
        """The parsed context for ``path`` (cached)."""
        cached = self._contexts.get(path)
        if cached is not None:
            return cached
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            raise ConfigurationError(
                f"cannot read {path}: {error}"
            ) from error
        context = build_context(source, path)
        self._contexts[path] = context
        return context

    def parsed(self, path: str) -> LintContext | None:
        """The already-parsed context for ``path``, if any (no I/O)."""
        return self._contexts.get(path)

    def contexts(self) -> Iterator[LintContext]:
        """Parsed contexts for every file in the session, in order."""
        for path in self.files:
            yield self.context(path)

    def run_classic(self) -> list[Finding]:
        """Run the registered single-file rules over every file.

        Finding order is deterministic: files are pre-sorted and
        findings are fully sorted before returning.
        """
        findings: list[Finding] = []
        for path in self.files:
            if self.on_file is not None:
                self.on_file(path)
            findings.extend(_check_context(self.context(path), self.rules))
        findings.sort()
        return findings

    # -- orphaned-pragma audit (RL007) --------------------------------

    def _merge_inventory(self, path: str,
                         inventory: dict[tuple[int, str],
                                         tuple[int, bool]]) -> None:
        merged = self._inventories.setdefault(path, {})
        for key, (lineno, used) in inventory.items():
            prev = merged.get(key)
            merged[key] = (lineno, used or (prev is not None and prev[1]))

    def merge_inventory(self, path: str,
                        suppressions: _Suppressions) -> None:
        """Fold an external pass's pragma usage into the audit."""
        self._merge_inventory(path, suppressions.inventory())

    def collect_usage(self) -> None:
        """Fold pragma usage from every parsed context into the audit."""
        for path, context in self._contexts.items():
            self._merge_inventory(path, context.suppressions.inventory())

    def orphan_findings(self, executed_rules: Iterable[str],
                        strict: bool = False) -> list[Finding]:
        """Findings for suppression pragmas that never fired.

        Only pragmas naming a rule in ``executed_rules`` are audited
        (a ``disable=RL101`` comment is not orphaned just because the
        flow pass was skipped); ``disable=all`` entries are audited
        only when the full rule set ran.  Orphans are warnings by
        default and errors under ``--strict-pragmas``.
        """
        self.collect_usage()
        executed = {rule_id.upper() for rule_id in executed_rules}
        # ``disable=all`` can only be judged orphaned when every
        # registered rule (classic and flow alike) actually ran.
        from repro.lint.rules_flow import all_flow_rules

        registered = {rule.rule_id for rule in _REGISTRY.values()}
        registered |= {rule.rule_id for rule in all_flow_rules()}
        audit_all = registered <= executed
        severity = "error" if strict else "warning"
        findings: list[Finding] = []
        for path in self.files:
            inventory = self._inventories.get(path, {})
            for (scope, rule), (lineno, used) in inventory.items():
                if used:
                    continue
                if rule == "ALL":
                    if not audit_all:
                        continue
                elif rule not in executed:
                    continue
                where = ("file-wide" if scope == _FILE_SCOPE
                         else f"line {scope}")
                findings.append(Finding(
                    path=path, line=lineno, column=0,
                    rule=ORPHAN_PRAGMA_RULE,
                    message=(f"unused suppression pragma: disable="
                             f"{rule} ({where}) never matched a finding"),
                    snippet="",
                    severity=severity,
                ))
        findings.sort()
        return findings


def lint_paths(paths: Iterable[str],
               select: Iterable[str] | None = None,
               on_file: Callable[[str], None] | None = None,
               ) -> tuple[list[Finding], int]:
    """Lint files and directory trees.

    Returns ``(findings, files_checked)``.  ``on_file`` (if given) is
    called with each path before it is linted — the CLI uses it for
    verbose progress.

    Raises
    ------
    ConfigurationError
        On unreadable/unparsable files or unknown paths or rules.
    """
    session = LintSession(paths, select=select, on_file=on_file)
    findings = session.run_classic()
    return findings, session.files_checked
