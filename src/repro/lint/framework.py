"""Core machinery of the ``repro.lint`` static analyser.

The framework is deliberately small: one :class:`LintRule` registry, a
:class:`LintContext` describing one source file (its AST, raw lines,
inferred package, import table, and suppression table), and the pragma
audit.  The driver in :mod:`repro.lint.driver` parses each file once
and runs every registered rule over the parsed files.  Every rule reads
one file at a time; RL103 also totals the kinds it saw across them.

Pragma syntax
-------------
A finding is suppressed when the flagged line carries a comment of the
form ``# repro-lint: disable=RL101``.  The ids are comma-separated
``RLnnn`` or ``all`` tokens; any text after them is the justification,
e.g. ``# repro-lint: disable=RL101, RL002 -- seeded upstream``.  A
whole file opts out of one rule with ``# repro-lint: disable-file=RL101``
on any line.  Fixture files may also override the inferred package with
``# repro-lint: package=repro.sim`` so package-scoped rules can be
exercised from paths outside ``src/repro``.

The pragma audit (rule ``RL007``, see :func:`audit_pragmas`) reports
every ``disable=`` id that names no registered rule as an error, and
every suppression that never matched a finding as a warning (an error
under ``--strict-pragmas``), so stale comments cannot hide regressions.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "FileRule",
    "Finding",
    "LintContext",
    "LintRule",
    "ORPHAN_PRAGMA_RULE",
    "all_rules",
    "audit_pragmas",
    "dotted_name",
    "get_rule",
    "register_rule",
    "rule_meta",
    "select_rules",
]

#: ``# repro-lint: <directive>=<ids>`` comment; text after the
#: comma-separated id list is a free-form justification.
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<directive>disable-file|disable|package)"
    r"\s*=\s*(?P<value>[\w.]+(?:\s*,\s*[\w.]+)*)"
)

#: Rule id under which pragma-audit findings are reported.
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
        self.package_override: str | None = None
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
            items = [item.strip() for item in match.group("value").split(",")]
            if directive == "package":
                self.package_override = items[0]
            else:
                scope = _FILE_SCOPE if directive == "disable-file" else lineno
                for rule in items:
                    self.entries.setdefault((scope, rule.upper()), lineno)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is disabled at ``line`` (1-based).

        Matching pragma entries are recorded as *used* so the audit can
        later report the orphaned ones (``RL007``).
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


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_table(tree: ast.AST, package: str, path: str) -> dict[str, str]:
    """``local name -> dotted target`` for every import in the file.

    Function-local imports count too.  ``import a.b`` binds ``a``,
    ``import a.b as c`` binds ``c`` to ``a.b``, and a relative ``from``
    import is resolved against the file's own package.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".") if package else []
                if os.path.basename(path) != "__init__.py":
                    parts = parts[:-1]
                anchor = ".".join(parts[:len(parts) - (node.level - 1)])
                base = ".".join(filter(None, (anchor, node.module)))
            if not base:
                continue
            for alias in node.names:
                if alias.name != "*":
                    table[alias.asname or alias.name] = f"{base}.{alias.name}"
    return table


@dataclass
class LintContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.AST
    package: str
    suppressions: _Suppressions
    #: ``local name -> dotted target`` of the file's imports.
    imports: dict[str, str] = field(default_factory=dict)

    def resolve_import(self, dotted: str) -> str | None:
        """``dotted`` spelled out through this file's imports.

        ``np.random.rand`` becomes ``numpy.random.rand`` under ``import
        numpy as np``, and ``pc`` becomes ``time.perf_counter`` under
        ``from time import perf_counter as pc``; a name whose head is
        not imported is None.
        """
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file lives under any of the dotted ``prefixes``."""
        return any(
            self.package == prefix or self.package.startswith(prefix + ".")
            for prefix in prefixes
        )

    def snippet_at(self, lineno: int) -> str:
        """Source line ``lineno`` (1-based), stripped (for reports)."""
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""


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
                       package=package, suppressions=suppressions,
                       imports=_import_table(tree, package, path))


class LintRule:
    """Base class for one named check.

    Subclasses set :attr:`rule_id` / :attr:`title` / :attr:`rationale`
    and implement :meth:`check` over the parsed files, yielding
    :class:`Finding`\\ s (the driver applies suppressions afterwards, so
    rules never need to).
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, contexts: Sequence[LintContext]) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, context: LintContext, node: ast.AST,
                message: str) -> Finding:
        """A :class:`Finding` for ``node`` in ``context``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            path=context.path,
            line=line,
            column=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            snippet=context.snippet_at(line),
        )


class FileRule(LintRule):
    """A rule that looks at one file at a time (:meth:`check_file`)."""

    def check(self, contexts: Sequence[LintContext]) -> Iterable[Finding]:
        for context in contexts:
            yield from self.check_file(context)

    def check_file(self, context: LintContext) -> Iterable[Finding]:
        raise NotImplementedError


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


def select_rules(select: Iterable[str] | None) -> tuple[LintRule, ...]:
    """The rules named by ``select`` (default: every registered rule)."""
    if select is None:
        return all_rules()
    return tuple(get_rule(rule_id) for rule_id in select)


def rule_meta() -> dict[str, dict[str, str]]:
    """Title and rationale of every rule, the RL007 audit included."""
    meta = {rule.rule_id: {"title": rule.title,
                           "rationale": rule.rationale}
            for rule in all_rules()}
    meta[ORPHAN_PRAGMA_RULE] = {
        "title": "unknown or unused suppression pragma",
        "rationale": ("a disable= pragma that names no rule or matches no "
                      "finding hides future regressions at that site"),
    }
    return dict(sorted(meta.items()))


def audit_pragmas(contexts: Sequence[LintContext],
                  executed_rules: Iterable[str],
                  strict: bool = False) -> list[Finding]:
    """RL007 findings for unknown and unused suppression pragmas.

    A ``disable=`` id that names no registered rule is always an error.
    An unused entry is audited only if its rule ran (``disable=all``
    only when every registered rule ran); it is a warning, or an error
    when ``strict``.
    """
    executed = {rule_id.upper() for rule_id in executed_rules}
    registered = set(_REGISTRY)
    audit_all = registered <= executed
    findings: list[Finding] = []
    for context in contexts:
        for (scope, rule), (lineno, used) in \
                context.suppressions.inventory().items():
            where = "file-wide" if scope == _FILE_SCOPE else f"line {scope}"
            if rule != "ALL" and rule not in registered:
                known = ", ".join(sorted(registered))
                message = (f"unknown rule id {rule!r} in suppression pragma "
                           f"({where}); known: {known}")
                severity = "error"
            else:
                audited = audit_all if rule == "ALL" else rule in executed
                if used or not audited:
                    continue
                message = (f"unused suppression pragma: disable={rule} "
                           f"({where}) never matched a finding")
                severity = "error" if strict else "warning"
            findings.append(Finding(
                path=context.path, line=lineno, column=0,
                rule=ORPHAN_PRAGMA_RULE, message=message,
                snippet=context.snippet_at(lineno), severity=severity,
            ))
    return findings
