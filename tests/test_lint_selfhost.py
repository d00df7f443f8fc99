"""Self-hosting gate: the shipped source tree must lint clean.

Plus the mutation meta-test the linter exists for: injecting an
unseeded RNG construction into a copy of the engine must produce
exactly one RL001 finding — proving the gate would catch the exact
regression class it was built against, not just stay quiet on today's
clean tree.
"""

from __future__ import annotations

import os

from repro.lint import lint_paths

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src")
ENGINE = os.path.join(SRC, "repro", "sim", "engine.py")


def test_source_tree_lints_clean():
    findings, checked = lint_paths([SRC])
    assert checked > 90  # the whole package, not an accidental subset
    assert findings == [], "\n".join(f.format() for f in findings)


def test_source_tree_flow_lints_clean():
    """The whole-program rules (RL101-RL104) self-host clean too —
    including an empty orphan-pragma audit over the combined run."""
    from repro.lint.framework import LintSession
    from repro.lint.flow import run_flow
    from repro.lint.rules_flow import all_flow_rules

    session = LintSession([SRC])
    classic = session.run_classic()
    result = run_flow(session)
    assert classic == []
    assert result.findings == [], \
        "\n".join(f.format() for f in result.findings)
    executed = list(session.rule_ids) \
        + [rule.rule_id for rule in all_flow_rules()]
    orphans = session.orphan_findings(executed)
    assert orphans == [], "\n".join(f.format() for f in orphans)


def test_rng_module_is_the_only_construction_site():
    """The factory module itself constructs RNGs — and is exempt."""
    rng_path = os.path.join(SRC, "repro", "sim", "rng.py")
    source = open(rng_path, encoding="utf-8").read()
    assert "default_rng" in source  # it really does construct them
    findings, __ = lint_paths([rng_path])
    assert findings == []


class TestMutationMetaTest:
    """Copy engine.py, break it, and watch the linter notice."""

    def _engine_copy(self, tmp_path, extra: str = "") -> str:
        source = open(ENGINE, encoding="utf-8").read()
        target = tmp_path / "engine.py"
        target.write_text(source + extra)
        return str(target)

    def test_unmutated_copy_is_clean(self, tmp_path):
        findings, __ = lint_paths([self._engine_copy(tmp_path)],
                                  select=["RL001"])
        assert findings == []

    def test_injected_unseeded_rng_yields_exactly_one_rl001(self, tmp_path):
        mutation = "\n_rogue_rng = np.random.default_rng()\n"
        path = self._engine_copy(tmp_path, extra=mutation)
        findings, __ = lint_paths([path], select=["RL001"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "RL001"
        assert finding.snippet == "_rogue_rng = np.random.default_rng()"
        # The finding points at the injected line, not somewhere nearby.
        original_lines = open(ENGINE, encoding="utf-8").read().count("\n")
        assert finding.line == original_lines + 2

    def test_injected_wall_clock_needs_the_package_pragma(self, tmp_path):
        """RL002 is package-scoped: a stray copy outside repro.* is out
        of scope until the pragma pulls it back in."""
        mutation = "\nimport time\n_t0 = time.time()\n"
        unpragmaed = self._engine_copy(tmp_path, extra=mutation)
        findings, __ = lint_paths([unpragmaed], select=["RL002"])
        assert findings == []

        pragma = "# repro-lint: package=repro.sim.engine\n"
        source = open(ENGINE, encoding="utf-8").read()
        target = tmp_path / "engine_scoped.py"
        target.write_text(pragma + source + mutation)
        findings, __ = lint_paths([str(target)], select=["RL002"])
        assert [f.rule for f in findings] == ["RL002"]
