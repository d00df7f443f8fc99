"""Mutation meta-tests for the whole-program flow rules RL101-RL104.

Each test copies the clean fixture project from
``tests/lint_fixtures/flow/<rule>/`` into a temp directory, applies a
small realistic source mutation (the defect class the rule exists
for), and asserts the rule reports it — proving detection *power*, not
just silence on good code.  A first pass on the unmutated copy pins
the clean baseline every time.
"""

import os
import shutil

import pytest

from repro.lint.framework import LintSession
from repro.lint.flow import run_flow

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures", "flow")


def flow_findings(paths):
    return run_flow(LintSession(paths)).findings


@pytest.fixture
def project(tmp_path):
    """Copy one fixture project; return (root, mutate, findings)."""

    state = {}

    def load(sub):
        dst = tmp_path / sub
        shutil.copytree(os.path.join(FIXTURES, sub), dst)
        state["root"] = str(dst)
        assert flow_findings([str(dst)]) == [], "fixture must start clean"
        return str(dst)

    def mutate(fname, old, new):
        target = os.path.join(state["root"], fname)
        with open(target, encoding="utf-8") as handle:
            source = handle.read()
        assert old in source, f"mutation anchor {old!r} missing in {fname}"
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(source.replace(old, new))

    def findings(rule=None):
        found = flow_findings([state["root"]])
        if rule is not None:
            found = [f for f in found if f.rule == rule]
        return found

    return load, mutate, findings


class TestRL101RngTaint:
    def test_local_alias_launders_past_single_file_rule(self, project):
        load, mutate, findings = project
        load("rl101")
        # the aliased call is exactly what RL001's direct-call pattern
        # cannot see — RL101's env resolution must still catch it
        mutate("launder.py", "return invoke(str, seed)",
               "ctor = np.random.default_rng\n    return ctor(seed)")
        (finding,) = findings("RL101")
        assert "raw constructor" in finding.message
        assert finding.path.endswith("launder.py")

    def test_constructor_passed_to_invoking_helper(self, project):
        load, mutate, findings = project
        load("rl101")
        mutate("launder.py", "return invoke(str, seed)",
               "return invoke(np.random.default_rng, seed)")
        (finding,) = findings("RL101")
        assert "parameter 'factory'" in finding.message
        assert "repro.quality.launder.invoke" in finding.message


class TestRL102KernelPurity:
    def test_mutating_non_out_parameter(self, project):
        load, mutate, findings = project
        load("rl102")
        mutate("kernels.py", "np.multiply(values, _SCALE, out=out)",
               "values[:] = values * _SCALE")
        found = findings("RL102")
        messages = " | ".join(f.message for f in found)
        assert "mutates parameter 'values'" in messages
        # the caller forwarding its own parameter into the mutator is
        # flagged too — the summary propagated bottom-up
        assert "passes parameter 'values'" in messages

    def test_module_state_write_propagates_to_callers(self, project):
        load, mutate, findings = project
        load("rl102")
        mutate("kernels.py", "_SCALE = 2.0", "_SCALE = 2.0\n_HISTORY = []")
        mutate("kernels.py", "    np.multiply(values, _SCALE, out=out)",
               "    _HISTORY.append(float(values[0]))\n"
               "    np.multiply(values, _SCALE, out=out)")
        found = findings("RL102")
        messages = " | ".join(f.message for f in found)
        assert "writes module-level state '_HISTORY'" in messages
        assert "calls impure repro.kernels.fixture.scale_into" in messages


class TestRL103EventKinds:
    def test_invalid_kind_through_wrapper(self, project):
        load, mutate, findings = project
        load("rl103")
        mutate("emitters.py", '"round_end"', '"round_endd"')
        messages = " | ".join(f.message for f in findings("RL103"))
        assert ("event kind 'round_endd' reaches Tracer.emit through "
                "repro.sim.emitters.forward") in messages
        # the typo also orphans the real kind
        assert "'round_end' is declared in EVENT_KINDS" in messages

    def test_dead_kind_detected_at_schema_site(self, project):
        load, mutate, findings = project
        load("rl103")
        mutate("events.py", '"trade_settled",',
               '"trade_settled",\n    "never_emitted",')
        (finding,) = findings("RL103")
        assert "dead kind" in finding.message
        assert finding.path.endswith("events.py")

    def test_invalid_trace_event_construction(self, project):
        load, mutate, findings = project
        load("rl103")
        mutate("emitters.py", 'TraceEvent("trade_settled")',
               'TraceEvent("trade_setled")')
        messages = " | ".join(f.message for f in findings("RL103"))
        assert "TraceEvent constructed with kind 'trade_setled'" in messages


class TestRL104SchemaSymmetry:
    def test_written_key_never_read(self, project):
        load, mutate, findings = project
        load("rl104")
        mutate("persist.py", '"version": _schema_version(),',
               '"version": _schema_version(),\n        "extra": 0,')
        (finding,) = findings("RL104")
        assert "key 'extra' written by save_state is never read" \
            in finding.message

    def test_required_key_never_written(self, project):
        load, mutate, findings = project
        load("rl104")
        mutate("persist.py", 'counts = payload["counts"]',
               'counts = payload["counts"]\n    ghost = payload["ghost"]')
        (finding,) = findings("RL104")
        assert "requires key 'ghost'" in finding.message

    def test_defaulted_read_is_not_required(self, project):
        load, mutate, findings = project
        load("rl104")
        # dropping the saver's "version" key is fine: the loader
        # defaults it via .get(..., 0)
        mutate("persist.py", '        "version": _schema_version(),\n', "")
        assert findings("RL104") == []


class TestSuppression:
    def test_flow_finding_suppressed_by_pragma(self, project):
        load, mutate, findings = project
        load("rl101")
        mutate("launder.py", "return invoke(str, seed)",
               "ctor = np.random.default_rng\n"
               "    return ctor(seed)  # repro-lint: disable=RL101")
        assert findings("RL101") == []
