"""Mutation meta-tests for RL101 and RL103 on small fixture projects.

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

from repro.lint import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures", "flow")


def flow_findings(paths):
    return lint_paths(paths)[0]


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
        # the aliased call is not spelled through an import; the alias
        # itself is the finding
        mutate("launder.py", "return invoke(str, seed)",
               "ctor = np.random.default_rng\n    return ctor(seed)")
        (finding,) = findings("RL101")
        assert "raw constructor" in finding.message
        assert finding.path.endswith("launder.py")
        assert finding.snippet == "ctor = np.random.default_rng"

    def test_constructor_passed_to_invoking_helper(self, project):
        load, mutate, findings = project
        load("rl101")
        mutate("launder.py", "return invoke(str, seed)",
               "return invoke(np.random.default_rng, seed)")
        (finding,) = findings("RL101")
        assert "raw constructor numpy.random.default_rng" in finding.message
        assert finding.path.endswith("launder.py")

    def test_constructor_as_default_value(self, project):
        load, mutate, findings = project
        load("rl101")
        mutate("launder.py", "def make_stream(seed):",
               "def make_stream(seed, factory=np.random.default_rng):")
        (finding,) = findings("RL101")
        assert "raw constructor" in finding.message
        assert finding.snippet.startswith("def make_stream(")

    def test_constructor_as_return_value(self, project):
        load, mutate, findings = project
        load("rl101")
        mutate("launder.py", "return invoke(str, seed)",
               "return np.random.default_rng")
        (finding,) = findings("RL101")
        assert "raw constructor" in finding.message
        assert finding.snippet == "return np.random.default_rng"


class TestRL103EventKinds:
    def test_invalid_kind_through_wrapper(self, project):
        load, mutate, findings = project
        load("rl103")
        mutate("emitters.py", 'tracer.emit("round_end")',
               'forward(tracer, "round_end")')
        mutate("emitters.py", "def run_round(tracer):",
               "def forward(tracer, kind):\n"
               "    tracer.emit(kind)\n\n\n"
               "def run_round(tracer):")
        found = findings("RL103")
        (wrapper,) = [f for f in found if f.path.endswith("emitters.py")]
        assert "forwarding wrapper" in wrapper.message
        assert wrapper.snippet == "tracer.emit(kind)"
        # the wrapper hides the kind it forwards, so the kind goes dead
        (dead,) = [f for f in found if f.path.endswith("events.py")]
        assert "'round_end' is declared in EVENT_KINDS" in dead.message

    def test_literal_typo_orphans_the_declared_kind(self, project):
        load, mutate, findings = project
        load("rl103")
        mutate("emitters.py", '"round_end"', '"round_endd"')
        messages = " | ".join(f.message for f in findings("RL103"))
        assert ("emit kind 'round_endd' is not a member of "
                "EVENT_KINDS") in messages
        assert "'round_end' is declared in EVENT_KINDS" in messages

    def test_replaying_a_recorded_kind_stays_clean(self, project):
        load, mutate, findings = project
        load("rl103")
        mutate("emitters.py", "def run_round(tracer):",
               "def replay(tracer, events):\n"
               "    for event in events:\n"
               "        tracer.emit(event.kind, event.round_index)\n\n\n"
               "def run_round(tracer):")
        assert findings() == []

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


class TestSuppression:
    def test_flow_finding_suppressed_by_pragma(self, project):
        load, mutate, findings = project
        load("rl101")
        mutate("launder.py", "return invoke(str, seed)",
               "ctor = np.random.default_rng  # repro-lint: disable=RL101\n"
               "    return ctor(seed)")
        assert findings("RL101") == []
