"""Fixture-driven tests for the rules, one fixture file at a time.

Each bad fixture under ``tests/lint_fixtures/`` violates exactly one
rule a known number of times; each good fixture shows the sanctioned
alternative and must lint clean.  Fixtures are linted as text — never
imported — so they are free to be as broken as the rules require.  The
``rl001_*`` and ``rl003_*`` fixtures are the cases of the retired
single-file RNG and emit-kind rules, now caught by RL101 and RL103.
"""

from __future__ import annotations

import os

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.framework import build_context

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def lint_fixture(name: str):
    findings, checked = lint_paths([os.path.join(FIXTURES, name)])
    assert checked == 1
    return findings


@pytest.mark.parametrize("name,rule,count", [
    ("rl001_bad.py", "RL101", 11),
    ("rl001_allowed_package.py", "RL101", 1),
    ("rl002_bad.py", "RL002", 4),
    ("rl003_bad.py", "RL103", 6),
    ("rl004_bad.py", "RL004", 3),
    ("rl005_bad.py", "RL005", 3),
    ("rl006_bad.py", "RL006", 3),
])
def test_bad_fixture_flags_only_its_rule(name, rule, count):
    findings = lint_fixture(name)
    assert [f.rule for f in findings] == [rule] * count


@pytest.mark.parametrize("name", [
    "rl001_good.py",
    "rl002_good.py", "rl002_out_of_scope.py",
    "rl003_good.py", "rl004_good.py",
    "rl005_good.py", "rl006_good.py",
])
def test_good_fixture_is_clean(name):
    assert lint_fixture(name) == []


def test_suppression_fixture_leaves_exactly_one_finding():
    findings = lint_fixture("suppressions.py")
    errors = [f for f in findings if f.severity == "error"]
    assert len(errors) == 1
    assert errors[0].rule == "RL101"
    assert "still_flagged" in errors[0].snippet
    # the two pragmas that match nothing are audited, as warnings
    assert [(f.rule, f.severity) for f in findings if f not in errors] \
        == [("RL007", "warning")] * 2


def test_only_the_unsanctioned_rng_module_function_is_flagged():
    (finding,) = lint_fixture("rl001_allowed_package.py")
    assert finding.line == 13  # in make(), not in seeded_generator()


class TestRetiredRuleCases:
    """Cases only the retired single-file RL001/RL003 used to catch."""

    def test_global_state_draw_outside_repro_is_flagged(self, tmp_path):
        target = tmp_path / "tool.py"
        target.write_text("import random\n\nx = random.random()\n")
        findings, __ = lint_paths([str(target)])
        assert [(f.rule, f.line) for f in findings] == [("RL101", 3)]

    def test_emit_kind_typo_in_a_lone_file_is_flagged(self, tmp_path):
        target = tmp_path / "emitter.py"
        target.write_text(
            "def trace(tracer):\n"
            "    tracer.emit('round_strat')\n"
        )
        findings, __ = lint_paths([str(target)])
        assert [(f.rule, f.line) for f in findings] == [("RL103", 2)]

    @pytest.mark.parametrize("name,lines", [
        ("rl001_bad.py", [11, 12, 13, 14, 15, 19, 24, 27, 34, 42, 49]),
        ("rl003_bad.py", [5, 9, 13, 17, 20, 24]),
    ])
    def test_calls_outside_function_bodies_are_flagged(self, name, lines):
        # defaults, decorators, annotations, class bodies, classes
        # nested in a function and shadowed methods run too; the
        # retired rules walked every call
        assert [f.line for f in lint_fixture(name)] == lines

    def test_default_rng_is_flagged_by_lint_source(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert [(f.rule, f.line) for f in lint_source(source)] \
            == [("RL101", 2)]


class TestRl001Details:
    def test_aliased_numpy_import_is_resolved(self):
        source = (
            "import numpy as banana\n"
            "rng = banana.random.default_rng(3)\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RL101"]

    def test_from_import_alias_is_resolved(self):
        source = (
            "from numpy.random import default_rng as mk\n"
            "rng = mk(3)\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RL101"]

    def test_function_local_import_is_resolved(self):
        source = (
            "def make():\n"
            "    import numpy as np\n"
            "    return np.random.default_rng(3)\n"
        )
        assert [(f.rule, f.line) for f in lint_source(source)] \
            == [("RL101", 3)]

    def test_module_import_alias_is_resolved(self):
        source = (
            "import numpy.random as npr\n"
            "rng = npr.default_rng(3)\n"
        )
        assert [(f.rule, f.line) for f in lint_source(source)] \
            == [("RL101", 2)]

    def test_function_local_import_alias_reference_is_flagged(self):
        source = (
            "def factory():\n"
            "    from numpy.random import default_rng as mk\n"
            "    return mk\n"
        )
        assert [(f.rule, f.line) for f in lint_source(source)] \
            == [("RL101", 3)]

    def test_annotations_are_not_references(self):
        # `x: np.random.Generator` names a type, not a stream
        source = (
            "import numpy as np\n"
            "def f(x: np.random.Generator) -> np.random.Generator:\n"
            "    g: np.random.Generator = x\n"
            "    return g\n"
        )
        assert lint_source(source) == []

    def test_unrelated_random_attribute_not_flagged(self):
        # A local object that merely *has* a .random() method.
        source = "rng = population.random()\n"
        assert lint_source(source) == []


class TestImportTable:
    def test_import_tables_bind_the_local_name(self):
        context = build_context(
            "import numpy as np\n"
            "import os.path\n"
            "import xml.dom as dom\n"
            "from pkg.other import thing\n",
            "pkg/mod.py",
        )
        assert context.imports == {"np": "numpy", "os": "os",
                                   "dom": "xml.dom",
                                   "thing": "pkg.other.thing"}

    def test_relative_import_resolves_against_the_package(self):
        context = build_context(
            "# repro-lint: package=repro.sim.engine\n"
            "from .rng import seeded_generator\n"
            "from ..obs import tracer\n",
            "engine.py",
        )
        assert context.imports == {
            "seeded_generator": "repro.sim.rng.seeded_generator",
            "tracer": "repro.obs.tracer",
        }


class TestRl002Details:
    def test_perf_counter_ns_flagged(self):
        source = (
            "# repro-lint: package=repro.bandits.fake\n"
            "import time\n"
            "t = time.perf_counter_ns()\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RL002"]

    def test_obs_package_is_whitelisted(self):
        source = "from time import perf_counter\nt = perf_counter()\n"
        findings = lint_source(source, path="src/repro/obs/timing.py")
        assert findings == []


class TestRl004Details:
    def test_chained_comparison_mixed_ops(self):
        source = (
            "# repro-lint: package=repro.verify.fake\n"
            "ok = 0.0 <= x == 1.0\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RL004"]

    def test_float_inequalities_are_fine(self):
        source = (
            "# repro-lint: package=repro.verify.fake\n"
            "ok = x < 1.0 <= y\n"
        )
        assert lint_source(source) == []


class TestRl005Details:
    def test_broad_handler_with_real_body_is_fine(self):
        source = (
            "# repro-lint: package=repro.faults.fake\n"
            "try:\n"
            "    risky()\n"
            "except Exception as error:\n"
            "    handle(error)\n"
        )
        assert lint_source(source) == []

    def test_docstring_only_body_is_trivial(self):
        source = (
            "# repro-lint: package=repro.faults.fake\n"
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    'tolerated'\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RL005"]


class TestRl006Details:
    def test_keyword_lambda_flagged(self):
        source = "spec = TaskSpec(payload=1, runner=lambda: 2)\n"
        assert [f.rule for f in lint_source(source)] == ["RL006"]

    def test_module_level_function_reference_is_fine(self):
        source = (
            "def runner():\n"
            "    return 1\n"
            "spec = TaskSpec(payload=1, runner=runner)\n"
        )
        assert lint_source(source) == []
