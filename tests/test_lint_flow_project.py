"""Unit tests for the flow engine's project layer.

Covers per-file fact extraction (the vexpr mini-IR), the
:class:`ProjectIndex` name resolution (aliases, re-exports, methods),
call-graph construction, Tarjan SCC ordering, and the bottom-up
function summaries.
"""

from repro.lint.framework import build_context
from repro.lint.flow import FlowAnalysis
from repro.lint.project import (CallSite, ProjectIndex, build_call_graph,
                                strongly_connected_components)
from repro.lint.summaries import extract_module_facts


def facts_of(source, module, path=None):
    context = build_context(source, path or f"{module.replace('.', '/')}.py")
    return extract_module_facts(context, module=module)


def index_of(*modules):
    index = ProjectIndex()
    for source, module in modules:
        index.add(facts_of(source, module))
    return index


class TestExtraction:
    def test_function_facts_capture_params_and_calls(self):
        facts = facts_of(
            "def solve(a, b, *, tol=1e-9):\n"
            "    return helper(a, tol)\n",
            "pkg.mod",
        )
        fn = facts.functions["solve"]
        assert fn.params == ["a", "b"]
        assert fn.kwonly == ["tol"]
        assert fn.required == 2
        assert len(fn.calls) == 1
        # `helper` is not a local, so it lowers to a module-level ref
        assert fn.calls[0][1] == ["ref", "helper"]

    def test_import_tables_bind_the_local_name(self):
        facts = facts_of(
            "import numpy as np\n"
            "import os.path\n"
            "import xml.dom as dom\n"
            "from pkg.other import thing\n",
            "pkg.mod",
        )
        assert facts.imports_modules == {"np": "numpy", "os": "os",
                                         "dom": "xml.dom"}
        assert facts.imports_objects == {"thing": "pkg.other.thing"}

    def test_annotations_are_not_value_flow(self):
        # `x: np.random.Generator` must not read as an RNG reference
        facts = facts_of(
            "import numpy as np\n"
            "def f(x):\n"
            "    g: np.random.Generator = x\n"
            "    return g\n",
            "pkg.mod",
        )
        assert facts.functions["f"].calls == []

    def test_every_call_lands_in_exactly_one_function(self):
        source = (
            "@deco(a())\n"
            "def f(x=b()) -> c():\n"
            "    class Local:\n"
            "        y = d()\n"
            "    def g(z=e()):\n"
            "        return h()\n"
            "class C(base()):\n"
            "    attr = i()\n"
            "    @property\n"
            "    def v(self):\n"
            "        return j()\n"
            "    @v.setter\n"
            "    def v(self, new):\n"
            "        k()\n"
        )
        facts = facts_of(source, "pkg.mod")
        lines = {name: sorted(call[4] for call in fn.calls)
                 for name, fn in facts.functions.items()}
        assert lines == {"f": [4, 5, 6], "C.v": [14],
                         "<module>": [1, 1, 2, 2, 7, 8, 11]}


class TestProjectIndex:
    def test_resolve_through_import_alias(self):
        index = index_of(
            ("def helper(x):\n    return x\n", "pkg.util"),
            ("import pkg.util as u\n"
             "def caller(x):\n    return u.helper(x)\n", "pkg.main"),
        )
        assert index.resolve("pkg.main", "u.helper") == "pkg.util.helper"

    def test_resolve_through_reexport_chain(self):
        index = index_of(
            ("def deep(x):\n    return x\n", "pkg.impl"),
            ("from pkg.impl import deep\n", "pkg"),
            ("from pkg import deep\n"
             "def caller(x):\n    return deep(x)\n", "app.main"),
        )
        assert index.resolve("app.main", "deep") == "pkg.impl.deep"

    def test_lookup_inherited_method(self):
        index = index_of(
            ("class Base:\n"
             "    def shared(self):\n        return 1\n", "pkg.base"),
            ("from pkg.base import Base\n"
             "class Child(Base):\n"
             "    def own(self):\n        return 2\n", "pkg.child"),
        )
        assert index.lookup_method("pkg.child.Child", "shared") is not None
        assert index.lookup_method("pkg.child.Child", "missing") is None

    def test_eval_constexpr_follows_refs(self):
        index = index_of(
            ("CORE = frozenset({'a', 'b'})\n", "pkg.schema"),
            ("from pkg.schema import CORE\n"
             "ALL = CORE\n", "pkg.use"),
        )
        assert index.eval_constexpr("pkg.use", ["ref", "ALL"]) \
            == {"a", "b"}


class TestCallGraph:
    def test_method_call_on_known_class_instance(self):
        index = index_of(
            ("class Engine:\n"
             "    def step(self):\n        return 1\n", "pkg.engine"),
            ("from pkg.engine import Engine\n"
             "def run():\n"
             "    e = Engine()\n"
             "    return e.step()\n", "pkg.main"),
        )
        graph = build_call_graph(index)
        targets = {site.target for site in graph["pkg.main.run"]}
        assert "pkg.engine.Engine.step" in targets

    def test_tarjan_orders_callees_before_callers(self):
        def edge(caller, target):
            return CallSite(caller=caller, target=target, call=["other"],
                            line=1, col=0, is_ctor=False)

        graph = {"a": [edge("a", "b")], "b": [edge("b", "c")],
                 "c": [edge("c", "b")], "d": []}
        sccs = strongly_connected_components(graph)
        flat = [sorted(scc) for scc in sccs]
        assert ["b", "c"] in flat
        # the cycle {b,c} must come before its caller a
        assert flat.index(["b", "c"]) < flat.index(["a"])


class TestSummaries:
    def _analysis(self, *modules):
        return FlowAnalysis([
            build_context(f"# repro-lint: package={module}\n{source}",
                          f"{module.replace('.', '/')}.py")
            for source, module in modules
        ])

    def test_rng_taint_propagates_through_helper_returns(self):
        analysis = self._analysis(
            ("import numpy as np\n"
             "def born():\n"
             "    return np.random.default_rng(0)\n"
             "def laundered():\n"
             "    return born()\n", "pkg.rng"),
        )
        assert "taint" in analysis.summary_of("pkg.rng.born").returns
        assert "taint" in analysis.summary_of("pkg.rng.laundered").returns

    def test_recursive_cycle_reaches_fixpoint(self):
        analysis = self._analysis(
            ("import numpy as np\n"
             "def ping(n):\n"
             "    if n:\n"
             "        return pong(n - 1)\n"
             "    return np.random.default_rng(0)\n"
             "def pong(n):\n"
             "    return ping(n)\n", "pkg.cycle"),
        )
        assert "taint" in analysis.summary_of("pkg.cycle.ping").returns
        # taint crosses the cycle to the mutual partner
        assert "taint" in analysis.summary_of("pkg.cycle.pong").returns
