"""Sanity checks on the public API surface.

Every name exported from a package's ``__all__`` must resolve and carry
a docstring — the contract a downstream user relies on.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.entities",
    "repro.game",
    "repro.bandits",
    "repro.quality",
    "repro.data",
    "repro.sim",
    "repro.extensions",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_has_docstring(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, package_name


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_and_functions_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, (
        f"{package_name}: missing docstrings on {undocumented}"
    )


def test_version_is_exposed():
    import repro

    assert repro.__version__
    major = int(repro.__version__.split(".")[0])
    assert major >= 1


def test_exception_hierarchy():
    from repro import exceptions

    assert issubclass(exceptions.ConfigurationError, exceptions.ReproError)
    assert issubclass(exceptions.GameError, exceptions.ReproError)
    assert issubclass(exceptions.InfeasibleStrategyError,
                      exceptions.GameError)
    assert issubclass(exceptions.EquilibriumViolationError,
                      exceptions.GameError)
    assert issubclass(exceptions.SelectionError, exceptions.ReproError)
    assert issubclass(exceptions.DataTraceError, exceptions.ReproError)
    assert issubclass(exceptions.ExperimentError, exceptions.ReproError)


def test_library_errors_catchable_with_one_except():
    import numpy as np

    from repro import ReproError, SellerPopulation
    from repro.sim import SimulationConfig

    with pytest.raises(ReproError):
        SimulationConfig(num_sellers=0)
    with pytest.raises(ReproError):
        SellerPopulation.random(0, np.random.default_rng(0))


def test_package_docstring_quickstart_executes():
    """The quickstart code in ``repro.__doc__`` must stay runnable."""
    import re

    import repro

    match = re.search(r"Quickstart::\n\n((?:    .*\n|\n)+)", repro.__doc__)
    assert match, "package docstring lost its Quickstart block"
    code = "\n".join(
        line[4:] if line.startswith("    ") else line
        for line in match.group(1).splitlines()
    )
    namespace: dict = {}
    exec(compile(code, "<docstring-quickstart>", "exec"), namespace)
    assert namespace["result"].num_rounds == 500


def test_top_level_reexports_cover_core_workflow():
    # The quickstart in the README must work from top-level imports only.
    import repro

    for name in ("CMABHSMechanism", "Consumer", "Platform", "Job",
                 "SellerPopulation", "SimulationConfig",
                 "TradingSimulator", "UCBPolicy", "verify_equilibrium",
                 "theorem19_bound"):
        assert hasattr(repro, name), name
