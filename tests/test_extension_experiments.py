"""Structural tests for the fast extension-experiment runners.

The slow ones (ext-drift, ext-replication at full size) are exercised by
the benchmark suite; here the cheap runners are checked end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import Scale, list_experiments, run_experiment


class TestRegistryIncludesExtensions:
    def test_all_extension_ids_registered(self):
        ids = {experiment_id for experiment_id, __ in list_experiments()}
        assert {"ext-drift", "ext-poa", "ext-replication"} <= ids

    def test_extension_titles_marked(self):
        titles = dict(list_experiments())
        for experiment_id in ("ext-drift", "ext-poa", "ext-replication"):
            assert titles[experiment_id].startswith("EXTENSION"), (
                experiment_id
            )


class TestExtPoa:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext-poa", Scale.SMALL)

    def test_panels(self, result):
        assert set(result.panels) == {
            "welfare", "price_of_anarchy", "total_sensing_time",
        }

    def test_poa_at_least_one(self, result):
        poa = result.series("price_of_anarchy", "optimal / SE").y
        assert np.all(poa >= 1.0 - 1e-9)
        assert np.all(poa < 1.2)  # the mechanism is quite efficient

    def test_se_underprovides_time(self, result):
        se = result.series("total_sensing_time", "SE").y
        optimum = result.series("total_sensing_time", "social optimum").y
        assert np.all(optimum > se)
