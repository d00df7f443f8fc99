"""Unit tests for the simulation configuration and Table II."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.config import TABLE_II, SimulationConfig


class TestDefaults:
    def test_defaults_match_table_ii(self):
        config = SimulationConfig()
        assert config.num_rounds == TABLE_II["num_rounds"]["default"]
        assert config.num_sellers == TABLE_II["num_sellers"]["default"]
        assert config.num_selected == TABLE_II["num_selected"]["default"]
        assert config.omega == TABLE_II["omega"]["default"]
        assert config.theta == TABLE_II["theta"]["default"]
        assert config.lam == TABLE_II["lam"]["default"]
        assert config.num_pois == TABLE_II["num_pois"]["default"]

    def test_table_ii_sweep_values(self):
        assert TABLE_II["num_rounds"]["values"] == [
            5_000, 40_000, 80_000, 100_000, 120_000, 160_000, 200_000
        ]
        assert TABLE_II["num_sellers"]["values"] == [
            50, 100, 150, 200, 250, 300
        ]
        assert TABLE_II["num_selected"]["values"] == [
            10, 20, 30, 40, 50, 60
        ]
        assert TABLE_II["omega"]["values"] == [600, 800, 1_000, 1_200, 1_400]


class TestValidation:
    def test_rejects_k_above_m(self):
        with pytest.raises(ConfigurationError, match="num_selected"):
            SimulationConfig(num_sellers=5, num_selected=6)

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ConfigurationError, match="num_rounds"):
            SimulationConfig(num_rounds=0)

    def test_rejects_bad_theta(self):
        with pytest.raises(ConfigurationError, match="theta"):
            SimulationConfig(theta=0.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(ConfigurationError, match="omega"):
            SimulationConfig(omega=1.0)

    def test_rejects_zero_a_lower_bound(self):
        with pytest.raises(ConfigurationError, match="a_range"):
            SimulationConfig(a_range=(0.0, 0.5))

    def test_rejects_inverted_price_bounds(self):
        with pytest.raises(ConfigurationError, match="price_bounds"):
            SimulationConfig(service_price_bounds=(5.0, 1.0))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError, match="quality_sigma"):
            SimulationConfig(quality_sigma=0.0)

    def test_rejects_tau0_beyond_duration(self):
        with pytest.raises(ConfigurationError, match="initial_sensing_time"):
            SimulationConfig(initial_sensing_time=2.0, max_sensing_time=1.0)


class TestDerive:
    def test_derive_replaces_fields(self):
        base = SimulationConfig()
        derived = base.derive(num_rounds=500, omega=800.0)
        assert derived.num_rounds == 500
        assert derived.omega == 800.0
        assert derived.num_sellers == base.num_sellers

    def test_derive_validates(self):
        base = SimulationConfig()
        with pytest.raises(ConfigurationError):
            base.derive(num_rounds=-1)

    def test_derive_leaves_original_untouched(self):
        base = SimulationConfig()
        base.derive(num_rounds=500)
        assert base.num_rounds == TABLE_II["num_rounds"]["default"]
