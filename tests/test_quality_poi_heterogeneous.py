"""Tests for the per-PoI heterogeneous quality model (Def.-3 remark)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.quality.distributions import PoiHeterogeneousQuality

MEANS = np.array([0.3, 0.5, 0.7])
L = 6


def make_model(**kwargs) -> PoiHeterogeneousQuality:
    defaults = dict(means=MEANS, num_pois=L, poi_sigma=0.15, sigma=0.02,
                    offset_seed=1)
    defaults.update(kwargs)
    return PoiHeterogeneousQuality(**defaults)


class TestConstruction:
    def test_rejects_bad_num_pois(self):
        with pytest.raises(ConfigurationError, match="num_pois"):
            make_model(num_pois=0)

    def test_rejects_bad_sigmas(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            make_model(sigma=0.0)
        with pytest.raises(ConfigurationError, match="sigma"):
            make_model(poi_sigma=-0.1)

    def test_offsets_centred_per_seller(self):
        model = make_model()
        np.testing.assert_allclose(
            model.poi_offsets.mean(axis=1), 0.0, atol=1e-12
        )

    def test_offsets_deterministic_by_seed(self):
        a = make_model(offset_seed=5)
        b = make_model(offset_seed=5)
        np.testing.assert_array_equal(a.poi_offsets, b.poi_offsets)
        c = make_model(offset_seed=6)
        assert not np.array_equal(a.poi_offsets, c.poi_offsets)


class TestObserve:
    def test_shape_and_range(self, rng):
        model = make_model()
        out = model.observe(rng, np.array([0, 2]), num_pois=L)
        assert out.shape == (2, L)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_rejects_mismatched_num_pois(self, rng):
        model = make_model()
        with pytest.raises(ConfigurationError, match="materialised"):
            model.observe(rng, np.array([0]), num_pois=L + 1)

    def test_per_poi_means_differ(self):
        # The remark: q_{i,l'} may not equal q_{i,l}.
        model = make_model(poi_sigma=0.2)
        per_poi = model.poi_means(1)
        assert per_poi.std() > 0.01

    def test_per_seller_mean_stays_at_q(self, rng):
        # Centred offsets: averaging over PoIs recovers q_i (up to the
        # [0,1] clipping of observations).
        model = make_model(poi_sigma=0.08, sigma=0.01)
        out = model.observe(np.random.default_rng(0),
                            np.repeat(np.arange(3), 400), num_pois=L)
        seller_means = out.reshape(3, 400, L).mean(axis=(1, 2))
        np.testing.assert_allclose(seller_means, MEANS, atol=0.02)

    def test_learning_still_converges(self):
        # CMAB-HS's per-seller learning remains well-posed under PoI
        # heterogeneity: estimates converge to q_i.
        from repro.bandits.policies import UCBPolicy
        from repro.entities.seller import SellerPopulation
        from repro.runtime import MarketRuntime
        from repro.sim import SimulationConfig

        qualities = np.array([0.85, 0.6, 0.35, 0.15])
        model = PoiHeterogeneousQuality(qualities, num_pois=5,
                                        poi_sigma=0.1, sigma=0.05,
                                        offset_seed=2)
        config = SimulationConfig(num_sellers=qualities.size,
                                  num_selected=2, num_pois=5,
                                  num_rounds=800, seed=4)
        runtime = MarketRuntime(
            config, UCBPolicy(),
            population=SellerPopulation.from_arrays(
                qualities, np.ones_like(qualities),
                np.zeros_like(qualities)),
            quality_model=model,
        )
        runtime.run()
        np.testing.assert_allclose(runtime.learning_state.means, qualities,
                                   atol=0.08)
