"""Unit tests for sellers and seller populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.entities.costs import QuadraticSellerCost
from repro.entities.seller import Seller, SellerPopulation
from repro.exceptions import ConfigurationError


def make_seller(quality=0.8, a=0.3, b=0.4, seller_id=0) -> Seller:
    return Seller(seller_id=seller_id, expected_quality=quality,
                  cost=QuadraticSellerCost(a=a, b=b))


class TestSeller:
    def test_rejects_zero_quality(self):
        with pytest.raises(ConfigurationError, match="expected_quality"):
            make_seller(quality=0.0)

    def test_rejects_quality_above_one(self):
        with pytest.raises(ConfigurationError, match="expected_quality"):
            make_seller(quality=1.5)

    def test_profit_matches_equation_5(self):
        seller = make_seller(a=0.3, b=0.4)
        p, tau, q_hat = 2.0, 1.5, 0.7
        cost = (0.3 * tau * tau + 0.4 * tau) * q_hat
        assert seller.profit(p, tau, q_hat) == pytest.approx(p * tau - cost)

    def test_best_response_matches_theorem_14(self):
        seller = make_seller(a=0.3, b=0.4)
        p, q_hat = 2.0, 0.7
        expected = (p - q_hat * 0.4) / (2.0 * q_hat * 0.3)
        assert seller.best_response(p, q_hat) == pytest.approx(expected)

    def test_best_response_maximises_profit(self):
        seller = make_seller()
        p, q_hat = 3.0, 0.6
        tau_star = seller.best_response(p, q_hat)
        best = seller.profit(p, tau_star, q_hat)
        for tau in np.linspace(0.0, 3.0 * tau_star + 1.0, 60):
            assert seller.profit(p, tau, q_hat) <= best + 1e-12

    def test_best_response_floors_at_zero_for_low_price(self):
        seller = make_seller(a=0.3, b=1.0)
        assert seller.best_response(0.05, 0.9) == 0.0


class TestSellerPopulation:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="empty"):
            SellerPopulation([])

    def test_len_and_getitem(self):
        sellers = [make_seller(seller_id=i, quality=0.5 + i / 10)
                   for i in range(3)]
        population = SellerPopulation(sellers)
        assert len(population) == 3
        assert population[1].expected_quality == pytest.approx(0.6)

    def test_iteration_order(self):
        sellers = [make_seller(seller_id=i) for i in range(4)]
        population = SellerPopulation(sellers)
        assert [s.seller_id for s in population] == [0, 1, 2, 3]

    def test_explicit_list_keeps_its_ids(self):
        sellers = [make_seller(seller_id=taxi, quality=0.3 + i / 10)
                   for i, taxi in enumerate((1042, 7, 311))]
        population = SellerPopulation(sellers)
        assert list(population) == sellers
        assert population[-1].seller_id == 311

    def test_array_views_match_objects(self):
        sellers = [make_seller(quality=0.4, a=0.2, b=0.3, seller_id=0),
                   make_seller(quality=0.9, a=0.5, b=0.1, seller_id=1)]
        population = SellerPopulation(sellers)
        np.testing.assert_allclose(population.expected_qualities, [0.4, 0.9])
        np.testing.assert_allclose(population.cost_a, [0.2, 0.5])
        np.testing.assert_allclose(population.cost_b, [0.3, 0.1])

    def test_array_views_readonly(self):
        population = SellerPopulation([make_seller()])
        with pytest.raises(ValueError):
            population.expected_qualities[0] = 0.1

    def test_top_k_by_quality(self):
        qualities = [0.3, 0.9, 0.5, 0.7]
        population = SellerPopulation(
            [make_seller(quality=q, seller_id=i)
             for i, q in enumerate(qualities)]
        )
        np.testing.assert_array_equal(population.top_k_by_quality(2), [1, 3])

    def test_top_k_tie_break_by_index(self):
        population = SellerPopulation(
            [make_seller(quality=0.5, seller_id=i) for i in range(4)]
        )
        np.testing.assert_array_equal(population.top_k_by_quality(2), [0, 1])

    def test_top_k_rejects_bad_k(self):
        population = SellerPopulation([make_seller()])
        with pytest.raises(ConfigurationError):
            population.top_k_by_quality(2)
        with pytest.raises(ConfigurationError):
            population.top_k_by_quality(0)


class TestRandomPopulation:
    def test_respects_parameter_ranges(self, rng):
        population = SellerPopulation.random(
            100, rng, a_range=(0.1, 0.5), b_range=(0.1, 1.0)
        )
        assert np.all(population.cost_a >= 0.1)
        assert np.all(population.cost_a <= 0.5)
        assert np.all(population.cost_b >= 0.1)
        assert np.all(population.cost_b <= 1.0)
        assert np.all(population.expected_qualities > 0.0)
        assert np.all(population.expected_qualities <= 1.0)

    def test_rejects_nonpositive_size(self, rng):
        with pytest.raises(ConfigurationError, match="num_sellers"):
            SellerPopulation.random(0, rng)

    def test_rejects_bad_quality_range(self, rng):
        with pytest.raises(ConfigurationError, match="quality_range"):
            SellerPopulation.random(5, rng, quality_range=(0.8, 0.2))

    def test_same_seed_same_population(self):
        a = SellerPopulation.random(20, np.random.default_rng(3))
        b = SellerPopulation.random(20, np.random.default_rng(3))
        np.testing.assert_array_equal(a.expected_qualities,
                                      b.expected_qualities)
        np.testing.assert_array_equal(a.cost_a, b.cost_a)

    def test_custom_quality_range(self, rng):
        population = SellerPopulation.random(
            50, rng, quality_range=(0.5, 0.9)
        )
        assert np.all(population.expected_qualities >= 0.5)
        assert np.all(population.expected_qualities <= 0.9)


class TestFromArrays:
    def test_round_trip(self):
        qualities = np.array([0.4, 0.8])
        a = np.array([0.2, 0.3])
        b = np.array([0.1, 0.6])
        population = SellerPopulation.from_arrays(qualities, a, b)
        np.testing.assert_array_equal(population.expected_qualities, qualities)
        np.testing.assert_array_equal(population.cost_a, a)
        np.testing.assert_array_equal(population.cost_b, b)

    def test_items_are_equal_seller_objects(self):
        population = SellerPopulation.from_arrays(
            np.array([0.4, 0.8]), np.array([0.2, 0.3]), np.array([0.1, 0.6])
        )
        assert population[1] == make_seller(quality=0.8, a=0.3, b=0.6,
                                            seller_id=1)
        assert list(population) == [population[0], population[1]]

    @pytest.mark.parametrize("qualities,a,b,match", [
        ([0.5, 0.0], [0.2, 0.2], [0.1, 0.1], "expected_quality"),
        ([0.5, 1.5], [0.2, 0.2], [0.1, 0.1], "expected_quality"),
        ([0.5, np.nan], [0.2, 0.2], [0.1, 0.1], "expected_quality"),
        ([0.5, 0.5], [0.2, 0.0], [0.1, 0.1], "parameter a"),
        ([0.5, 0.5], [np.inf, 0.2], [0.1, 0.1], "parameter a"),
        ([0.5, 0.5], [0.2, 0.2], [-0.1, 0.1], "parameter b"),
    ])
    def test_rejects_what_a_seller_rejects(self, qualities, a, b, match):
        with pytest.raises(ConfigurationError, match=match):
            SellerPopulation.from_arrays(np.array(qualities), np.array(a),
                                         np.array(b))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="empty"):
            SellerPopulation.from_arrays(np.array([]), np.array([]),
                                         np.array([]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            SellerPopulation.from_arrays(
                np.array([0.5]), np.array([0.2, 0.3]), np.array([0.1])
            )
