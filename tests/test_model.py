import json
import math

import numpy as np
import pytest

from pastaopt import (
    Catalog,
    ParamSpace,
    as_assortment,
    choice_probabilities,
    expected_revenue,
    expected_revenue_gradient,
    sample_choice,
)
from conftest import central_difference, random_catalog, relative_error


def catalog_1d(utilities, revenues):
    """Items whose single feature equals the wanted utility at theta = [1]."""
    return Catalog(
        features=np.array([[u] for u in utilities], dtype=float),
        revenues=np.array(revenues, dtype=float),
    )


class TestChoiceProbabilities:
    def test_single_item_logistic_symmetry(self):
        cat = catalog_1d([0.0], [1.0])
        d = choice_probabilities(cat, (1,), np.array([1.0]))
        assert d.prob_of(1) == pytest.approx(0.5, abs=1e-15)
        assert d.no_purchase == pytest.approx(0.5, abs=1e-15)

    def test_two_equal_items_thirds(self):
        cat = catalog_1d([0.0, 0.0], [1.0, 1.0])
        d = choice_probabilities(cat, (1, 2), np.array([1.0]))
        assert np.allclose(d.as_array(), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_log_two_utility_halves_and_quarters(self):
        # direct evaluation: weights (2, 1), denominator 4
        cat = catalog_1d([math.log(2.0), 0.0], [1.0, 1.0])
        d = choice_probabilities(cat, (1, 2), np.array([1.0]))
        assert d.prob_of(1) == pytest.approx(0.5, abs=1e-14)
        assert d.prob_of(2) == pytest.approx(0.25, abs=1e-14)
        assert d.no_purchase == pytest.approx(0.25, abs=1e-14)

    def test_normalization_and_positivity(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            cat = random_catalog(rng, n, d)
            size = int(rng.integers(1, n + 1))
            s = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
            dist = choice_probabilities(cat, s, rng.standard_normal(d) * 3)
            masses = dist.as_array()
            assert abs(masses.sum() - 1.0) < 1e-12
            assert np.all(masses > 0)

    def test_extreme_theta_does_not_overflow(self):
        cat = catalog_1d([1.0, -1.0], [1.0, 1.0])
        d = choice_probabilities(cat, (1, 2), np.array([800.0]))
        assert np.all(np.isfinite(d.as_array()))
        assert d.prob_of(1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_feature_translation_invariance(self, rng):
        cat = random_catalog(rng, 5, 4)
        theta = rng.standard_normal(4)
        v = rng.standard_normal(4)
        v -= (v @ theta) / (theta @ theta) * theta
        shifted = Catalog(features=cat.features + v, revenues=cat.revenues)
        s = (1, 3, 5)
        before = choice_probabilities(cat, s, theta).as_array()
        after = choice_probabilities(shifted, s, theta).as_array()
        assert np.allclose(before, after, atol=1e-12)

    def test_errors(self):
        cat = catalog_1d([0.0], [1.0])
        with pytest.raises(ValueError):
            choice_probabilities(cat, (2,), np.array([0.0]))
        with pytest.raises(ValueError):
            choice_probabilities(cat, (1,), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            as_assortment((1, 1))


class TestExpectedRevenue:
    def test_empty_assortment_is_zero(self):
        cat = catalog_1d([0.0], [0.6])
        assert expected_revenue(cat, (), np.array([1.0])) == 0.0

    def test_single_item(self):
        cat = catalog_1d([0.0], [0.6])
        assert expected_revenue(cat, (1,), np.array([1.0])) == pytest.approx(0.3, abs=1e-15)

    def test_two_items(self):
        cat = catalog_1d([0.0, 0.0], [0.6, 0.5])
        got = expected_revenue(cat, (1, 2), np.array([1.0]))
        assert got == pytest.approx((0.6 + 0.5) / 3, abs=1e-14)

    def test_value_strictly_below_max_revenue(self, rng):
        for _ in range(30):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            cat = random_catalog(rng, n, d)
            s = tuple(range(1, n + 1))
            v = expected_revenue(cat, s, rng.standard_normal(d))
            assert 0.0 <= v < cat.revenues.max() or cat.revenues.max() == 0.0


class TestGradient:
    def test_zero_revenue_gives_zero_gradient(self, rng):
        cat = Catalog(features=rng.standard_normal((3, 2)), revenues=np.zeros(3))
        g = expected_revenue_gradient(cat, (1, 2, 3), rng.standard_normal(2))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_zero_features_give_zero_gradient(self):
        cat = Catalog(features=np.zeros((2, 3)), revenues=np.array([0.5, 0.7]))
        g = expected_revenue_gradient(cat, (1, 2), np.ones(3))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_central_differences(self, rng):
        for _ in range(100):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            cat = random_catalog(rng, n, d)
            size = int(rng.integers(1, min(n, 6) + 1))
            s = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
            theta = rng.standard_normal(d)
            got = expected_revenue_gradient(cat, s, theta)
            oracle = central_difference(lambda t: expected_revenue(cat, s, t), theta)
            assert relative_error(got, oracle) < 1e-5

    def test_empty_assortment_rejected(self):
        cat = catalog_1d([0.0], [1.0])
        with pytest.raises(ValueError):
            expected_revenue_gradient(cat, (), np.array([0.0]))


class TestSampleChoice:
    def test_saturated_logit(self):
        cat = catalog_1d([50.0], [1.0])
        rng = np.random.default_rng(3)
        hits = sum(sample_choice(cat, (1,), np.array([1.0]), rng) == 1 for _ in range(10_000))
        assert hits / 10_000 > 0.999

    def test_logistic_symmetry_frequency(self):
        cat = catalog_1d([0.0], [1.0])
        rng = np.random.default_rng(4)
        hits = sum(sample_choice(cat, (1,), np.array([1.0]), rng) == 1 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_two_item_frequencies(self):
        cat = catalog_1d([math.log(2.0), 0.0], [1.0, 1.0])
        rng = np.random.default_rng(5)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(100_000):
            counts[sample_choice(cat, (1, 2), np.array([1.0]), rng)] += 1
        assert abs(counts[1] / 100_000 - 0.5) < 0.01
        assert abs(counts[2] / 100_000 - 0.25) < 0.01
        assert abs(counts[0] / 100_000 - 0.25) < 0.01

    def test_deterministic_given_rng_state(self):
        cat = catalog_1d([0.3, -0.2], [1.0, 1.0])
        draws1 = [
            sample_choice(cat, (1, 2), np.array([1.0]), np.random.default_rng(9))
            for _ in range(1)
        ]
        draws2 = [
            sample_choice(cat, (1, 2), np.array([1.0]), np.random.default_rng(9))
            for _ in range(1)
        ]
        assert draws1 == draws2


class TestValidation:
    def test_each_public_call_checks_its_assortment_once(self, monkeypatch):
        cat = catalog_1d([0.2, -0.1, 0.4], [0.5, 0.7, 0.6])
        theta = np.array([1.0])
        checked = []
        real = Catalog.check_assortment

        def counting(self, s):
            checked.append(tuple(s))
            return real(self, s)

        monkeypatch.setattr(Catalog, "check_assortment", counting)
        rng = np.random.default_rng(0)
        calls = (
            lambda s: choice_probabilities(cat, s, theta),
            lambda s: expected_revenue(cat, s, theta),
            lambda s: expected_revenue_gradient(cat, s, theta),
            lambda s: sample_choice(cat, s, theta, rng),
        )
        for call in calls:
            checked.clear()
            call([3, 1])
            assert checked == [(3, 1)]


class TestCatalogIO:
    def test_json_round_trip(self, rng):
        cat = random_catalog(rng, 4, 3)
        loaded = Catalog.from_json_dict(json.loads(json.dumps(cat.to_json_dict())))
        assert np.array_equal(loaded.features, cat.features)
        assert np.array_equal(loaded.revenues, cat.revenues)

    def test_validation(self):
        with pytest.raises(ValueError):
            Catalog(features=np.zeros((2, 2)), revenues=np.array([-0.1, 0.2]))
        with pytest.raises(ValueError):
            Catalog(features=np.zeros((2, 2)), revenues=np.array([0.1]))


class TestParamSpace:
    def test_membership_and_projection(self, rng):
        space = ParamSpace(dim=2, theta_max=1.0)
        assert space.contains(np.array([0.6, 0.8]))
        assert not space.contains(np.array([0.7, 0.8]))
        proj = space.project(np.array([3.0, 4.0]))
        assert np.allclose(proj, [0.6, 0.8])
        # scaling by theta_max / norm can round the norm an ulp past the radius
        space = ParamSpace(dim=16, theta_max=100.0)
        for _ in range(2000):
            theta = rng.standard_normal(16) * rng.uniform(10.0, 1000.0)
            proj = space.project(theta)
            assert space.contains(proj)
            if np.linalg.norm(theta) > space.theta_max:
                assert np.linalg.norm(proj) == pytest.approx(space.theta_max, rel=1e-14)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ParamSpace(dim=1, theta_max=0.0)
