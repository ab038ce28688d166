import math

import numpy as np
import pytest

from pastaopt import (
    AssortmentDistribution,
    Catalog,
    InstanceConfig,
    OfflineDataset,
    SamplingDesign,
    choice_probabilities,
    derive_rng,
    expected_revenue,
    generalized_hellinger,
    generate_dataset,
    generate_instance,
    ipw_value_estimate,
    kl_divergence,
    log_ratio_lipschitz_bound,
    population_nll,
    squared_hellinger,
)
from pastaopt.diagnostics import run_diagnostic_suite
from conftest import random_catalog


class TestSquaredHellinger:
    def test_identity(self):
        assert squared_hellinger([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_supports(self):
        assert squared_hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        got = squared_hellinger([1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-15)

    def test_choice_distribution_inputs(self, rng):
        cat = random_catalog(rng, 3, 2)
        p = choice_probabilities(cat, (1, 2), rng.standard_normal(2))
        q = choice_probabilities(cat, (1, 2), rng.standard_normal(2))
        assert 0.0 <= squared_hellinger(p, q) < 1.0
        mismatched = choice_probabilities(cat, (1, 3), rng.standard_normal(2))
        with pytest.raises(ValueError):
            squared_hellinger(p, mismatched)


class TestGeneralizedHellinger:
    def test_equal_parameters_give_zero(self, rng):
        cat = random_catalog(rng, 4, 2)
        dist = AssortmentDistribution(support=((1, 2), (3,)), masses=np.array([0.4, 0.6]))
        theta = rng.standard_normal(2)
        assert generalized_hellinger(cat, dist, theta, theta) == 0.0

    def test_single_atom_equals_conditional(self, rng):
        cat = random_catalog(rng, 4, 2)
        dist = AssortmentDistribution(support=((1, 4),), masses=np.array([1.0]))
        t1, t2 = rng.standard_normal(2), rng.standard_normal(2)
        expected = squared_hellinger(
            choice_probabilities(cat, (1, 4), t1), choice_probabilities(cat, (1, 4), t2)
        )
        assert generalized_hellinger(cat, dist, t1, t2) == pytest.approx(expected, abs=1e-15)

    def test_two_atom_mass_weighting(self, rng):
        cat = random_catalog(rng, 4, 2)
        dist = AssortmentDistribution(support=((1, 2), (3, 4)), masses=np.array([0.25, 0.75]))
        t1, t2 = rng.standard_normal(2), rng.standard_normal(2)
        by_hand = 0.25 * squared_hellinger(
            choice_probabilities(cat, (1, 2), t1), choice_probabilities(cat, (1, 2), t2)
        ) + 0.75 * squared_hellinger(
            choice_probabilities(cat, (3, 4), t1), choice_probabilities(cat, (3, 4), t2)
        )
        assert generalized_hellinger(cat, dist, t1, t2) == pytest.approx(by_hand, abs=1e-15)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            AssortmentDistribution(support=((1,), (1,)), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            AssortmentDistribution(support=((1,), (2,)), masses=np.array([0.5, 0.6]))


class TestKl:
    def test_zero_at_same_parameter(self, rng):
        cat = random_catalog(rng, 3, 2)
        theta = rng.standard_normal(2)
        assert kl_divergence(cat, (1, 2), theta, theta) == pytest.approx(0.0, abs=1e-15)

    def test_bernoulli_value(self):
        cat = Catalog(features=np.array([[1.0]]), revenues=np.array([1.0]))
        got = kl_divergence(cat, (1,), np.array([0.0]), np.array([math.log(3.0)]))
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert got == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.143841, abs=1e-6)

    def test_dominates_twice_squared_hellinger(self, rng):
        for _ in range(200):
            cat = random_catalog(rng, 4, 3)
            t1, t2 = rng.standard_normal(3), rng.standard_normal(3)
            s = (1, 3)
            kl = kl_divergence(cat, s, t1, t2)
            h2 = squared_hellinger(
                choice_probabilities(cat, s, t1), choice_probabilities(cat, s, t2)
            )
            assert kl >= 2 * h2 - 1e-10


class TestIpw:
    def test_all_records_match(self):
        ds = OfflineDataset([(1, 2)] * 4, [1] * 4, [0.5] * 4)
        assert ipw_value_estimate(ds, (1, 2), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_half_records_match(self):
        ds = OfflineDataset([(1,), (2,), (1,), (2,)], [1, 2, 1, 2], [0.6, 0.9, 0.6, 0.9])
        assert ipw_value_estimate(ds, (1,), 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_rejects_nonpositive_propensity(self):
        ds = OfflineDataset([(1,)], [1], [0.5])
        with pytest.raises(ValueError):
            ipw_value_estimate(ds, (1,), 0.0)

    def test_concentrates_on_plug_in_value(self):
        cfg = InstanceConfig(n_items=5, k=2, dim=2, seed=33)
        inst = generate_instance(cfg)
        design = SamplingDesign(p=0.5, n_items=5, k=2)
        ds = generate_dataset(inst, design, 100_000, derive_rng(33, 0, "ipw"))
        got = ipw_value_estimate(ds, inst.s_star, 0.5)
        truth = expected_revenue(inst.catalog, inst.s_star, inst.theta_star)
        assert abs(got - truth) < 0.01


class TestLipschitzBound:
    def test_unit_feature_formula(self):
        cat = Catalog(features=np.array([[1.0]]), revenues=np.array([0.5]))
        # x_max = 1 and an exponent of zero leave 1 + 2*1*1*1
        assert log_ratio_lipschitz_bound(cat, 0.0) == pytest.approx(3.0, abs=1e-15)
        with pytest.raises(ValueError):
            log_ratio_lipschitz_bound(cat, -1.0)

    def test_zero_features(self):
        cat = Catalog(features=np.zeros((3, 2)), revenues=np.full(3, 0.5))
        assert log_ratio_lipschitz_bound(cat, 2.0) == 0.0

    def test_bounds_log_ratio_increments(self, rng):
        theta_max = 1.5
        cat = random_catalog(rng, 4, 3)
        bound = log_ratio_lipschitz_bound(cat, theta_max)
        for _ in range(1000):
            t1 = rng.standard_normal(3)
            t1 *= rng.uniform(0, theta_max) / np.linalg.norm(t1)
            t2 = rng.standard_normal(3)
            t2 *= rng.uniform(0, theta_max) / np.linalg.norm(t2)
            s = (1, 2, 4)
            p1 = choice_probabilities(cat, s, t1).as_array()
            p2 = choice_probabilities(cat, s, t2).as_array()
            gap = float(np.max(np.abs(np.log(p1) - np.log(p2))))
            assert gap <= bound * np.linalg.norm(t1 - t2) + 1e-10


class TestPopulationLoss:
    def test_minimized_at_truth(self, rng):
        cat = random_catalog(rng, 4, 2)
        dist = AssortmentDistribution(support=((1, 2), (3, 4), (2,)), masses=np.array([0.5, 0.3, 0.2]))
        truth = rng.standard_normal(2)
        base = population_nll(cat, dist, truth, truth)
        for _ in range(50):
            other = rng.standard_normal(2)
            assert population_nll(cat, dist, truth, other) >= base - 1e-12


def test_diagnostic_suite_passes():
    results = run_diagnostic_suite(trials=150, seed=7)
    assert all(ok for _, ok, _ in results), results
    assert all(type(ok) is bool for _, ok, _ in results), results
