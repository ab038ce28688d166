import dataclasses
import itertools
import math

import numpy as np
import pytest

from pastaopt import (
    Catalog,
    ConfidenceRegion,
    FitOptions,
    InstanceConfig,
    OfflineDataset,
    ParamSpace,
    SamplingDesign,
    confidence_radius,
    derive_rng,
    fit_mle,
    generate_dataset,
    gdls,
    generate_instance,
    likelihood,
    neg_log_likelihood,
    nll_gradient,
    nll_hessian,
    sample_choice,
)
from conftest import central_difference, random_catalog, relative_error


def catalog_1d(utilities, revenues):
    return Catalog(
        features=np.array([[u] for u in utilities], dtype=float),
        revenues=np.array(revenues, dtype=float),
    )


def random_dataset(rng, catalog, theta, n, max_size=None):
    """Records with uniformly random assortments and MNL-sampled choices."""
    n_items = catalog.n_items
    max_size = max_size or n_items
    assortments, choices, revenues = [], [], []
    for _ in range(n):
        size = int(rng.integers(1, max_size + 1))
        s = tuple(sorted(rng.choice(n_items, size=size, replace=False) + 1))
        a = sample_choice(catalog, s, theta, rng)
        assortments.append(s)
        choices.append(a)
        revenues.append(0.0 if a == 0 else float(catalog.revenues[a - 1]))
    return OfflineDataset(assortments, choices, revenues)


def reference_log_denominators(catalog, dataset, theta):
    """Oracle for the distinct-row layout: the former per-record padded rows,
    one log-sum-exp per record."""
    max_k = max(len(s) for s in dataset.assortments)
    idx = np.zeros((dataset.n, max_k), dtype=int)
    mask = np.zeros((dataset.n, max_k), dtype=bool)
    for i, s in enumerate(dataset.assortments):
        idx[i, : len(s)] = np.asarray(s, dtype=int) - 1
        mask[i, : len(s)] = True
    chosen = dataset.choices - 1
    u = catalog.utilities(theta)
    rows = np.where(mask, u[idx], -np.inf)
    m = np.maximum(0.0, rows.max(axis=1))
    log_denom = m + np.log(np.exp(-m) + np.where(mask, np.exp(rows - m[:, None]), 0.0).sum(axis=1))
    return rows, log_denom, (idx, mask, chosen), u


def reference_nll(dataset, catalog, theta):
    _, log_denom, (idx, mask, chosen), u = reference_log_denominators(catalog, dataset, theta)
    chosen_u = np.where(chosen >= 0, u[np.maximum(chosen, 0)], 0.0)
    return float(np.mean(log_denom - chosen_u))


def reference_derivatives(dataset, catalog, theta):
    rows, log_denom, (idx, mask, chosen), _ = reference_log_denominators(catalog, dataset, theta)
    probs = np.where(mask, np.exp(rows - log_denom[:, None]), 0.0)
    n_items, x = catalog.n_items, catalog.features
    item_prob = np.bincount(idx[mask], weights=probs[mask], minlength=n_items)
    purchases = np.bincount(chosen[chosen >= 0], minlength=n_items)
    grad = ((item_prob - purchases) @ x) / dataset.n
    mean_x = np.einsum("ik,ikd->id", probs, x[idx])
    hess = ((x.T * item_prob) @ x - mean_x.T @ mean_x) / dataset.n
    return grad, hess


def reference_fit(dataset, catalog, space=None, opts=None):
    """Oracle for fit_mle: the former loop, which re-ran the likelihood at
    every accepted candidate to get its derivatives. Returns the fit and the
    number of distinct thetas it evaluated."""
    space = space or ParamSpace(dim=catalog.dim)
    opts = opts or FitOptions()
    theta = np.zeros(catalog.dim)
    nll = reference_nll(dataset, catalog, theta)
    grad, hess = reference_derivatives(dataset, catalog, theta)
    residual = likelihood._projected_residual(space, theta, grad)
    it, evaluated = 0, 1
    while residual > opts.grad_tol and it < opts.max_iters:
        direction = likelihood._ball_model_minimizer(theta, grad, hess, space.theta_max) - theta
        slope = float(grad @ direction)
        if not slope < 0:
            break
        step = 1.0
        accepted = False
        for _ in range(likelihood._MAX_HALVINGS):
            cand = space.project(theta + step * direction)
            cand_nll = reference_nll(dataset, catalog, cand)
            evaluated += 1
            if cand_nll <= nll + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        theta, nll = cand, cand_nll
        grad, hess = reference_derivatives(dataset, catalog, theta)
        residual = likelihood._projected_residual(space, theta, grad)
        it += 1
    fit = likelihood.MleFit(theta, residual <= opts.grad_tol, it, nll, residual)
    return fit, evaluated


def fit_cases():
    """(name, catalog, dataset, space) cases for the fit oracle: every
    oracle_datasets() case in the default ball, plus a fit that ends on the
    ball's boundary."""
    cases = [(name, cat, ds, None) for name, cat, ds in oracle_datasets()]
    boundary = OfflineDataset([(1,)], [1], [1.0])
    cases.append(("boundary", catalog_1d([1.0], [1.0]), boundary, ParamSpace(dim=1, theta_max=2.0)))
    return cases


def oracle_datasets():
    """(name, catalog, dataset) cases for the distinct-row layout."""
    rng = np.random.default_rng(8)
    cases = []
    inst = generate_instance(InstanceConfig(n_items=10, k=4, dim=3, seed=8))
    design = SamplingDesign(p=0.9, n_items=10, k=4)
    heavy = generate_dataset(inst, design, 300, derive_rng(8, 0, "ds"))
    cases.append(("heavy-repetition", inst.catalog, heavy))
    cat = random_catalog(rng, 8, 3)
    pool = [s for k in (1, 2, 3) for s in itertools.combinations(range(1, 9), k)]
    picks = rng.permutation(len(pool))[:60]
    distinct = [pool[i] for i in picks]
    choices = [int(rng.choice((0,) + s)) for s in distinct]
    revenues = [0.0 if a == 0 else float(cat.revenues[a - 1]) for a in choices]
    cases.append(("all-distinct", cat, OfflineDataset(distinct, choices, revenues)))
    cases.append(("single-record", cat, OfflineDataset([(2, 5, 7)], [5], [1.0])))
    no_buy = [(1, 2), (3,), (1, 2), (2, 4, 6)]
    cases.append(("no-purchase-only", cat, OfflineDataset(no_buy, [0] * 4, [0.0] * 4)))
    cases.append(("mixed-sizes", cat, random_dataset(rng, cat, rng.standard_normal(3), n=200)))
    # numpy's pairwise sum treats a row of fewer than 8, exactly 8, 9-15, 16
    # and 17 or more terms differently; the likelihood must reproduce each
    wide = random_catalog(rng, 24, 3)
    for max_k in (8, 12, 16, 20):
        theta = rng.standard_normal(3)
        assortments, choices, revenues = [], [], []
        for size in list(range(1, max_k + 1)) * 3:
            s = tuple(sorted(rng.choice(24, size=size, replace=False) + 1))
            a = sample_choice(wide, s, theta, rng)
            assortments.append(s)
            choices.append(a)
            revenues.append(0.0 if a == 0 else float(wide.revenues[a - 1]))
        cases.append((f"wide-rows-{max_k}", wide, OfflineDataset(assortments, choices, revenues)))
    return cases


class TestDistinctRows:
    """The likelihood evaluates one row per distinct assortment; the former
    per-record evaluation is the byte-exact oracle."""

    def test_layout_dedups_in_order_of_first_appearance(self):
        ds = OfflineDataset([(2, 3), (1,), (2, 3), (1,), (4, 1)], [3, 0, 2, 1, 4], [1.0] * 5)
        assert ds._inverse.tolist() == [0, 1, 0, 1, 2]
        assert ds._slots.tolist() == [[1, 0, 0], [2, -2, 3]]  # one column per row, pads at -2
        assert ds._chosen.tolist() == [2, -1, 1, 0, 3]

    def test_likelihood_calls_do_not_regroup_the_log(self, monkeypatch):
        cat = catalog_1d([0.5, -0.5, 0.0], [1.0] * 3)
        ds = OfflineDataset([(1, 2), (3,), (1, 2), (2, 3)], [1, 0, 2, 3], [1.0, 0.0, 1.0, 1.0])
        calls = []
        for name in ("_distinct_assortments", "as_assortment"):
            real = getattr(likelihood, name)
            monkeypatch.setattr(
                likelihood, name, lambda *args, real=real: calls.append(args) or real(*args)
            )
        neg_log_likelihood(ds, cat, np.ones(1))
        fit_mle(ds, cat)
        assert calls == []

    @pytest.mark.parametrize("norm", [0.0, 1.0, 10.0, 100.0])
    def test_matches_per_record_reference(self, norm):
        cases = oracle_datasets()
        heavy = cases[0][2]
        assert len(set(heavy.assortments)) < heavy.n // 5
        all_distinct = cases[1][2]
        assert len(set(all_distinct.assortments)) == all_distinct.n
        rng = np.random.default_rng(int(norm))
        for name, cat, ds in cases:
            for _ in range(3):
                theta = rng.standard_normal(cat.dim)
                theta *= norm / np.linalg.norm(theta)
                assert neg_log_likelihood(ds, cat, theta) == reference_nll(ds, cat, theta), name
                grad, hess = reference_derivatives(ds, cat, theta)
                assert nll_gradient(ds, cat, theta).tobytes() == grad.tobytes(), name
                assert nll_hessian(ds, cat, theta).tobytes() == hess.tobytes(), name


class TestFitPasses:
    """fit_mle evaluates the likelihood once per theta; the former two-pass
    loop is the byte-exact oracle."""

    def test_matches_two_pass_reference(self):
        for name, cat, ds, space in fit_cases():
            got = fit_mle(ds, cat, space)
            want, _ = reference_fit(ds, cat, space)
            assert got.theta.tobytes() == want.theta.tobytes(), name
            assert got.converged is want.converged, name
            assert got.n_iters == want.n_iters, name
            assert got.nll.hex() == want.nll.hex(), name
            assert got.grad_norm.hex() == want.grad_norm.hex(), name

    def test_one_kernel_pass_per_evaluated_theta(self, monkeypatch):
        calls = []
        real = likelihood._nll_pass

        def counting(dataset, catalog, theta, derivatives):
            calls.append(theta.tobytes())
            return real(dataset, catalog, theta, derivatives)

        monkeypatch.setattr(likelihood, "_nll_pass", counting)
        for name, cat, ds, space in fit_cases():
            calls.clear()
            fit = fit_mle(ds, cat, space)
            _, evaluated = reference_fit(ds, cat, space)
            assert len(calls) == evaluated, name
            assert len(set(calls)) == len(calls), name
            assert calls[0] == np.zeros(cat.dim).tobytes(), name
            assert calls[-1] == fit.theta.tobytes(), name
            if name == "heavy-repetition":  # a fit that rejects no candidate
                assert fit.n_iters >= 3 and len(calls) == 1 + fit.n_iters


class TestDerivativeLayout:
    """A fit gathers what its derivative passes share once; nll_gradient and
    nll_hessian build the same layout per call."""

    def test_fit_builds_one_layout_for_all_its_passes(self, monkeypatch):
        built, passed = [], []
        real_layout, real_pass = likelihood._derivative_layout, likelihood._nll_pass

        def layout(dataset, catalog):
            built.append(real_layout(dataset, catalog))
            return built[-1]

        def counting(dataset, catalog, theta, layout):
            passed.append(layout)
            return real_pass(dataset, catalog, theta, layout)

        monkeypatch.setattr(likelihood, "_derivative_layout", layout)
        monkeypatch.setattr(likelihood, "_nll_pass", counting)
        for name, cat, ds, space in fit_cases():
            built.clear()
            passed.clear()
            fit_mle(ds, cat, space)
            assert len(built) == 1, name
            assert len(passed) >= 1 and all(p is built[0] for p in passed), name

    def test_derivatives_match_the_reference_at_each_fit(self):
        for name, cat, ds, space in fit_cases():
            for theta in (np.zeros(cat.dim), fit_mle(ds, cat, space).theta):
                grad, hess = reference_derivatives(ds, cat, theta)
                assert nll_gradient(ds, cat, theta).tobytes() == grad.tobytes(), name
                assert nll_hessian(ds, cat, theta).tobytes() == hess.tobytes(), name

    def test_item_beyond_the_catalog_raises_before_any_gather(self):
        cat = catalog_1d([0.5, -0.5, 0.0, 1.0], [1.0] * 4)
        ds = OfflineDataset([(1,), (2, 5)], [1, 5], [1.0, 0.5])
        theta = np.ones(1)
        calls = [
            lambda: neg_log_likelihood(ds, cat, theta),
            lambda: nll_gradient(ds, cat, theta),
            lambda: nll_hessian(ds, cat, theta),
            lambda: fit_mle(ds, cat),
        ]
        for call in calls:
            # a gather first would raise IndexError on item 5 of 4
            with pytest.raises(ValueError, match="offers item 5 beyond the 4-item catalog"):
                call()


class TestNegLogLikelihood:
    def test_single_purchase_record(self):
        cat = catalog_1d([0.0], [1.0])
        ds = OfflineDataset([(1,)], [1], [1.0])
        assert neg_log_likelihood(ds, cat, np.array([1.0])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_single_no_purchase_record(self):
        cat = catalog_1d([0.0], [1.0])
        ds = OfflineDataset([(1,)], [0], [0.0])
        assert neg_log_likelihood(ds, cat, np.array([1.0])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_two_record_average(self):
        cat = catalog_1d([0.0, 0.0], [1.0, 1.0])
        ds = OfflineDataset([(1, 2), (1, 2)], [1, 0], [1.0, 0.0])
        assert neg_log_likelihood(ds, cat, np.array([1.0])) == pytest.approx(
            math.log(3.0), abs=1e-14
        )

    def test_record_consistency_checks(self):
        with pytest.raises(ValueError):
            OfflineDataset([(1, 2)], [3], [1.0])
        with pytest.raises(ValueError):
            OfflineDataset([()], [0], [0.0])

    def test_empty_log_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            OfflineDataset([], [], [])

    def test_choice_of_minus_one_is_not_offered(self):
        # 0-based, a choice of -1 is -2, the pad value of a short assortment
        with pytest.raises(ValueError) as caught:
            OfflineDataset([(1, 2, 3), (1, 2)], [1, -1], [1.0, 0.0])
        assert str(caught.value) == "choice -1 not offered in assortment (1, 2)"

    def test_fractional_choice_is_rejected(self):
        with pytest.raises(ValueError, match="choice 1.7 not offered"):
            OfflineDataset([(1, 2)], [1.7], [1.0])
        ds = OfflineDataset([(1, 2)], [1.0], [1.0])
        assert ds.choices.tolist() == [1] and ds.choices.dtype == np.int64

    @pytest.mark.parametrize("revenue", [math.nan, math.inf])
    def test_non_finite_revenue_is_rejected(self, revenue):
        with pytest.raises(ValueError, match="revenues must be finite and nonnegative"):
            OfflineDataset([(1,), (1,)], [1, 1], [1.0, revenue])

    def test_each_distinct_input_assortment_is_normalized_once(self, monkeypatch):
        calls = []
        real = likelihood.as_assortment
        monkeypatch.setattr(likelihood, "as_assortment", lambda s: calls.append(s) or real(s))
        ds = OfflineDataset([(3, 1), [3, 1], (1, 3), (2,), (3, 1)], [1, 3, 0, 2, 0], [1.0] * 5)
        assert calls == [(3, 1), (1, 3), (2,)]
        assert ds.assortments == [(1, 3), (1, 3), (1, 3), (2,), (1, 3)]

    def test_repeated_invalid_assortment_raises_at_its_first_record(self):
        def message(assortments, choices):
            with pytest.raises(ValueError) as caught:
                OfflineDataset(assortments, choices, [1.0] * len(choices))
            return str(caught.value)

        for bad in ((2, 2), (0, 1)):
            alone = message([bad], [0])
            assert message([(1,), bad, (1,), bad], [0, 1, 1, 0]) == alone
            assert message([(1,), bad, (3, 3), bad, (3, 3)], [0] * 5) == alone
        assert message([(2, 2)], [0]) == "duplicate item indices in assortment (2, 2)"
        # every assortment is checked before any choice, as before
        assert message([(1,), (1,), (2, 2)], [5, 0, 0]).startswith("duplicate")
        assert message([(1,), (1,), (1,)], [1, 5, 4]) == "choice 5 not offered in assortment (1,)"

    def test_item_beyond_catalog_rejected_on_every_call(self):
        ds = OfflineDataset([(1, 5)], [5], [1.0])
        assert math.isfinite(neg_log_likelihood(ds, catalog_1d([0.0] * 6, [1.0] * 6), np.ones(1)))
        with pytest.raises(ValueError):
            neg_log_likelihood(ds, catalog_1d([0.0] * 4, [1.0] * 4), np.ones(1))


class TestNllGradient:
    def test_zero_features(self):
        cat = Catalog(features=np.zeros((3, 2)), revenues=np.full(3, 0.5))
        ds = OfflineDataset([(1, 2), (3,)], [1, 0], [0.5, 0.0])
        g = nll_gradient(ds, cat, np.ones(2))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_matched_frequencies_zero_score(self):
        # at theta = ln 2 the model puts 2/3 on purchase; the data matches exactly
        cat = catalog_1d([1.0], [1.0])
        ds = OfflineDataset([(1,)] * 3, [1, 1, 0], [1.0, 1.0, 0.0])
        g = nll_gradient(ds, cat, np.array([math.log(2.0)]))
        assert np.linalg.norm(g) < 1e-10

    def test_matches_central_differences(self, rng):
        for _ in range(25):
            cat = random_catalog(rng, 6, 4)
            theta0 = rng.standard_normal(4)
            ds = random_dataset(rng, cat, theta0, n=40, max_size=4)
            theta = rng.standard_normal(4)
            got = nll_gradient(ds, cat, theta)
            oracle = central_difference(lambda t: neg_log_likelihood(ds, cat, t), theta)
            assert relative_error(got, oracle) < 1e-5
            hess = nll_hessian(ds, cat, theta)
            hess_oracle = np.array(
                [central_difference(lambda t: nll_gradient(ds, cat, t)[j], theta) for j in range(4)]
            )
            assert relative_error(hess.ravel(), hess_oracle.ravel()) < 1e-5


class TestFitMle:
    def test_symmetric_truth_recovered(self, rng):
        cat = random_catalog(rng, 6, 3)
        ds = random_dataset(rng, cat, np.zeros(3), n=10_000, max_size=4)
        fit = fit_mle(ds, cat)
        assert np.linalg.norm(fit.theta) < 0.1

    def test_separable_record_hits_boundary(self):
        # a single always-purchased item pushes the likelihood maximizer to
        # the edge of the preference ball
        cat = catalog_1d([1.0], [1.0])
        ds = OfflineDataset([(1,)], [1], [1.0])
        fit = fit_mle(ds, cat, ParamSpace(dim=1, theta_max=2.0))
        assert fit.theta[0] == pytest.approx(2.0, abs=1e-9)
        assert fit.converged is True

    def test_loss_never_above_start(self, rng):
        cat = random_catalog(rng, 5, 3)
        ds = random_dataset(rng, cat, rng.standard_normal(3), n=200, max_size=4)
        fit = fit_mle(ds, cat)
        assert fit.nll <= neg_log_likelihood(ds, cat, np.zeros(3)) + 1e-12

    def test_approximate_global_minimality(self, rng):
        cat = random_catalog(rng, 5, 3)
        ds = random_dataset(rng, cat, rng.standard_normal(3) * 0.5, n=300, max_size=4)
        space = ParamSpace(dim=3, theta_max=5.0)
        fit = fit_mle(ds, cat, space, FitOptions(grad_tol=1e-8))
        for _ in range(1000):
            theta = rng.standard_normal(3)
            theta *= rng.uniform(0, space.theta_max) / np.linalg.norm(theta)
            assert neg_log_likelihood(ds, cat, theta) >= fit.nll - 1e-9


class TestConfidenceRadius:
    def test_empirical_doubles_the_loss(self):
        assert confidence_radius("empirical", nll_at_ml=0.8) == pytest.approx(1.6, abs=1e-15)

    def test_theoretical_formula(self):
        got = confidence_radius("theoretical", dim=2, n=100, theta_max=1.0)
        assert got == pytest.approx((2 / 100) * math.log(1.0 / 0.05), rel=1e-12)

    def test_no_purchase_only_dataset(self):
        cat = Catalog(features=np.zeros((1, 1)), revenues=np.array([1.0]))
        ds = OfflineDataset([(1,)] * 4, [0] * 4, [0.0] * 4)
        fit = fit_mle(ds, cat)
        alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
        assert alpha == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_degenerate_radius_rejected(self):
        with pytest.raises(ValueError):
            confidence_radius("empirical", nll_at_ml=0.0)
        with pytest.raises(ValueError):
            confidence_radius("nonsense", nll_at_ml=1.0)
        for theta_max in (0.01, 0.05):
            with pytest.raises(ValueError, match="theta_max > delta"):
                confidence_radius("theoretical", dim=2, n=100, theta_max=theta_max)


class TestConfidenceRegion:
    def _region(self, rng, alpha=None):
        cat = random_catalog(rng, 5, 3)
        ds = random_dataset(rng, cat, rng.standard_normal(3) * 0.5, n=150, max_size=4)
        space = ParamSpace(dim=3, theta_max=10.0)
        fit = fit_mle(ds, cat, space)
        if alpha is None:
            alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
        return ConfidenceRegion(fit, ds, cat, space, alpha), fit, cat, ds

    def test_mle_is_member(self, rng):
        region, fit, _, _ = self._region(rng)
        assert region.contains(fit.theta)

    def test_outside_ball_is_rejected(self, rng):
        region, _, _, _ = self._region(rng)
        assert not region.contains(np.full(3, 100.0))

    def test_zero_radius_excludes_higher_loss(self, rng):
        region, fit, cat, ds = self._region(rng, alpha=0.0)
        theta = fit.theta + 0.5
        assert neg_log_likelihood(ds, cat, theta) > fit.nll
        assert not region.contains(theta)

    def test_monotone_in_alpha(self, rng):
        region, fit, cat, ds = self._region(rng)
        wider = dataclasses.replace(region, alpha=region.alpha * 3)
        for _ in range(50):
            theta = np.random.default_rng(1).standard_normal(3)
            if region.contains(theta):
                assert wider.contains(theta)

    def test_repeated_tests_match_a_fresh_region(self, rng):
        # the NLL memo must never carry one theta's verdict over to another
        region, fit, cat, ds = self._region(rng, alpha=0.1)
        inside, outside, far = fit.theta, fit.theta + 1.0, np.full(3, 100.0)
        verdicts = []
        for theta in (inside, outside, inside, inside, far, outside, outside, inside, far):
            fresh = ConfidenceRegion(fit, ds, cat, region.space, region.alpha)
            verdicts.append(region.contains(theta))
            assert verdicts[-1] == fresh.contains(theta)
        assert verdicts[:3] == [True, False, True]

    def test_same_theta_is_evaluated_once(self, rng, monkeypatch):
        # alpha admits b but is too small for the Lipschitz bound from a to
        # b, so every test below is an exact one or the exact memo's reuse
        region, fit, cat, ds = self._region(rng)
        a, b = fit.theta, fit.theta + 0.01
        region = dataclasses.replace(region, alpha=2 * (neg_log_likelihood(ds, cat, b) - fit.nll))
        assert region._lipschitz * np.linalg.norm(b - a) > region.alpha
        calls = []
        real = likelihood.neg_log_likelihood

        def counting(*args):
            calls.append(args[2].copy())
            return real(*args)

        monkeypatch.setattr(likelihood, "neg_log_likelihood", counting)
        for theta in (a, a.copy(), b, b, a):
            assert region.contains(theta)
        assert [c.tobytes() for c in calls] == [b.tobytes(), a.tobytes()]

    def test_every_region_is_seeded_from_its_fit(self, rng, monkeypatch):
        # however a region is built, testing its own centre costs no NLL pass
        region, fit, cat, ds = self._region(rng)
        theta = np.array([0.3, -0.2, 0.1])
        by_hand = likelihood.MleFit(theta, False, 0, neg_log_likelihood(ds, cat, theta), 1.0)
        regions = [
            region,
            ConfidenceRegion(by_hand, ds, cat, region.space, region.alpha),
            dataclasses.replace(region, alpha=region.alpha * 3),
        ]
        calls = []
        real = likelihood.neg_log_likelihood
        monkeypatch.setattr(
            likelihood, "neg_log_likelihood", lambda *args: calls.append(args) or real(*args)
        )
        for r in regions:
            assert r.contains(r.fit.theta)
        assert calls == []

    def test_truth_covered_on_one_instance(self, rng):
        cat = random_catalog(rng, 6, 3)
        truth = rng.standard_normal(3) * 0.5
        ds = random_dataset(rng, cat, truth, n=400, max_size=5)
        space = ParamSpace(dim=3)
        fit = fit_mle(ds, cat, space)
        alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
        region = ConfidenceRegion(fit, ds, cat, space, alpha)
        assert region.contains(truth)


class TestLipschitzBound:
    """The region's bound U + G ||theta - theta_m|| on the NLL: G is a valid
    and tight Lipschitz constant, and the bound never changes a verdict."""

    def test_constant_is_attained_on_a_two_item_log(self):
        # x = +-e1 with +e1 chosen: at theta = -t e1 the score tends to -2 e1,
        # so the NLL rises at nearly G = 2 per unit step, and any smaller G
        # would let the bound accept a point just outside the region
        cat = Catalog(features=np.array([[1.0, 0.0], [-1.0, 0.0]]), revenues=np.ones(2))
        ds = OfflineDataset([(1, 2)], [1], [1.0])
        for t in (10.0, 20.0):
            near, far = np.array([-t, 0.0]), np.array([-t - 1.0, 0.0])
            fit = likelihood.MleFit(near, False, 0, neg_log_likelihood(ds, cat, near), 1.0)
            rise = neg_log_likelihood(ds, cat, far) - fit.nll
            region = ConfidenceRegion(fit, ds, cat, ParamSpace(dim=2), 0.99 * rise)
            assert region._lipschitz == 2.0
            assert 0.99 * region._lipschitz <= rise <= region._lipschitz
            assert not region.contains(far)

    @staticmethod
    def _reference(region, theta):
        """Membership without any memo or bound (this module's
        neg_log_likelihood is not the one the tests below patch)."""
        gap = neg_log_likelihood(region.dataset, region.catalog, theta) - region.fit.nll
        return region.space.contains(theta) and gap <= region.alpha

    def _count_passes(self, monkeypatch):
        passes = []
        real = likelihood.neg_log_likelihood
        monkeypatch.setattr(
            likelihood, "neg_log_likelihood", lambda *args: passes.append(1) or real(*args)
        )
        return passes

    @pytest.mark.parametrize("mode", ["empirical", "theoretical"])
    def test_walks_across_the_boundary_keep_the_exact_verdicts(self, rng, monkeypatch, mode):
        cat = random_catalog(rng, 6, 3)
        ds = random_dataset(rng, cat, rng.standard_normal(3) * 0.5, n=200, max_size=4)
        space = ParamSpace(dim=3, theta_max=10.0)
        fit = fit_mle(ds, cat, space)
        alpha = confidence_radius(mode, nll_at_ml=fit.nll, dim=3, n=ds.n, theta_max=10.0)
        region = ConfidenceRegion(fit, ds, cat, space, alpha)
        passes = self._count_passes(monkeypatch)
        tests, verdicts = 0, set()
        for u in rng.standard_normal((4, 3)):
            u /= np.linalg.norm(u)
            lo, hi = 0.0, 1.0  # bracket, then bisect, the boundary's distance along u
            while self._reference(region, fit.theta + hi * u):
                lo, hi = hi, 2 * hi
            for _ in range(40):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if self._reference(region, fit.theta + mid * u) else (lo, mid)
            out = list(np.linspace(0.0, 1.5, 31)) + [0.999, 1.0 - 1e-9, 1.0 + 1e-9, 1.001]
            for f in out + out[::-1]:
                theta = fit.theta + f * lo * u
                verdict = region.contains(theta)
                assert verdict == self._reference(region, theta)
                tests, verdicts = tests + 1, verdicts | {verdict}
        assert verdicts == {True, False}
        assert 0 < len(passes) < tests  # both the bound and the exact pass decided tests

    def test_gdls_with_halved_steps_keeps_the_exact_verdicts(self, rng, monkeypatch):
        cat = random_catalog(rng, 6, 3)
        ds = random_dataset(rng, cat, rng.standard_normal(3) * 0.5, n=200, max_size=4)
        space = ParamSpace(dim=3, theta_max=10.0)
        fit = fit_mle(ds, cat, space)
        region = ConfidenceRegion(fit, ds, cat, space, 1e-7)
        passes, checked = self._count_passes(monkeypatch), []
        real_contains, reference = ConfidenceRegion.contains, self._reference

        def checking_contains(region, theta):
            checked.append(real_contains(region, theta))
            assert checked[-1] == reference(region, theta)
            return checked[-1]

        monkeypatch.setattr(ConfidenceRegion, "contains", checking_contains)
        history = []
        theta = fit.theta
        for s in [(1, 2), (3,), (4, 5, 6), (1, 2)]:
            theta = gdls(cat, s, region, theta, history=history)
        assert any(step.halvings > 0 for step in history)
        assert set(checked) == {True, False}
        assert 0 < len(passes) < len(checked)

    def test_anchor_is_a_copy_of_the_callers_theta(self, rng):
        cat = random_catalog(rng, 5, 3)
        ds = random_dataset(rng, cat, rng.standard_normal(3) * 0.5, n=150, max_size=4)
        space = ParamSpace(dim=3, theta_max=10.0)
        fit = fit_mle(ds, cat, space)
        alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
        region = ConfidenceRegion(fit, ds, cat, space, alpha)
        theta = fit.theta + 1e-3
        assert region.contains(theta)
        anchor = region._anchor[0].copy()
        assert np.array_equal(anchor, theta)  # accepted by the bound: the anchor moved there
        theta += 5.0
        assert space.contains(theta)  # inside the ball, far outside the region
        assert np.array_equal(region._anchor[0], anchor)
        assert not region.contains(theta)
        assert not self._reference(region, theta)


class TestDatasetCsv:
    def test_round_trip_is_exact(self, tmp_path):
        awkward = [0.1 + 0.2, 1.0 / 3.0, 0.5609421897654322, 0.0]
        ds = OfflineDataset(
            [(2, 5, 7), (1,), (3, 4), (1, 9)],
            [5, 0, 3, 9],
            awkward,
        )
        path = tmp_path / "dataset.csv"
        ds.save_csv(path)
        loaded = OfflineDataset.load_csv(path)
        assert loaded.assortments == ds.assortments
        assert np.array_equal(loaded.choices, ds.choices)
        assert np.array_equal(loaded.revenues, ds.revenues)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "sample_id,assortment,choice,revenue"

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            OfflineDataset.load_csv(path)
