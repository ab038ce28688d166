import itertools
import math

import numpy as np
import pytest

from pastaopt import (
    Catalog,
    ConfidenceRegion,
    InstanceConfig,
    MleFit,
    OfflineDataset,
    ParamSpace,
    PastaOptions,
    SamplingDesign,
    baseline_solve,
    best_assortment,
    brute_force_best,
    cardinality_constraints,
    derive_rng,
    expected_revenue,
    expected_revenue_gradient,
    fit_mle,
    gdls,
    generate_dataset,
    generate_instance,
    likelihood,
    neg_log_likelihood,
    pasta_solve,
)
from pastaopt.solver import _GDLS_INIT_STEP, _GDLS_SHRINK, _GDLS_STEPS, build_region


def small_problem(seed=101, n=80, n_items=8, k=3, dim=3, p=0.8):
    cfg = InstanceConfig(n_items=n_items, k=k, dim=dim, seed=seed)
    inst = generate_instance(cfg)
    design = SamplingDesign(p=p, n_items=n_items, k=k)
    ds = generate_dataset(inst, design, n, derive_rng(seed, 0, "ds"))
    cons = cardinality_constraints(n_items, k)
    return inst, ds, cons


def exact_1d_region():
    """Dataset whose 1-d MLE is exactly ln 2 (matched frequencies)."""
    cat = Catalog(features=np.array([[1.0]]), revenues=np.array([1.0]))
    ds = OfflineDataset([(1,)] * 3, [1, 1, 0], [1.0, 1.0, 0.0])
    theta_ml = np.array([math.log(2.0)])
    nll = neg_log_likelihood(ds, cat, theta_ml)
    space = ParamSpace(dim=1, theta_max=10.0)
    return cat, ds, theta_ml, nll, space


class TestGdls:
    def test_zero_gradient_is_fixpoint(self, rng):
        cat = Catalog(features=rng.standard_normal((4, 2)), revenues=np.zeros(4))
        ds = OfflineDataset([(1, 2)], [1], [0.0])
        space = ParamSpace(dim=2)
        fit = fit_mle(ds, cat, space)
        region = ConfidenceRegion(fit, ds, cat, space, alpha=1.0)
        out = gdls(cat, (1, 2, 3), region, fit.theta)
        assert np.array_equal(out, fit.theta)

    def test_zero_radius_region_pins_the_iterate(self):
        # the only feasible steps in a zero-radius region are those too small
        # for the float loss to register, so the output stays at the center
        cat, ds, theta_ml, nll, space = exact_1d_region()
        fit = MleFit(theta_ml, True, 0, nll, 0.0)
        region = ConfidenceRegion(fit, ds, cat, space, alpha=0.0)
        history = []
        out = gdls(cat, (1,), region, theta_ml, history=history)
        assert np.allclose(out, theta_ml, atol=1e-7)
        assert region.contains(out)
        assert all(step.halvings >= 10 for step in history)

    def test_descends_value_in_wide_region(self, rng):
        inst, ds, cons = small_problem(seed=7)
        space = ParamSpace(dim=3)
        fit = fit_mle(ds, inst.catalog, space)
        region = ConfidenceRegion(fit, ds, inst.catalog, space, alpha=50.0)
        s = best_assortment(inst.catalog, fit.theta, cons)
        out = gdls(inst.catalog, s, region, fit.theta)
        assert expected_revenue(inst.catalog, s, out) <= expected_revenue(
            inst.catalog, s, fit.theta
        ) + 1e-12
        assert region.contains(out)

    def test_accepted_step_is_first_feasible_in_sequence(self):
        # alpha small enough that every step's initial size is infeasible and
        # shrinks are needed; verify each beta is exactly the first feasible one
        cat, ds, theta_ml, nll, space = exact_1d_region()
        fit = MleFit(theta_ml, True, 0, nll, 0.0)
        region = ConfidenceRegion(fit, ds, cat, space, alpha=1e-9)
        history = []
        out = gdls(cat, (1,), region, theta_ml, history=history)
        assert len(history) == _GDLS_STEPS
        theta = theta_ml
        for step in history:
            assert step.accepted and step.halvings > 0
            grad = expected_revenue_gradient(cat, (1,), theta)
            for k in range(step.halvings + 1):
                beta_k = _GDLS_INIT_STEP * _GDLS_SHRINK**k
                feasible = region.contains(theta - beta_k * grad)
                assert feasible == (k == step.halvings)
            assert step.beta == pytest.approx(_GDLS_INIT_STEP * _GDLS_SHRINK**step.halvings)
            theta = theta - step.beta * grad
        assert np.array_equal(out, theta)

    def test_infeasible_start_rejected(self):
        cat, ds, theta_ml, nll, space = exact_1d_region()
        fit = MleFit(theta_ml, True, 0, nll, 0.0)
        region = ConfidenceRegion(fit, ds, cat, space, alpha=0.01)
        with pytest.raises(ValueError):
            gdls(cat, (1,), region, np.array([5.0]))

    def test_infeasible_start_rejected_after_a_feasible_one(self):
        # the region's NLL memo holds the feasible start of the first call
        cat, ds, theta_ml, nll, space = exact_1d_region()
        fit = MleFit(theta_ml, True, 0, nll, 0.0)
        region = ConfidenceRegion(fit, ds, cat, space, alpha=0.01)
        out = gdls(cat, (1,), region, theta_ml)
        assert region.contains(out)
        with pytest.raises(ValueError):
            gdls(cat, (1,), region, np.array([5.0]))

    def test_one_dim_descent_verified_on_region_grid(self):
        # 1-d instance, wide region: two feasible gradient steps must land at
        # a value no worse than every grid point within step reach confirms
        inst, ds, cons = small_problem(seed=77, n=100, n_items=5, k=2, dim=1, p=0.7)
        space = ParamSpace(dim=1, theta_max=5.0)
        fit = fit_mle(ds, inst.catalog, space)
        region = ConfidenceRegion(fit, ds, inst.catalog, space, alpha=100.0)
        s = best_assortment(inst.catalog, fit.theta, cons)
        out = gdls(inst.catalog, s, region, fit.theta)
        v_init = expected_revenue(inst.catalog, s, fit.theta)
        v_out = expected_revenue(inst.catalog, s, out)
        assert v_out <= v_init + 1e-12
        # dense grid over the reachable interval: the output value matches
        # the best achievable by two steps of size <= init_step * |grad|
        grad0 = abs(
            float(expected_revenue_gradient(inst.catalog, s, fit.theta)[0])
        )
        reach = _GDLS_STEPS * _GDLS_INIT_STEP * max(grad0, 1e-9) * 1.5
        grid = np.linspace(fit.theta[0] - reach, fit.theta[0] + reach, 401)
        feasible_vals = [
            expected_revenue(inst.catalog, s, np.array([t]))
            for t in grid
            if region.contains(np.array([t]))
        ]
        assert v_out <= max(feasible_vals) + 1e-12
        assert v_out >= min(feasible_vals) - 1e-12


class TestPastaSolve:
    def test_zero_radius_equals_baseline(self):
        inst, ds, cons = small_problem(seed=21)
        opts = PastaOptions(alpha_override=0.0)
        s_pasta, trace = pasta_solve(ds, inst.catalog, cons, opts)
        s_base = baseline_solve(ds, inst.catalog, cons)
        assert s_pasta == s_base
        assert trace.converged_early

    def test_single_iteration_equals_baseline(self):
        inst, ds, cons = small_problem(seed=22)
        s_pasta, _ = pasta_solve(ds, inst.catalog, cons, PastaOptions(max_outer_iters=1))
        assert s_pasta == baseline_solve(ds, inst.catalog, cons)

    def test_trace_thetas_all_feasible(self):
        inst, ds, cons = small_problem(seed=23)
        opts = PastaOptions()
        s_pasta, trace = pasta_solve(ds, inst.catalog, cons, opts)
        region = build_region(ds, inst.catalog, opts)
        assert np.array_equal(region.fit.theta, trace.theta_ml)
        assert region.alpha == trace.alpha
        for _, s_t, theta_t, _ in trace.iterations:
            assert region.contains(theta_t)
            assert cons.admits(s_t)
        assert s_pasta == trace.iterations[-1][1]

    def test_space_dimension_mismatch_rejected(self):
        inst, ds, cons = small_problem(seed=26)
        wrong = ParamSpace(dim=inst.catalog.dim + 1)
        with pytest.raises(ValueError):
            pasta_solve(ds, inst.catalog, cons, PastaOptions(space=wrong))
        with pytest.raises(ValueError):
            baseline_solve(ds, inst.catalog, cons, space=wrong)

    def test_alpha_override_must_be_nonnegative(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="alpha_override"):
                PastaOptions(alpha_override=bad)
        assert PastaOptions(alpha_override=0.0).alpha_override == 0.0

    def test_accepted_iterate_is_not_evaluated_twice(self, monkeypatch):
        # each gdls call re-tests its start, the iterate the previous call
        # accepted or, for the first, the MLE. In the empirical radius the
        # region's Lipschitz bound answers every test without an NLL pass; in
        # a radius too small for the bound, the exact memo (seeded from the
        # fit) still answers each re-test
        counts = {"contains": 0, "nll": 0}
        in_contains = [False]
        real_nll, real_contains = likelihood.neg_log_likelihood, ConfidenceRegion.contains

        def counting_nll(*args):
            counts["nll"] += in_contains[0]
            return real_nll(*args)

        def counting_contains(self, theta):
            counts["contains"] += 1
            in_contains[0] = True
            try:
                return real_contains(self, theta)
            finally:
                in_contains[0] = False

        monkeypatch.setattr(likelihood, "neg_log_likelihood", counting_nll)
        monkeypatch.setattr(ConfidenceRegion, "contains", counting_contains)
        inst, ds, cons = small_problem(seed=101)
        seen = {}
        for alpha in (None, 1e-3):  # the empirical radius, then a small override
            counts.update(contains=0, nll=0)
            opts = PastaOptions(max_outer_iters=30, alpha_override=alpha)
            _, trace = pasta_solve(ds, inst.catalog, cons, opts)
            assert len(trace.iterations) == 30 and not trace.converged_early
            assert counts["contains"] >= 90
            seen[alpha] = dict(counts)
        assert seen[None]["nll"] == 0
        assert 0 < seen[1e-3]["nll"] <= seen[1e-3]["contains"] - 30

    def test_deterministic(self):
        inst, ds, cons = small_problem(seed=24)
        s1, tr1 = pasta_solve(ds, inst.catalog, cons)
        s2, tr2 = pasta_solve(ds, inst.catalog, cons)
        assert s1 == s2
        assert len(tr1.iterations) == len(tr2.iterations)
        for (t1, a1, th1, v1), (t2, a2, th2, v2) in zip(tr1.iterations, tr2.iterations):
            assert (t1, a1, v1) == (t2, a2, v2)
            assert np.array_equal(th1, th2)

    def test_trace_csv_schema(self, tmp_path):
        inst, ds, cons = small_problem(seed=25)
        _, trace = pasta_solve(ds, inst.catalog, cons, PastaOptions(max_outer_iters=3))
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,assortment,theta,worst_value"
        assert len(lines) == 1 + len(trace.iterations)

    def test_pessimistic_not_worse_direction(self):
        # weak dominance over seeds: the pessimistic answer's true value is
        # at least the baseline's in a clear majority of replications
        wins = 0
        seeds = range(40)
        for seed in seeds:
            inst, ds, cons = small_problem(
                seed=1000 + seed, n=60, n_items=10, k=3, dim=4, p=0.9
            )
            s_pasta, _ = pasta_solve(ds, inst.catalog, cons)
            s_base = baseline_solve(ds, inst.catalog, cons)
            v_pasta = expected_revenue(inst.catalog, s_pasta, inst.theta_star)
            v_base = expected_revenue(inst.catalog, s_base, inst.theta_star)
            wins += v_pasta >= v_base - 1e-12
        assert wins / len(seeds) >= 0.7


class TestGridOracle:
    def test_max_min_chain_on_grid(self):
        # exact max-min on a dense theta grid; when the truth lies in the
        # region, the regret of the grid solution is bounded by the worst
        # value drop of the true optimum over the region
        inst, ds, cons = small_problem(seed=31, n=120, n_items=5, k=2, dim=1, p=0.6)
        space = ParamSpace(dim=1, theta_max=4.0)
        fit = fit_mle(ds, inst.catalog, space)
        from pastaopt import confidence_radius

        alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
        region = ConfidenceRegion(fit, ds, inst.catalog, space, alpha)
        grid = [np.array([t]) for t in np.linspace(-4.0, 4.0, 161)]
        feasible = [th for th in grid if region.contains(th)]
        if region.contains(inst.theta_star):
            feasible.append(inst.theta_star)
        assert feasible
        assortments = [
            s
            for size in (1, 2)
            for s in itertools.combinations(range(1, 6), size)
        ]
        s_star = brute_force_best(inst.catalog, inst.theta_star, cons)

        def worst_value(s):
            return min(expected_revenue(inst.catalog, s, th) for th in feasible)

        s_hat = max(assortments, key=lambda s: (worst_value(s), tuple(-i for i in s)))
        if region.contains(inst.theta_star):
            lhs = expected_revenue(inst.catalog, s_star, inst.theta_star) - expected_revenue(
                inst.catalog, s_hat, inst.theta_star
            )
            rhs = max(
                expected_revenue(inst.catalog, s_star, inst.theta_star)
                - expected_revenue(inst.catalog, s_star, th)
                for th in feasible
            )
            assert lhs <= rhs + 1e-12


class TestBaseline:
    def test_equals_lp_at_mle(self):
        inst, ds, cons = small_problem(seed=41)
        fit = fit_mle(ds, inst.catalog, ParamSpace(dim=inst.catalog.dim))
        assert baseline_solve(ds, inst.catalog, cons) == best_assortment(
            inst.catalog, fit.theta, cons
        )

    def test_boundary_mle_converges(self):
        # this log pushes the likelihood maximizer onto the preference ball,
        # where the fit must still meet its stationarity test
        inst, ds, _ = small_problem(seed=1030, n=60, n_items=10, k=3, dim=4, p=0.9)
        space = ParamSpace(dim=4)
        fit = fit_mle(ds, inst.catalog, space)
        assert np.linalg.norm(fit.theta) == pytest.approx(space.theta_max, rel=1e-12)
        assert space.contains(fit.theta)
        assert fit.converged is True
        assert fit.n_iters <= 50

    def test_large_sample_recovers_truth(self):
        inst, ds, cons = small_problem(seed=42, n=10_000, n_items=6, k=2, dim=2, p=0.3)
        assert baseline_solve(ds, inst.catalog, cons) == inst.s_star

    def test_ignores_pessimism_options(self):
        inst, ds, cons = small_problem(seed=43)
        a = baseline_solve(ds, inst.catalog, cons)
        b = baseline_solve(ds, inst.catalog, cons)
        assert a == b

    def test_matches_closed_form_frequency_fit(self):
        # with one fixed assortment and axis-aligned features, the MLE has a
        # closed form: each utility is the log odds of its choice frequency
        cat = Catalog(features=np.eye(2), revenues=np.array([0.6, 0.5]))
        counts = {1: 50, 2: 30, 0: 20}
        assortments = [(1, 2)] * 100
        choices = [a for a, c in counts.items() for _ in range(c)]
        revenues = [0.0 if a == 0 else float(cat.revenues[a - 1]) for a in choices]
        ds = OfflineDataset(assortments, choices, revenues)
        fit = fit_mle(ds, cat, ParamSpace(dim=2), opts=None)
        closed_form = np.log(np.array([counts[1], counts[2]]) / counts[0])
        assert np.allclose(fit.theta, closed_form, atol=1e-5)
        cons = cardinality_constraints(2, 2)
        assert baseline_solve(ds, cat, cons) == brute_force_best(cat, closed_form, cons)
