import dataclasses

import numpy as np
import pytest

from pastaopt import (
    Catalog,
    ConstraintSet,
    IntegralityError,
    LpSolution,
    SimplexError,
    best_assortment,
    brute_force_best,
    build_assortment_lp,
    cardinality_constraints,
    expected_revenue,
    lp,
    recover_assortment,
    solve_lp,
)
from conftest import random_catalog


def catalog_1d(utilities, revenues):
    return Catalog(
        features=np.array([[u] for u in utilities], dtype=float),
        revenues=np.array(revenues, dtype=float),
    )


class TestCardinalityConstraints:
    def test_three_choose_two(self):
        cons = cardinality_constraints(3, 2)
        assert np.array_equal(cons.coeffs, np.ones((1, 3)))
        assert np.array_equal(cons.bounds, [2.0])

    def test_single_item(self):
        cons = cardinality_constraints(1, 1)
        assert cons.coeffs.shape == (1, 1)
        assert cons.bounds[0] == 1.0

    def test_membership(self):
        cons = cardinality_constraints(3, 2)
        assert cons.admits((1, 3))
        assert not cons.admits((1, 2, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cardinality_constraints(3, 0)
        with pytest.raises(ValueError):
            cardinality_constraints(3, 4)


class TestConstraintSet:
    @pytest.mark.parametrize("bound", [0.5, np.nan, np.inf, -np.inf])
    def test_bounds_must_be_finite_integers(self, bound):
        coeffs = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="bounds must be finite integers"):
            ConstraintSet(coeffs=coeffs, bounds=np.array([1.0, bound]))

    @pytest.mark.parametrize("coeff", [0.5, np.nan, np.inf])
    def test_coefficients_must_be_finite_integers(self, coeff):
        with pytest.raises(ValueError, match="coefficients must be finite integers"):
            ConstraintSet(coeffs=np.array([[1.0, coeff]]), bounds=np.array([1.0]))

    def test_admits_rejects_items_beyond_its_range(self):
        cons = cardinality_constraints(3, 2)
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            cons.admits((4,))
        with pytest.raises(ValueError):
            cons.admits((0, 1))


def former_cardinality_bound(cons):
    """The rule best_assortment applied on every call before the bound was
    derived at construction."""
    if cons.n_rows == 1 and np.all(cons.coeffs == 1.0) and cons.bounds[0] >= 1:
        return int(cons.bounds[0])
    return None


def bound_cases():
    """(name, constraint set) over 4 items, one per branch of the rule."""
    two_rows = np.zeros((2, 4))
    two_rows[0, :2] = two_rows[1, 2:] = 1.0
    return [
        ("all-ones-k2", ConstraintSet(np.ones((1, 4)), np.array([2.0]))),
        ("all-ones-k1", cardinality_constraints(4, 1)),
        ("all-ones-k0", ConstraintSet(np.ones((1, 4)), np.array([0.0]))),
        ("coefficient-2", ConstraintSet(np.full((1, 4), 2.0), np.array([2.0]))),
        ("two-rows", ConstraintSet(two_rows, np.array([1.0, 1.0]))),
        ("negative-bound", ConstraintSet(np.ones((1, 4)), np.array([-1.0]))),
    ]


class TestCardinalityBound:
    """ConstraintSet derives the top-K route's bound once, at construction."""

    def test_cached_bound_matches_the_former_rule(self):
        got = {name: cons._cardinality_bound for name, cons in bound_cases()}
        assert got == {name: former_cardinality_bound(cons) for name, cons in bound_cases()}
        assert got["all-ones-k2"] == 2 and type(got["all-ones-k2"]) is int
        assert got["all-ones-k1"] == 1
        assert [k for k in got.values() if k is None] == [None] * 4

    def test_equality_and_repr_leave_the_bound_out(self):
        compared = [f.name for f in dataclasses.fields(ConstraintSet) if f.compare]
        assert compared == ["coeffs", "bounds"]
        cons = cardinality_constraints(1, 1)
        assert cons == ConstraintSet(np.ones((1, 1)), np.array([1.0]))
        assert cons != ConstraintSet(np.ones((1, 1)), np.array([0.0]))
        assert repr(cons) == f"ConstraintSet(coeffs={cons.coeffs!r}, bounds={cons.bounds!r})"

    def test_best_assortment_takes_the_same_route_and_pick(self, rng, monkeypatch):
        routes = []
        for name in ("_top_k_assortment", "solve_lp"):
            real = getattr(lp, name)
            monkeypatch.setattr(
                lp, name, lambda *args, real=real, name=name: routes.append(name) or real(*args)
            )
        cat = random_catalog(rng, 4, 2)
        theta = rng.standard_normal(2)
        for name, cons in bound_cases():
            routes.clear()
            k = former_cardinality_bound(cons)
            if name == "negative-bound":
                with pytest.raises(ValueError, match="admits no assortment"):
                    best_assortment(cat, theta, cons)
                assert routes == ["solve_lp"]
                continue
            got = best_assortment(cat, theta, cons)
            assert routes == (["_top_k_assortment"] if k is not None else ["solve_lp"]), name
            assert all(type(j) is int for j in got), name
            if k is None:
                built = build_assortment_lp(cat, theta, cons)
                assert got == recover_assortment(solve_lp(built), built.v), name
            else:
                assert got == brute_force_best(cat, theta, cons), name


class TestHandInstances:
    def test_single_item_lp(self):
        # max 0.6 w1 st w1 + w0 = 1, w1 <= w0: optimum w = (0.5, 0.5)
        cat = catalog_1d([0.0], [0.6])
        lp = build_assortment_lp(cat, np.array([1.0]), cardinality_constraints(1, 1))
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(sol.w, [0.5, 0.5], atol=1e-12)
        assert recover_assortment(sol, lp.v) == (1,)

    def test_two_items_unconstrained(self):
        cat = catalog_1d([0.0, 0.0], [0.6, 0.5])
        lp = build_assortment_lp(cat, np.array([1.0]), cardinality_constraints(2, 2))
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(11.0 / 30.0, abs=1e-12)
        assert np.allclose(sol.w, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_two_items_cardinality_one(self):
        cat = catalog_1d([0.0, 0.0], [0.6, 0.5])
        lp = build_assortment_lp(cat, np.array([1.0]), cardinality_constraints(2, 1))
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(0.3, abs=1e-12)
        assert recover_assortment(sol, lp.v) == (1,)

    def test_zero_revenue_selects_nothing(self):
        cat = catalog_1d([0.2, -0.1], [0.0, 0.0])
        lp = build_assortment_lp(cat, np.array([1.0]), cardinality_constraints(2, 2))
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert recover_assortment(sol, lp.v) == ()

    def test_non_finite_scores_rejected(self):
        cat = catalog_1d([1000.0], [0.5])
        with pytest.raises(ValueError):
            build_assortment_lp(cat, np.array([1.0]), cardinality_constraints(1, 1))

    def test_infeasible_set_rejected(self):
        # at most 0 and at least 1 of items 1-2: not even the empty set is admitted
        cat = catalog_1d([0.0, 0.5, -0.5], [0.6, 0.5, 0.4])
        coeffs = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
        cons = ConstraintSet(coeffs=coeffs, bounds=np.array([0.0, -1.0]))
        lp = build_assortment_lp(cat, np.array([1.0]), cons)
        with pytest.raises(ValueError):
            solve_lp(lp)


class TestRecovery:
    def test_degenerate_w0_rejected(self):
        sol = LpSolution(w=np.array([0.0, 1.0]), objective=0.5)
        with pytest.raises(IntegralityError):
            recover_assortment(sol, np.array([1.0]))

    def test_non_integral_rejected(self):
        sol = LpSolution(w=np.array([0.5, 0.25]), objective=0.1)
        with pytest.raises(IntegralityError):
            recover_assortment(sol, np.array([1.0]))


class TestBestAssortment:
    def test_two_item_tie_breaks_to_lowest_index(self):
        cat = catalog_1d([0.3, 0.3], [0.6, 0.6])
        got = best_assortment(cat, np.array([1.0]), cardinality_constraints(2, 1))
        assert got == (1,)

    def test_revenue_scaling_leaves_argmax_unchanged(self, rng):
        cat = random_catalog(rng, 6, 3)
        theta = rng.standard_normal(3)
        cons = cardinality_constraints(6, 3)
        base = best_assortment(cat, theta, cons)
        scaled = Catalog(features=cat.features, revenues=cat.revenues * 7.5)
        assert best_assortment(scaled, theta, cons) == base

    def test_matches_brute_force_on_random_instances(self, rng):
        # unit-scale theta, large-norm theta (weights spanning many orders of
        # magnitude), and two sets that take the LP route: two blocks, and at
        # most k items with at least one of items 1-2 (phase 1 pivots past
        # the empty assortment)
        cases = [
            (None, "card"),
            (10.0, "card"),
            (20.0, "card"),
            (40.0, "card"),
            (None, "blocks"),
            (None, "at_least"),
        ]
        for norm, kind in cases:
            for _ in range(40):
                n = int(rng.integers(2, 9))
                k = int(rng.integers(1, min(n, 4) + 1))
                d = int(rng.integers(1, 5))
                cat = random_catalog(rng, n, d)
                theta = rng.standard_normal(d)
                cons = cardinality_constraints(n, k)
                if kind == "blocks":
                    half = n // 2
                    k1, k2 = int(rng.integers(1, half + 1)), int(rng.integers(1, n - half + 1))
                    coeffs = np.zeros((2, n))
                    coeffs[0, :half] = coeffs[1, half:] = 1.0
                    cons = ConstraintSet(coeffs=coeffs, bounds=np.array([k1, k2], dtype=float))
                elif kind == "at_least":
                    coeffs = np.zeros((2, n))
                    coeffs[0], coeffs[1, :2] = 1.0, -1.0
                    cons = ConstraintSet(coeffs=coeffs, bounds=np.array([k, -1.0]))
                if norm is not None:
                    theta *= norm / np.linalg.norm(theta)
                s_lp = best_assortment(cat, theta, cons)
                s_bf = brute_force_best(cat, theta, cons)
                v_lp = expected_revenue(cat, s_lp, theta)
                v_bf = expected_revenue(cat, s_bf, theta)
                assert abs(v_lp - v_bf) <= 1e-9
                assert cons.admits(s_lp)

    @pytest.mark.parametrize("norm", [1.0, 10.0, 100.0])
    def test_every_admissible_start_reaches_the_cold_pick(self, rng, norm):
        # Dinkelbach's iteration is exact from any admissible start, so a warm
        # start changes the rounds it takes, never the pick
        for n in [2, 3, 5, 8, 12, 40, 64] * 4:
            k, d = int(rng.integers(1, min(n, 16) + 1)), int(rng.integers(1, 5))
            cat = random_catalog(rng, n, d)
            theta = rng.standard_normal(d)
            theta *= norm / np.linalg.norm(theta)
            cons = cardinality_constraints(n, k)
            cold = best_assortment(cat, theta, cons)
            if n <= 20:
                # by value: weights that underflow to 0 tie sets brute force orders by index
                v_bf = expected_revenue(cat, brute_force_best(cat, theta, cons), theta)
                assert abs(expected_revenue(cat, cold, theta) - v_bf) <= 1e-9
            starts = [(), cold] + [
                rng.choice(n, size=int(rng.integers(1, k + 1)), replace=False) + 1
                for _ in range(6)
            ]
            for start in starts:
                assert best_assortment(cat, theta, cons, start=start) == cold

    def test_inadmissible_start_is_rejected(self, rng):
        cat = random_catalog(rng, 6, 2)
        theta = rng.standard_normal(2)
        coeffs = np.zeros((2, 6))
        coeffs[0, :3] = coeffs[1, 3:] = 1.0
        blocks = ConstraintSet(coeffs=coeffs, bounds=np.array([1.0, 1.0]))
        for cons in (cardinality_constraints(6, 2), blocks):
            for start in [(1, 2, 4), (7,), (0, 1), (2, 2)]:
                with pytest.raises(ValueError):
                    best_assortment(cat, theta, cons, start=start)
        # the LP route checks its start and then ignores it
        cold = best_assortment(cat, theta, blocks)
        assert best_assortment(cat, theta, blocks, start=(2, 5)) == cold

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 7: the LP route's absolute pivot tolerance stops "
        "at a non-optimal vertex at large |theta| (instance 162)",
    )
    def test_two_block_large_theta_silent_wrong_pick(self):
        # instance 162 (8 items, utilities -18.6 to 49.5) returns (5, 6, 8),
        # worth 0.8674, where brute force finds (8,), worth 0.8883
        rng = np.random.default_rng(777)
        for _ in range(200):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            cat = Catalog(features=rng.standard_normal((n, d)), revenues=rng.uniform(0.1, 1.0, n))
            theta = rng.standard_normal(d)
            theta *= 20.0 / np.linalg.norm(theta)
            half = n // 2
            k1 = int(rng.integers(1, max(half, 1) + 1))
            k2 = int(rng.integers(1, n - half + 1))
            coeffs = np.zeros((2, n))
            coeffs[0, :half] = coeffs[1, half:] = 1.0
            cons = ConstraintSet(coeffs=coeffs, bounds=np.array([k1, k2], dtype=float))
            try:
                s_lp = best_assortment(cat, theta, cons)
            except (SimplexError, IntegralityError, ValueError):
                continue
            v_bf = expected_revenue(cat, brute_force_best(cat, theta, cons), theta)
            assert abs(expected_revenue(cat, s_lp, theta) - v_bf) <= 1e-9

    def test_lp_objective_equals_recovered_value(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            cat = random_catalog(rng, n, d)
            theta = rng.standard_normal(d)
            lp = build_assortment_lp(cat, theta, cardinality_constraints(n, 2))
            sol = solve_lp(lp)
            s = recover_assortment(sol, lp.v)
            assert sol.objective == pytest.approx(expected_revenue(cat, s, theta), abs=1e-9)


class TestBruteForce:
    def test_two_items_prefers_pair(self):
        cat = catalog_1d([0.0, 0.0], [0.6, 0.5])
        got = brute_force_best(cat, np.array([1.0]), cardinality_constraints(2, 2))
        assert got == (1, 2)

    def test_zero_revenue_returns_first_singleton(self):
        cat = catalog_1d([0.1, 0.2], [0.0, 0.0])
        got = brute_force_best(cat, np.array([1.0]), cardinality_constraints(2, 2))
        assert got == (1,)

    def test_single_item(self):
        cat = catalog_1d([0.0], [0.4])
        assert brute_force_best(cat, np.array([1.0]), cardinality_constraints(1, 1)) == (1,)

    def test_size_guard(self, rng):
        cat = random_catalog(rng, 21, 2)
        with pytest.raises(ValueError):
            brute_force_best(cat, rng.standard_normal(2), cardinality_constraints(21, 2))
