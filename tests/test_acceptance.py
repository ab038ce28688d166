"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its threshold.

The sweep-based comparisons (criteria 6 and 7) run the full desk-scale
experiment grid and are the slowest; everything else is fast.
"""

import math
import time

import numpy as np

from pastaopt import (
    InstanceConfig,
    OfflineDataset,
    ParamSpace,
    PastaOptions,
    SamplingDesign,
    SweepConfig,
    best_assortment,
    brute_force_best,
    build_assortment_lp,
    cardinality_constraints,
    confidence_radius,
    derive_rng,
    derive_seed,
    expected_revenue,
    expected_revenue_gradient,
    fit_mle,
    generate_dataset,
    generate_instance,
    ipw_value_estimate,
    neg_log_likelihood,
    nll_gradient,
    read_results_csv,
    run_sweep,
    solve_lp,
    summarize,
    write_metric_svg,
    write_results_csv,
)
from pastaopt.diagnostics import run_diagnostic_suite
from pastaopt.likelihood import ConfidenceRegion
from conftest import central_difference, random_catalog, relative_error


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def random_lp_instances(seed=424, count=200):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, min(n, 4) + 1))
        d = int(rng.integers(1, 7))
        cat = random_catalog(rng, n, d)
        theta = rng.standard_normal(d)
        yield cat, theta, cardinality_constraints(n, k)


def test_criterion_1_lp_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for cat, theta, cons in random_lp_instances():
        v_lp = expected_revenue(cat, best_assortment(cat, theta, cons), theta)
        v_bf = expected_revenue(cat, brute_force_best(cat, theta, cons), theta)
        worst = max(worst, abs(v_lp - v_bf))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(
        "1 LP vs enumeration oracle (200 instances)",
        ok,
        f"max value gap {worst:.2e} (tol 1e-9), runtime {elapsed:.2f}s (< 10s)",
    )
    assert ok


def test_criterion_2_integral_recovery():
    worst = 0.0
    for cat, theta, cons in random_lp_instances():
        lp = build_assortment_lp(cat, theta, cons)
        sol = solve_lp(lp)
        gamma = sol.w[1:] / (lp.v * sol.w[0])
        worst = max(worst, float(np.max(np.minimum(np.abs(gamma), np.abs(gamma - 1.0)))))
    ok = worst <= 1e-6
    report(
        "2 integral recovery on the same 200 instances",
        ok,
        f"max distance of gamma from {{0,1}}: {worst:.2e} (tol 1e-6)",
    )
    assert ok


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst_value = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        cat = random_catalog(rng, n, d)
        size = int(rng.integers(1, min(n, 6) + 1))
        s = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
        theta = rng.standard_normal(d)
        got = expected_revenue_gradient(cat, s, theta)
        oracle = central_difference(lambda t: expected_revenue(cat, s, t), theta)
        worst_value = max(worst_value, relative_error(got, oracle))
    worst_nll = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        cat = random_catalog(rng, n, d)
        assortments, choices, revenues = [], [], []
        for _ in range(30):
            size = int(rng.integers(1, n + 1))
            s = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
            a = 0 if rng.random() < 0.3 else int(rng.choice(s))
            assortments.append(s)
            choices.append(a)
            revenues.append(0.0 if a == 0 else float(cat.revenues[a - 1]))
        ds = OfflineDataset(assortments, choices, revenues)
        theta = rng.standard_normal(d)
        got = nll_gradient(ds, cat, theta)
        oracle = central_difference(lambda t: neg_log_likelihood(ds, cat, t), theta)
        worst_nll = max(worst_nll, relative_error(got, oracle))
    elapsed = time.perf_counter() - t0
    ok = worst_value < 1e-5 and worst_nll < 1e-5 and elapsed < 5.0
    report(
        "3 analytic gradients vs central differences (100 points each)",
        ok,
        f"value grad rel err {worst_value:.2e}, nll grad rel err {worst_nll:.2e} "
        f"(tol 1e-5), runtime {elapsed:.2f}s (< 5s)",
    )
    assert ok


def test_criterion_4_mle_consistency_full_coverage():
    # near-uniform logging over large assortments maximizes the per-record
    # choice information, the most favorable honest full-coverage reading
    errors, recoveries = [], []
    for seed in range(20):
        cfg = InstanceConfig(n_items=10, k=8, dim=4, seed=derive_seed(4242, seed, "inst"))
        inst = generate_instance(cfg)
        design = SamplingDesign(p=0.01, n_items=10, k=8)
        ds = generate_dataset(inst, design, 5000, derive_rng(4242, seed, "data"))
        fit = fit_mle(ds, inst.catalog)
        errors.append(float(np.linalg.norm(fit.theta - inst.theta_star)))
        s_base = best_assortment(inst.catalog, fit.theta, cardinality_constraints(10, 8))
        recoveries.append(s_base == inst.s_star)
    q95 = float(np.quantile(errors, 0.95))
    recovery_rate = float(np.mean(recoveries))
    ok = q95 < 0.15 and recovery_rate >= 0.9
    report(
        "4 MLE consistency under full coverage (20 seeds, n=5000)",
        ok,
        f"95th pct ||theta_hat - theta*|| = {q95:.4f} (< 0.15), "
        f"optimum recovery rate {recovery_rate:.2f} (>= 0.90)",
    )
    assert ok


def test_criterion_5_confidence_region_coverage():
    covered = 0
    reps = 50
    for rep in range(reps):
        cfg = InstanceConfig(n_items=20, k=5, dim=4, seed=derive_seed(525, rep, "inst"))
        inst = generate_instance(cfg)
        design = SamplingDesign(p=0.5, n_items=20, k=5)
        ds = generate_dataset(inst, design, 500, derive_rng(525, rep, "data"))
        space = ParamSpace(dim=4)
        fit = fit_mle(ds, inst.catalog, space)
        alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
        region = ConfidenceRegion(fit, ds, inst.catalog, space, alpha)
        covered += region.contains(inst.theta_star)
    rate = covered / reps
    ok = rate >= 0.9
    report(
        "5 likelihood-region coverage of the truth (50 replications)",
        ok,
        f"coverage {rate:.2f} (>= 0.90)",
    )
    assert ok


def _dominance_table(rows):
    regret = summarize(rows, "regret")
    accuracy = summarize(rows, "accuracy")
    table = {}
    for (v, mp, _), (_, mb, _) in zip(regret["pasta"], regret["baseline"]):
        table[v] = {"pasta": mp, "baseline": mb}
    for (v, ap, _), (_, ab, _) in zip(accuracy["pasta"], accuracy["baseline"]):
        table[v]["acc_pasta"] = ap
        table[v]["acc_baseline"] = ab
    return table


def test_criterion_6_headline_comparison():
    cfg = SweepConfig(
        sweep_variable="n",
        values=(50, 100, 150, 200),
        master_seed=606,
        n_items=40,
        k=8,
        dim=16,
        p=0.9,
        replications=20,
        pasta=PastaOptions(),  # T=30, GDLS L=2, 0.01, 0.5
    )
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert not any(math.isnan(r.regret) for r in rows), "a replication failed"
    table = _dominance_table(rows)
    ratio_ok = all(
        table[v]["pasta"] <= 0.5 * table[v]["baseline"] for v in (150.0, 200.0)
    )
    acc_ok = all(table[v]["acc_pasta"] >= table[v]["acc_baseline"] for v in table)
    detail = "; ".join(
        f"n={v:g}: regret {table[v]['pasta']:.4f}/{table[v]['baseline']:.4f}, "
        f"acc {table[v]['acc_pasta']:.3f}/{table[v]['acc_baseline']:.3f}"
        for v in sorted(table)
    )
    ok = ratio_ok and acc_ok
    report(
        "6 headline sample-size sweep (pasta/baseline)",
        ok,
        f"{detail}; runtime {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_robustness_sweeps():
    t0 = time.perf_counter()
    p_cfg = SweepConfig(
        sweep_variable="p",
        values=(0.1, 0.3, 0.5, 0.7, 0.9),
        master_seed=707,
        n_items=40,
        k=8,
        dim=16,
        n=150,
        replications=20,
    )
    p_rows = run_sweep(p_cfg)
    d_cfg = SweepConfig(
        sweep_variable="d",
        values=(8, 20, 32, 64),
        master_seed=708,
        n_items=20,
        k=5,
        n=150,
        p=0.9,
        theta_star_mode="iid-uniform",
        replications=20,
    )
    d_rows = run_sweep(d_cfg)
    elapsed = time.perf_counter() - t0
    p_table = _dominance_table(p_rows)
    d_table = _dominance_table(d_rows)
    p_ok = all(p_table[v]["pasta"] <= p_table[v]["baseline"] for v in p_table)
    d_ok = all(d_table[v]["pasta"] <= d_table[v]["baseline"] for v in d_table)
    detail_p = ", ".join(
        f"p={v:g}: {p_table[v]['pasta']:.4f}/{p_table[v]['baseline']:.4f}" for v in sorted(p_table)
    )
    detail_d = ", ".join(
        f"d={v:g}: {d_table[v]['pasta']:.4f}/{d_table[v]['baseline']:.4f}" for v in sorted(d_table)
    )
    ok = p_ok and d_ok
    report(
        "7 robustness sweeps over p and d (mean regret pasta/baseline)",
        ok,
        f"{detail_p}; {detail_d}; runtime {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_diagnostics_suite():
    results = run_diagnostic_suite(trials=500, seed=808)
    inequalities_ok = all(ok for _, ok, _ in results)

    cfg = InstanceConfig(n_items=6, k=2, dim=3, seed=888)
    inst = generate_instance(cfg)
    design = SamplingDesign(p=0.3, n_items=6, k=2)
    truth = expected_revenue(inst.catalog, inst.s_star, inst.theta_star)
    estimates = [
        ipw_value_estimate(
            generate_dataset(inst, design, 500, derive_rng(888, rep, "ipw")),
            inst.s_star,
            design.mass_of(inst.s_star, inst.s_star),
        )
        for rep in range(200)
    ]
    mean = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
    ipw_ok = abs(mean - truth) <= 3 * se
    ok = inequalities_ok and ipw_ok
    report(
        "8 distance inequalities (500 trials) and IPW unbiasedness (200 datasets)",
        ok,
        f"worst checks {[d for _, _, d in results]}; "
        f"IPW mean {mean:.4f} vs plug-in {truth:.4f} within {3 * se:.4f}",
    )
    assert ok


def test_criterion_9_determinism_and_formats(tmp_path):
    cfg = SweepConfig(
        sweep_variable="n",
        values=(30, 50),
        master_seed=909,
        n_items=8,
        k=3,
        dim=3,
        p=0.7,
        replications=2,
        pasta=PastaOptions(max_outer_iters=5),
    )
    rows_a = run_sweep(cfg)
    rows_b = run_sweep(cfg)
    strip = lambda r: (r.sweep_var, r.sweep_value, r.rep, r.method, r.regret, r.accuracy)
    metrics_deterministic = [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    # CSV writing is byte-deterministic for fixed rows (wall time is a
    # measured column, so cross-run byte identity holds for the same rows)
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows_a, ca)
    write_results_csv(rows_a, cb)
    csv_bytes_ok = ca.read_bytes() == cb.read_bytes()
    round_trip_ok = read_results_csv(ca) == rows_a

    # SVG carries only seed-determined metrics: byte-identical across runs
    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    write_metric_svg(rows_a, "regret", sa)
    write_metric_svg(rows_b, "regret", sb)
    svg_ok = sa.read_bytes() == sb.read_bytes()

    inst = generate_instance(InstanceConfig(n_items=8, k=3, dim=3, seed=9090))
    design = SamplingDesign(p=0.6, n_items=8, k=3)
    da, db = tmp_path / "da.csv", tmp_path / "db.csv"
    generate_dataset(inst, design, 120, derive_rng(9090, 0, "ds")).save_csv(da)
    generate_dataset(inst, design, 120, derive_rng(9090, 0, "ds")).save_csv(db)
    dataset_bytes_ok = da.read_bytes() == db.read_bytes()
    loaded = OfflineDataset.load_csv(da)
    reload_path = tmp_path / "dc.csv"
    loaded.save_csv(reload_path)
    dataset_round_trip_ok = reload_path.read_bytes() == da.read_bytes()

    ok = all(
        [
            metrics_deterministic,
            csv_bytes_ok,
            round_trip_ok,
            svg_ok,
            dataset_bytes_ok,
            dataset_round_trip_ok,
        ]
    )
    report(
        "9 determinism and file formats",
        ok,
        f"metrics deterministic {metrics_deterministic}, results CSV bytes {csv_bytes_ok}, "
        f"round trip {round_trip_ok}, SVG bytes {svg_ok}, dataset bytes {dataset_bytes_ok}, "
        f"dataset round trip {dataset_round_trip_ok}",
    )
    assert ok
