"""Command-line surface.

Subcommands: generate (instance + dataset files), fit (MLE to JSON), solve
(pessimistic or baseline method on given files), sweep (replicated
experiment to CSV), plot (CSV to SVG), diag (randomized diagnostic suite).
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .datagen import Instance, InstanceConfig, SamplingDesign, generate_dataset, generate_instance
from .diagnostics import run_diagnostic_suite
from .harness import (
    SweepConfig,
    assortment_accuracy,
    read_results_csv,
    regret,
    run_sweep,
    write_metric_svg,
    write_results_csv,
)
from .likelihood import FitOptions, OfflineDataset, fit_mle
from .lp import cardinality_constraints
from .model import ParamSpace
from .rng import derive_rng
from .solver import PastaOptions, baseline_solve, pasta_solve

__all__ = ["main"]


class _ValidationExitParser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # runtime failures and reports validation problems with 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ValidationExitParser(prog="pastaopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ValidationExitParser)

    gen = sub.add_parser("generate", help="generate an instance and an offline dataset")
    gen.add_argument("--n-items", type=int, required=True)
    gen.add_argument("--card", type=int, required=True, help="cardinality bound K")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--n", type=int, required=True, help="number of offline records")
    gen.add_argument("--p", type=float, required=True, help="mass on the optimal assortment")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument(
        "--theta-mode",
        choices=["unit-sphere", "iid-uniform"],
        default=InstanceConfig.theta_star_mode,
    )
    gen.add_argument("--tau", type=float, default=InstanceConfig.tau)
    gen.add_argument("--out", type=Path, default=Path("."), help="output directory")

    fit = sub.add_parser("fit", help="fit the preference vector by maximum likelihood")
    fit.add_argument("--instance", type=Path, required=True)
    fit.add_argument("--data", type=Path, required=True)
    fit.add_argument("--theta-max", type=float, default=ParamSpace.theta_max)
    fit.add_argument(
        "--grad-tol",
        type=float,
        default=FitOptions.grad_tol,
        help="stop when the projected-gradient residual ||theta - P(theta - grad)|| "
        "reaches this (the gradient norm away from the theta-max boundary); "
        "reported as grad_norm",
    )
    fit.add_argument("--max-iters", type=int, default=FitOptions.max_iters)
    fit.add_argument("--out", type=Path, default=None, help="write the fit JSON here")

    solve = sub.add_parser("solve", help="choose an assortment from offline data")
    solve.add_argument("--method", choices=["pasta", "baseline"], required=True)
    solve.add_argument("--instance", type=Path, required=True)
    solve.add_argument("--data", type=Path, required=True)
    solve.add_argument(
        "--alpha-mode", choices=["empirical", "theoretical"], default=PastaOptions.alpha_mode
    )
    solve.add_argument(
        "--T", type=int, default=PastaOptions.max_outer_iters, help="outer iterations"
    )
    solve.add_argument("--theta-max", type=float, default=ParamSpace.theta_max)
    solve.add_argument("--out", type=Path, default=None, help="write the result JSON here")
    solve.add_argument("--trace", type=Path, default=None, help="write the iteration trace CSV")

    sweep = sub.add_parser("sweep", help="replicated comparison sweep")
    sweep.add_argument("--sweep", choices=["n", "p", "d"], required=True)
    sweep.add_argument("--values", type=str, required=True, help="comma-separated sweep values")
    sweep.add_argument("--n-items", type=int, default=SweepConfig.n_items)
    sweep.add_argument("--card", type=int, default=SweepConfig.k)
    sweep.add_argument("--dim", type=int, default=SweepConfig.dim)
    sweep.add_argument("--n", type=int, default=SweepConfig.n)
    sweep.add_argument("--p", type=float, default=SweepConfig.p)
    sweep.add_argument("--theta-mode", choices=["unit-sphere", "iid-uniform"], default=None)
    sweep.add_argument("--reps", type=int, default=SweepConfig.replications)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument(
        "--alpha-mode", choices=["empirical", "theoretical"], default=PastaOptions.alpha_mode
    )
    sweep.add_argument("--T", type=int, default=PastaOptions.max_outer_iters)
    sweep.add_argument("--out", type=Path, required=True)

    plot = sub.add_parser("plot", help="render a results CSV as an SVG chart")
    plot.add_argument("--metric", choices=["regret", "accuracy"], required=True)
    plot.add_argument("--input", type=Path, required=True)
    plot.add_argument("--out", type=Path, required=True)

    diag = sub.add_parser("diag", help="run the randomized diagnostics suite")
    diag.add_argument("--trials", type=int, default=500)
    diag.add_argument("--seed", type=int, default=2024)

    return parser


def _cmd_generate(args) -> int:
    cfg = InstanceConfig(
        n_items=args.n_items,
        k=args.card,
        dim=args.dim,
        seed=args.seed,
        theta_star_mode=args.theta_mode,
        tau=args.tau,
    )
    instance = generate_instance(cfg)
    design = SamplingDesign(p=args.p, n_items=args.n_items, k=args.card)
    dataset = generate_dataset(instance, design, args.n, derive_rng(args.seed, 0, "dataset"))
    args.out.mkdir(parents=True, exist_ok=True)
    instance.save(args.out / "instance.json")
    dataset.save_csv(args.out / "dataset.csv")
    print(f"wrote {args.out / 'instance.json'} and {args.out / 'dataset.csv'}")
    return 0


def _cmd_fit(args) -> int:
    instance = Instance.load(args.instance)
    dataset = OfflineDataset.load_csv(args.data)
    space = ParamSpace(dim=instance.catalog.dim, theta_max=args.theta_max)
    fit = fit_mle(
        dataset,
        instance.catalog,
        space,
        FitOptions(grad_tol=args.grad_tol, max_iters=args.max_iters),
    )
    payload = {
        "theta": [float(v) for v in fit.theta],
        "converged": fit.converged,
        "n_iters": fit.n_iters,
        "nll": fit.nll,
        "grad_norm": fit.grad_norm,
        "error_vs_theta_star": float(np.linalg.norm(fit.theta - instance.theta_star)),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_solve(args) -> int:
    instance = Instance.load(args.instance)
    dataset = OfflineDataset.load_csv(args.data)
    cons = cardinality_constraints(instance.config.n_items, instance.config.k)
    space = ParamSpace(dim=instance.catalog.dim, theta_max=args.theta_max)
    opts = PastaOptions(max_outer_iters=args.T, alpha_mode=args.alpha_mode, space=space)
    if args.method == "pasta":
        s_hat, trace = pasta_solve(dataset, instance.catalog, cons, opts)
        if args.trace:
            trace.save_csv(args.trace)
    else:
        s_hat = baseline_solve(dataset, instance.catalog, cons, space=space)
    payload = {
        "method": args.method,
        "assortment": list(s_hat),
        "regret": regret(instance, s_hat),
        "accuracy": assortment_accuracy(s_hat, instance.s_star),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _parse_values(raw: str, variable: str) -> tuple:
    parts = [t.strip() for t in raw.split(",") if t.strip()]
    if not parts:
        raise ValueError("no sweep values given")
    return tuple(float(t) if variable == "p" else int(t) for t in parts)


def _cmd_sweep(args) -> int:
    theta_mode = args.theta_mode or ("iid-uniform" if args.sweep == "d" else "unit-sphere")
    cfg = SweepConfig(
        sweep_variable=args.sweep,
        values=_parse_values(args.values, args.sweep),
        master_seed=args.seed,
        n_items=args.n_items,
        k=args.card,
        dim=args.dim,
        n=args.n,
        p=args.p,
        theta_star_mode=theta_mode,
        replications=args.reps,
        pasta=PastaOptions(max_outer_iters=args.T, alpha_mode=args.alpha_mode),
    )
    rows = run_sweep(cfg)
    write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    rows = read_results_csv(args.input)
    write_metric_svg(rows, args.metric, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_diag(args) -> int:
    results = run_diagnostic_suite(trials=args.trials, seed=args.seed)
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed = failed or not ok
    return 2 if failed else 0


_DISPATCH = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
    "diag": _cmd_diag,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"pastaopt: invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"pastaopt: failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
