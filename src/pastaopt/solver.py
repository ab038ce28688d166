"""Max-min assortment optimization: alternate an exact assortment step with
a feasible gradient step on the preference vector, plus the
estimate-then-optimize baseline.

The pessimistic program maximizes, over assortments, the worst-case
expected revenue over the likelihood-ratio confidence region. The solver
alternates (1) the exact assortment step at the current preference
vector with (2) a few gradient-descent steps on the revenue that shrink
their step size until the iterate stays inside the region.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .likelihood import (
    ConfidenceRegion,
    FitOptions,
    MleFit,
    OfflineDataset,
    confidence_radius,
    fit_mle,
)
from .lp import ConstraintSet, best_assortment
from .model import Assortment, Catalog, ParamSpace, expected_revenue, expected_revenue_gradient

__all__ = [
    "GdlsOptions",
    "PastaOptions",
    "GdlsStep",
    "SolveTrace",
    "gdls",
    "pasta_solve",
    "baseline_solve",
]


@dataclass(frozen=True)
class GdlsOptions:
    """Inner gradient-descent controls: n_steps steps, each line-searched
    from init_step by repeated multiplication with shrink until feasible."""

    n_steps: int = 2
    init_step: float = 0.01
    shrink: float = 0.5
    max_halvings: int = 50

    def __post_init__(self):
        if self.n_steps < 1 or self.max_halvings < 1:
            raise ValueError("n_steps and max_halvings must be positive")
        if self.init_step <= 0 or not 0 < self.shrink < 1:
            raise ValueError("init_step must be > 0 and shrink inside (0, 1)")


@dataclass(frozen=True)
class PastaOptions:
    """Outer alternation controls and confidence-region configuration."""

    max_outer_iters: int = 30
    gdls: GdlsOptions = field(default_factory=GdlsOptions)
    alpha_mode: str = "empirical"
    alpha_override: float | None = None
    space: ParamSpace | None = None
    fit: FitOptions = field(default_factory=FitOptions)

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.alpha_mode not in ("empirical", "theoretical"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")


@dataclass(frozen=True)
class GdlsStep:
    """One inner descent step: the step size actually used and how many
    shrinks the feasibility search needed. accepted=False means the search
    exhausted max_halvings and the iterate stayed put."""

    step_index: int
    beta: float
    halvings: int
    accepted: bool


@dataclass
class SolveTrace:
    """Per-iteration record of the alternation for observability."""

    theta_ml: np.ndarray
    alpha: float
    iterations: list[tuple[int, Assortment, np.ndarray, float]] = field(default_factory=list)
    final_assortment: Assortment = ()
    converged_early: bool = False

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["iter", "assortment", "theta", "worst_value"])
            for t, s, theta, worst in self.iterations:
                writer.writerow(
                    [
                        t,
                        ";".join(str(j) for j in s),
                        ";".join(f"{v:.17g}" for v in theta),
                        f"{worst:.17g}",
                    ]
                )


def gdls(
    catalog: Catalog,
    s: Iterable[int],
    region: ConfidenceRegion,
    theta_init: np.ndarray,
    opts: GdlsOptions | None = None,
    history: list[GdlsStep] | None = None,
) -> np.ndarray:
    """Descend the expected revenue of s within the confidence region.

    Runs opts.n_steps gradient steps; each starts from step size
    opts.init_step and multiplies by opts.shrink until the candidate lies in
    the region. A step whose search exhausts max_halvings is skipped, so the
    result is always feasible. theta_init must itself be feasible.
    """
    opts = opts or GdlsOptions()
    s = catalog.check_assortment(s)
    if not s:
        raise ValueError("gdls needs a nonempty assortment")
    theta = np.asarray(theta_init, dtype=float)
    if not region.contains(theta):
        raise ValueError("theta_init lies outside the confidence region")
    for step_index in range(1, opts.n_steps + 1):
        grad = expected_revenue_gradient(catalog, s, theta)
        beta = opts.init_step
        halvings = 0
        accepted = False
        while halvings <= opts.max_halvings:
            cand = theta - beta * grad
            if region.contains(cand):
                accepted = True
                break
            beta *= opts.shrink
            halvings += 1
        if history is not None:
            history.append(GdlsStep(step_index, beta, halvings, accepted))
        if accepted:
            theta = cand
    return theta


def _resolve_space(catalog: Catalog, space: ParamSpace | None) -> ParamSpace:
    space = space or ParamSpace(dim=catalog.dim)
    if space.dim != catalog.dim:
        raise ValueError("parameter space dimension must match catalog features")
    return space


def build_region(
    dataset: OfflineDataset,
    catalog: Catalog,
    opts: PastaOptions,
) -> tuple[ConfidenceRegion, MleFit]:
    """Fit the MLE and assemble the confidence region per the options."""
    space = _resolve_space(catalog, opts.space)
    fit = fit_mle(dataset, catalog, space, opts.fit)
    if opts.alpha_override is not None:
        alpha = float(opts.alpha_override)
    elif opts.alpha_mode == "empirical":
        alpha = confidence_radius("empirical", nll_at_ml=fit.nll)
    else:
        alpha = confidence_radius(
            "theoretical",
            dim=catalog.dim,
            n=dataset.n,
            theta_max=space.theta_max,
            delta=0.05,
        )
    return ConfidenceRegion.from_fit(fit, dataset, catalog, space, alpha), fit


def pasta_solve(
    dataset: OfflineDataset,
    catalog: Catalog,
    cons: ConstraintSet,
    opts: PastaOptions | None = None,
) -> tuple[Assortment, SolveTrace]:
    """Pessimistic assortment optimization.

    Starting from the MLE, alternately (1) take the revenue-optimal assortment
    at the current preference vector and (2) descend that assortment's revenue
    within the confidence region. Stops after max_outer_iters, or earlier
    once the pair (assortment, theta) stops moving.
    """
    opts = opts or PastaOptions()
    region, fit = build_region(dataset, catalog, opts)
    trace = SolveTrace(theta_ml=fit.theta, alpha=region.alpha)
    theta = fit.theta
    s_prev: Assortment | None = None
    for t in range(1, opts.max_outer_iters + 1):
        s_t = best_assortment(catalog, theta, cons)
        theta_t = gdls(catalog, s_t, region, theta, opts.gdls)
        trace.iterations.append((t, s_t, theta_t, expected_revenue(catalog, s_t, theta_t)))
        if s_prev == s_t and float(np.linalg.norm(theta_t - theta)) < 1e-12:
            trace.converged_early = True
            theta = theta_t
            s_prev = s_t
            break
        theta = theta_t
        s_prev = s_t
    trace.final_assortment = s_prev
    return s_prev, trace


def baseline_solve(
    dataset: OfflineDataset,
    catalog: Catalog,
    cons: ConstraintSet,
    space: ParamSpace | None = None,
    fit_opts: FitOptions | None = None,
) -> Assortment:
    """Estimate-then-optimize: revenue-optimal assortment at the plain MLE."""
    space = _resolve_space(catalog, space)
    fit = fit_mle(dataset, catalog, space, fit_opts)
    return best_assortment(catalog, fit.theta, cons)
