"""Max-min assortment optimization: alternate an exact assortment step with
a feasible gradient step on the preference vector, plus the
estimate-then-optimize baseline.

The pessimistic program maximizes, over assortments, the worst-case
expected revenue over the likelihood-ratio confidence region. The solver
alternates (1) the exact assortment step at the current preference
vector with (2) GDLS: two gradient-descent steps on the revenue, each
started at step size 0.01 and halved until the iterate stays inside the
region.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .likelihood import ConfidenceRegion, OfflineDataset, confidence_radius, fit_mle
from .lp import ConstraintSet, best_assortment
from .model import Assortment, Catalog, ParamSpace, expected_revenue, expected_revenue_gradient

__all__ = [
    "PastaOptions",
    "GdlsStep",
    "SolveTrace",
    "gdls",
    "pasta_solve",
    "baseline_solve",
]


# GDLS: gradient steps per call, the first trial step size, the factor that
# shrinks it until the iterate is feasible, and the cap on shrinks per step
_GDLS_STEPS = 2
_GDLS_INIT_STEP = 0.01
_GDLS_SHRINK = 0.5
_GDLS_MAX_HALVINGS = 50


@dataclass(frozen=True)
class PastaOptions:
    """Outer alternation controls and confidence-region configuration.

    alpha_mode picks the radius rule of confidence_radius; alpha_override,
    when set, replaces that radius outright and must be >= 0. space defaults to ParamSpace's
    default ball in the catalog's dimension. The MLE fit runs with the
    FitOptions defaults.
    """

    max_outer_iters: int = 30
    alpha_mode: str = "empirical"
    alpha_override: float | None = None
    space: ParamSpace | None = None

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.alpha_mode not in ("empirical", "theoretical"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.alpha_override is not None and not self.alpha_override >= 0:
            raise ValueError(f"alpha_override must be >= 0, got {self.alpha_override}")


@dataclass(frozen=True)
class GdlsStep:
    """One inner descent step: the step size actually used and how many
    shrinks the feasibility search needed. accepted=False means the search
    exhausted the halving cap and the iterate stayed put."""

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
    *,
    history: list[GdlsStep] | None = None,
) -> np.ndarray:
    """Descend the expected revenue of s within the confidence region.

    Runs 2 gradient steps; each starts from step size 0.01 and halves it
    until the candidate lies in the region. A step whose search exhausts 50
    halvings is skipped, so the result is always feasible. theta_init must
    itself be feasible. Each step is appended to history when one is given.
    """
    s = catalog.check_assortment(s)
    if not s:
        raise ValueError("gdls needs a nonempty assortment")
    theta = np.asarray(theta_init, dtype=float)
    if not region.contains(theta):
        raise ValueError("theta_init lies outside the confidence region")
    for step_index in range(1, _GDLS_STEPS + 1):
        grad = expected_revenue_gradient(catalog, s, theta)
        beta = _GDLS_INIT_STEP
        halvings = 0
        accepted = False
        while halvings <= _GDLS_MAX_HALVINGS:
            cand = theta - beta * grad
            if region.contains(cand):
                accepted = True
                break
            beta *= _GDLS_SHRINK
            halvings += 1
        if history is not None:
            history.append(GdlsStep(step_index, beta, halvings, accepted))
        if accepted:
            theta = cand
    return theta


def build_region(
    dataset: OfflineDataset,
    catalog: Catalog,
    opts: PastaOptions,
) -> ConfidenceRegion:
    """Fit the MLE and assemble the confidence region per the options."""
    space = opts.space or ParamSpace(dim=catalog.dim)
    fit = fit_mle(dataset, catalog, space)
    if opts.alpha_override is not None:
        alpha = float(opts.alpha_override)
    else:
        alpha = confidence_radius(
            opts.alpha_mode,
            nll_at_ml=fit.nll,
            dim=catalog.dim,
            n=dataset.n,
            theta_max=space.theta_max,
        )
    return ConfidenceRegion(fit, dataset, catalog, space, alpha)


def pasta_solve(
    dataset: OfflineDataset,
    catalog: Catalog,
    cons: ConstraintSet,
    opts: PastaOptions | None = None,
) -> tuple[Assortment, SolveTrace]:
    """Pessimistic assortment optimization.

    Starting from the MLE, alternately (1) take the revenue-optimal assortment
    at the current preference vector, searched from the previous pick, and
    (2) descend that assortment's revenue within the confidence region. Stops
    after max_outer_iters, or earlier once the pair (assortment, theta) stops
    moving.
    """
    opts = opts or PastaOptions()
    region = build_region(dataset, catalog, opts)
    theta = region.fit.theta
    trace = SolveTrace(theta_ml=theta, alpha=region.alpha)
    s_prev: Assortment | None = None
    for t in range(1, opts.max_outer_iters + 1):
        s_t = best_assortment(catalog, theta, cons, start=s_prev or ())
        theta_t = gdls(catalog, s_t, region, theta)
        trace.iterations.append((t, s_t, theta_t, expected_revenue(catalog, s_t, theta_t)))
        settled = s_prev == s_t and float(np.linalg.norm(theta_t - theta)) < 1e-12
        theta, s_prev = theta_t, s_t
        if settled:
            trace.converged_early = True
            break
    return s_prev, trace


def baseline_solve(
    dataset: OfflineDataset,
    catalog: Catalog,
    cons: ConstraintSet,
    space: ParamSpace | None = None,
) -> Assortment:
    """Estimate-then-optimize: revenue-optimal assortment at the plain MLE."""
    fit = fit_mle(dataset, catalog, space)
    return best_assortment(catalog, fit.theta, cons)
