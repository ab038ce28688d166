"""Distance and estimation diagnostics used as test oracles.

Everything here works on the finite outcome space of a choice distribution
(the offered items plus no-purchase), so quantities that are integrals in
general are exact finite sums: squared Hellinger distance between two
conditionals, its expectation under an assortment distribution, conditional
KL, the inverse-propensity value estimate, and an explicit Lipschitz bound
on the log choice-probability ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .likelihood import OfflineDataset
from .model import Assortment, Catalog, ChoiceDistribution, as_assortment, choice_probabilities

__all__ = [
    "AssortmentDistribution",
    "squared_hellinger",
    "generalized_hellinger",
    "kl_divergence",
    "ipw_value_estimate",
    "log_ratio_lipschitz_bound",
    "population_nll",
    "run_diagnostic_suite",
]


@dataclass(frozen=True)
class AssortmentDistribution:
    """A finitely supported distribution over assortments."""

    support: tuple[Assortment, ...]
    masses: np.ndarray

    def __post_init__(self):
        support = tuple(as_assortment(s) for s in self.support)
        masses = np.asarray(self.masses, dtype=float)
        if len(support) != len(masses) or len(support) == 0:
            raise ValueError("support and masses must be nonempty and equal-length")
        if len(set(support)) != len(support):
            raise ValueError("support entries must be distinct")
        if np.any(masses <= 0) or abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must be positive and sum to 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)


def _masses(p: ChoiceDistribution | Sequence[float]) -> np.ndarray:
    if isinstance(p, ChoiceDistribution):
        return p.as_array()
    return np.asarray(p, dtype=float)


def squared_hellinger(
    p: ChoiceDistribution | Sequence[float], q: ChoiceDistribution | Sequence[float]
) -> float:
    """0.5 * sum_a (sqrt(p_a) - sqrt(q_a))^2 over a shared outcome space."""
    if isinstance(p, ChoiceDistribution) and isinstance(q, ChoiceDistribution):
        if p.items != q.items:
            raise ValueError(f"mismatched outcome spaces {p.items} vs {q.items}")
    pa, qa = _masses(p), _masses(q)
    if pa.shape != qa.shape:
        raise ValueError("distributions must share an outcome space")
    return float(0.5 * np.sum((np.sqrt(pa) - np.sqrt(qa)) ** 2))


def generalized_hellinger(
    catalog: Catalog,
    dist: AssortmentDistribution,
    theta1: np.ndarray,
    theta2: np.ndarray,
    squared: bool = True,
) -> float:
    """Expected conditional Hellinger discrepancy under dist.

    squared=True averages the squared distances (the usual analysis
    quantity); squared=False averages their square roots, giving the
    unsquared variant whose square lower-bounds the squared one.
    """
    total = 0.0
    for s, mass in zip(dist.support, dist.masses):
        h2 = squared_hellinger(
            choice_probabilities(catalog, s, theta1), choice_probabilities(catalog, s, theta2)
        )
        total += float(mass) * (h2 if squared else np.sqrt(h2))
    return total


def kl_divergence(
    catalog: Catalog, s: Iterable[int], theta_ref: np.ndarray, theta: np.ndarray
) -> float:
    """KL(P(.|s;theta_ref) || P(.|s;theta)); finite since MNL masses are positive."""
    p = choice_probabilities(catalog, s, theta_ref).as_array()
    q = choice_probabilities(catalog, s, theta).as_array()
    return float(np.sum(p * np.log(p / q)))


def ipw_value_estimate(dataset: OfflineDataset, s: Iterable[int], pi_s: float) -> float:
    """Inverse-propensity estimate of the expected revenue of offering s.

    Averages 1(S_i = s) R_i / pi_s over the dataset, where pi_s is the
    probability with which the logging policy showed s.
    """
    if not pi_s > 0:
        raise ValueError("pi_s must be positive")
    s = as_assortment(s)
    total = sum(r for s_i, _, r in dataset.records() if s_i == s)
    return total / (pi_s * dataset.n)


def log_ratio_lipschitz_bound(catalog: Catalog, theta_max: float) -> float:
    """Uniform Lipschitz constant of theta -> log choice-probability ratio.

    Evaluates x_max + 2 N x_max exp(x_max theta_max) with x_max the largest
    feature norm; valid for any outcome, assortment, and reference point
    with both parameters inside the theta_max ball.
    """
    if theta_max < 0:
        raise ValueError("theta_max must be nonnegative")
    x_max = float(np.max(np.linalg.norm(catalog.features, axis=1)))
    return x_max + 2.0 * catalog.n_items * x_max * np.exp(x_max * theta_max)


def population_nll(
    catalog: Catalog,
    dist: AssortmentDistribution,
    theta_true: np.ndarray,
    theta: np.ndarray,
) -> float:
    """Exact population cross-entropy loss under the generating parameters.

    Enumerates the assortment support and the conditional outcomes, so the
    value carries no sampling noise: E_S E_{A|S;theta_true}[-log P(A|S;theta)].
    """
    total = 0.0
    for s, mass in zip(dist.support, dist.masses):
        p = choice_probabilities(catalog, s, theta_true).as_array()
        q = choice_probabilities(catalog, s, theta).as_array()
        total += float(mass) * float(-(p @ np.log(q)))
    return total


def _random_setup(rng: np.random.Generator):
    """A small random catalog, an assortment distribution over it, and three thetas."""
    n = int(rng.integers(2, 7))
    d = int(rng.integers(1, 5))
    catalog = Catalog(
        features=rng.standard_normal((n, d)), revenues=rng.uniform(0.0, 1.0, size=n)
    )
    pool = [tuple(int(j + 1) for j in np.flatnonzero(bits)) for bits in rng.random((4, n)) < 0.5]
    support = sorted({s for s in pool if s}) or [tuple(range(1, n + 1))]
    masses = rng.uniform(0.2, 1.0, size=len(support))
    masses /= masses.sum()
    dist = AssortmentDistribution(support=tuple(support), masses=masses)
    thetas = [rng.standard_normal(d) * 0.8 for _ in range(3)]
    return catalog, dist, thetas


def run_diagnostic_suite(trials: int = 500, seed: int = 2024) -> list[tuple[str, bool, str]]:
    """Randomized self-check of the distance inequalities these diagnostics
    are built on. Returns (name, passed, detail) per check; slack 1e-10.
    """
    rng = np.random.default_rng(seed)
    slack = 1e-10
    worst = {
        "hellinger triangle": 0.0,
        "H^2 between H squared and H": 0.0,
        "relaxed triangle for H^2": 0.0,
        "KL >= 2 h^2": 0.0,
        "population loss gap >= 2 H^2": 0.0,
        "L1 <= 2 sqrt(2) sqrt(H^2)": 0.0,
    }
    for _ in range(trials):
        catalog, dist, (t1, t2, t3) = _random_setup(rng)
        h = {
            (a, b): generalized_hellinger(catalog, dist, ta, tb, squared=False)
            for (a, ta), (b, tb) in [((1, t1), (2, t2)), ((1, t1), (3, t3)), ((2, t2), (3, t3))]
        }
        h2 = {
            (a, b): generalized_hellinger(catalog, dist, ta, tb, squared=True)
            for (a, ta), (b, tb) in [((1, t1), (2, t2)), ((1, t1), (3, t3)), ((2, t2), (3, t3))]
        }
        worst["hellinger triangle"] = max(
            worst["hellinger triangle"], h[(1, 2)] - h[(1, 3)] - h[(2, 3)]
        )
        worst["H^2 between H squared and H"] = max(
            worst["H^2 between H squared and H"],
            h[(1, 2)] ** 2 - h2[(1, 2)],
            h2[(1, 2)] - h[(1, 2)],
        )
        worst["relaxed triangle for H^2"] = max(
            worst["relaxed triangle for H^2"], h2[(1, 2)] - 2 * h2[(1, 3)] - 2 * h2[(2, 3)]
        )
        s = dist.support[int(rng.integers(len(dist.support)))]
        kl = kl_divergence(catalog, s, t1, t2)
        h2_cond = squared_hellinger(
            choice_probabilities(catalog, s, t1), choice_probabilities(catalog, s, t2)
        )
        worst["KL >= 2 h^2"] = max(worst["KL >= 2 h^2"], 2 * h2_cond - kl)
        gap = population_nll(catalog, dist, t1, t2) - population_nll(catalog, dist, t1, t1)
        worst["population loss gap >= 2 H^2"] = max(
            worst["population loss gap >= 2 H^2"], 2 * h2[(1, 2)] - gap
        )
        l1 = sum(
            float(mass)
            * float(
                np.abs(
                    choice_probabilities(catalog, s, t1).as_array()
                    - choice_probabilities(catalog, s, t2).as_array()
                ).sum()
            )
            for s, mass in zip(dist.support, dist.masses)
        )
        worst["L1 <= 2 sqrt(2) sqrt(H^2)"] = max(
            worst["L1 <= 2 sqrt(2) sqrt(H^2)"], l1 - 2 * np.sqrt(2.0) * np.sqrt(h2[(1, 2)])
        )
    return [
        (name, bool(violation <= slack), f"worst violation {violation:.3e}")
        for name, violation in worst.items()
    ]
