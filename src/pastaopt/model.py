"""Multinomial logit choice model: probabilities, expected revenue, sampling.

Items are indexed 1..N throughout the public API; 0 always denotes the
no-purchase outcome. Item i carries a feature vector x_i and a fixed
nonnegative revenue r_i, and a preference vector theta scores item i with
weight exp(x_i . theta) against a no-purchase weight of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Catalog",
    "ParamSpace",
    "ChoiceDistribution",
    "as_assortment",
    "choice_probabilities",
    "expected_revenue",
    "expected_revenue_gradient",
    "sample_choice",
]

Assortment = tuple[int, ...]


def as_assortment(members: Iterable[int]) -> Assortment:
    """Normalize a collection of 1-based item indices into a sorted tuple.

    Raises ValueError on duplicates or nonpositive indices. Emptiness is
    allowed here; operations that cannot accept the empty assortment check
    for it themselves.
    """
    s = tuple(sorted(int(i) for i in members))
    if any(i < 1 for i in s):
        raise ValueError(f"item indices must be >= 1, got {s}")
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate item indices in assortment {s}")
    return s


@dataclass(frozen=True)
class Catalog:
    """The N items on offer: one feature vector and one revenue per item.

    features has shape (N, d); revenues has shape (N,) with r_i >= 0.
    The implicit no-purchase option has revenue 0 and utility weight 1.
    """

    features: np.ndarray
    revenues: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        revenues = np.asarray(self.revenues, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array of shape (n_items, dim)")
        if revenues.ndim != 1 or revenues.shape[0] != features.shape[0]:
            raise ValueError("revenues must be 1-d with one entry per item")
        if features.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(revenues)):
            raise ValueError("features and revenues must be finite")
        if np.any(revenues < 0):
            raise ValueError("revenues must be nonnegative")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "revenues", revenues)

    @property
    def n_items(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def check_assortment(self, s: Iterable[int]) -> Assortment:
        s = as_assortment(s)
        if s and s[-1] > self.n_items:
            raise ValueError(f"assortment {s} references items beyond catalog size {self.n_items}")
        return s

    def utilities(self, theta: np.ndarray) -> np.ndarray:
        """x_i . theta for every item, shape (N,)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta must have shape ({self.dim},), got {theta.shape}")
        return self.features @ theta

    def to_json_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "d": self.dim,
            "revenues": [float(r) for r in self.revenues],
            "features": [[float(v) for v in row] for row in self.features],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Catalog":
        for key in ("n_items", "d", "revenues", "features"):
            if key not in obj:
                raise ValueError(f"catalog JSON lacks key {key!r}")
        catalog = cls(
            features=np.asarray(obj["features"], dtype=float),
            revenues=np.asarray(obj["revenues"], dtype=float),
        )
        if catalog.n_items != int(obj["n_items"]) or catalog.dim != int(obj["d"]):
            raise ValueError("catalog JSON header inconsistent with array shapes")
        return catalog


@dataclass(frozen=True)
class ParamSpace:
    """Euclidean ball of preference vectors: {theta : ||theta||_2 <= theta_max}."""

    dim: int
    theta_max: float = 100.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not np.isfinite(self.theta_max) or self.theta_max <= 0:
            raise ValueError("theta_max must be finite and positive")

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=float)
        return theta.shape == (self.dim,) and float(np.linalg.norm(theta)) <= self.theta_max

    def project(self, theta: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the ball; the result always passes contains."""
        theta = np.asarray(theta, dtype=float)
        norm = float(np.linalg.norm(theta))
        if norm <= self.theta_max:
            return theta
        out = theta * (self.theta_max / norm)
        # rounding can leave the norm an ulp above theta_max: shrink one ulp at a time
        while float(np.linalg.norm(out)) > self.theta_max:
            out = np.nextafter(out, 0.0)
        return out


@dataclass(frozen=True)
class ChoiceDistribution:
    """Choice probabilities over an assortment plus the no-purchase outcome.

    item_probs[k] is the probability of purchasing items[k]; no_purchase is
    the remaining mass. All masses are strictly positive and sum to one.
    """

    items: Assortment
    item_probs: np.ndarray
    no_purchase: float

    def as_array(self) -> np.ndarray:
        """Masses of the offered items in .items order, then no-purchase."""
        return np.append(self.item_probs, self.no_purchase)

    def prob_of(self, outcome: int) -> float:
        if outcome == 0:
            return self.no_purchase
        return float(self.item_probs[self.items.index(outcome)])


def _stable_weights(u: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(u - m) and the no-purchase weight exp(-m), m = max(0, max u).

    Shifting by the shared m keeps every exponential in (0, 1] even for
    extreme theta, and leaves every probability and revenue ratio unchanged.
    """
    m = max(0.0, float(u.max())) if len(u) else 0.0
    return np.exp(u - m), float(np.exp(-m))


def _choice_masses(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Purchase probabilities of the offered items, whose utilities are u,
    and the no-purchase probability; the caller has already checked the
    assortment."""
    w, w0 = _stable_weights(u)
    denom = w0 + w.sum()
    return w / denom, w0 / denom


def _choice_cdf(utilities: np.ndarray, s: Assortment) -> np.ndarray:
    """Running sum of the choice masses of s's items, then no purchase,
    divided by its last entry: Generator.choice's arithmetic, so
    cdf.searchsorted(u, side="right") is the outcome Generator.choice draws
    from the double u.

    utilities holds x_i . theta for the whole catalog and s is already
    checked. Raises ValueError, as Generator.choice does, on a non-finite or
    negative mass.
    """
    if not s:
        raise ValueError("cannot sample a choice from the empty assortment")
    item_probs, no_purchase = _choice_masses(utilities[np.asarray(s, dtype=int) - 1])
    masses = np.append(item_probs, no_purchase)
    if not (np.isfinite(masses).all() and (masses >= 0).all()):
        raise ValueError(f"choice probabilities must be finite and nonnegative, got {masses}")
    cdf = masses.cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_probabilities(catalog: Catalog, s: Iterable[int], theta: np.ndarray) -> ChoiceDistribution:
    """MNL purchase probabilities for assortment s under preference theta.

    P(i) = exp(x_i.theta) / (1 + sum_j exp(x_j.theta)) for offered i, and
    P(no purchase) takes the remaining 1 / (1 + sum_j ...) mass.
    """
    s = catalog.check_assortment(s)
    idx = np.asarray(s, dtype=int) - 1
    item_probs, no_purchase = _choice_masses(catalog.utilities(theta)[idx])
    return ChoiceDistribution(items=s, item_probs=item_probs, no_purchase=no_purchase)


def expected_revenue(catalog: Catalog, s: Iterable[int], theta: np.ndarray) -> float:
    """Expected revenue of offering s: sum_i r_i P(i | s; theta).

    The empty assortment is a valid degenerate input and yields 0.
    """
    s = catalog.check_assortment(s)
    if not s:
        return 0.0
    idx = np.asarray(s, dtype=int) - 1
    item_probs, _ = _choice_masses(catalog.utilities(theta)[idx])
    return float(catalog.revenues[idx] @ item_probs)


def expected_revenue_gradient(catalog: Catalog, s: Iterable[int], theta: np.ndarray) -> np.ndarray:
    """Gradient of expected_revenue with respect to theta.

    With p_i = P(i|s;theta) and v = expected revenue, the analytic form is
    sum_i p_i (r_i - v) x_i.
    """
    s = catalog.check_assortment(s)
    if not s:
        raise ValueError("gradient is undefined for the empty assortment")
    idx = np.asarray(s, dtype=int) - 1
    item_probs, _ = _choice_masses(catalog.utilities(theta)[idx])
    r = catalog.revenues[idx]
    v = float(r @ item_probs)
    return (item_probs * (r - v)) @ catalog.features[idx]


def sample_choice(
    catalog: Catalog, s: Iterable[int], theta: np.ndarray, rng: np.random.Generator
) -> int:
    """Draw one purchase outcome from s (1-based item index) or 0 for no purchase.

    Draws exactly one double u = rng.random() and returns the outcome at
    searchsorted(cdf, u, side="right"), where cdf is the running sum of the
    choice masses of s's items, then no purchase, divided by its last entry:
    the draw Generator.choice(len(s) + 1, p=masses) makes, stream and bytes.
    A non-finite or negative mass, such as a NaN theta gives, raises
    ValueError before anything is drawn.
    """
    s = catalog.check_assortment(s)
    cdf = _choice_cdf(catalog.utilities(theta), s)
    k = int(cdf.searchsorted(rng.random(), side="right"))
    return 0 if k == len(s) else s[k]
