"""Empirical negative log-likelihood, MLE fitting, and the confidence region.

The dataset is the usual offline log: for each customer visit, the shown
assortment S_i, the chosen item A_i (0 for no purchase), and the realized
revenue R_i. Fitting minimizes the sample-average negative log choice
probability over the preference ball; the confidence region collects every
theta whose likelihood gap to the MLE is at most a radius alpha.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import Assortment, Catalog, ParamSpace, as_assortment

__all__ = [
    "OfflineDataset",
    "FitOptions",
    "MleFit",
    "ConfidenceRegion",
    "neg_log_likelihood",
    "nll_gradient",
    "nll_hessian",
    "fit_mle",
    "confidence_radius",
]

_MAX_HALVINGS = 60  # backtracking steps per fit iteration; 2^-60 is below float resolution
_DELTA = 0.05  # confidence level of the theoretical radius
# Slack between a region's Lipschitz bound and alpha. It covers the rounding
# of an NLL pass, a few ulps of the largest |x_j . theta| per record (about
# 1e-12 at ||theta|| max_j ||x_j|| = 1000), and of the chained bound itself.
_BOUND_MARGIN = 1e-9
_CSV_HEADER = ["sample_id", "assortment", "choice", "revenue"]


def _distinct_assortments(assortments: Iterable[Iterable[int]]) -> tuple[list, np.ndarray]:
    """The normalized distinct assortments of a log, in order of first
    appearance, and each record's index among them. as_assortment runs once
    per distinct input tuple, so the first invalid assortment raises."""
    index_of: dict[Assortment, int] = {}
    index_of_input: dict[tuple, int] = {}
    inverse = []
    for key in map(tuple, assortments):
        if key not in index_of_input:
            index_of_input[key] = index_of.setdefault(as_assortment(key), len(index_of))
        inverse.append(index_of_input[key])
    return list(index_of), np.array(inverse, dtype=int)


class OfflineDataset:
    """n records of (assortment shown, item chosen, revenue realized).

    Assortments are sorted tuples of 1-based indices, shared between the
    records that repeat one; choice 0 means no purchase. Instances are
    immutable by convention. The constructor checks every record and builds
    the likelihood's layout: _slots (max_k, distinct assortments) holds the
    0-based items of each distinct assortment, in order of first appearance,
    padded with -2; _inverse maps each record to its column; _chosen is the
    0-based choice. In the utilities extended by (-inf, 0.0) a pad reads
    -inf, whose exp is exactly 0, and a no-purchase choice (-1) reads 0.0.
    """

    def __init__(
        self,
        assortments: Sequence[Iterable[int]],
        choices: Sequence[int],
        revenues: Sequence[float],
    ):
        if not (len(assortments) == len(choices) == len(revenues)):
            raise ValueError("assortments, choices, revenues must have equal length")
        if len(assortments) == 0:
            raise ValueError("dataset is empty")
        distinct, inverse = _distinct_assortments(assortments)
        self.assortments: list[Assortment] = [distinct[i] for i in inverse.tolist()]
        values = np.asarray(choices, dtype=float)
        integral = np.isfinite(values) & (values == np.round(values))
        self.choices = np.where(integral, values, -1).astype(int)  # -1 is never offered
        self.revenues = np.asarray(revenues, dtype=float)
        slots = np.full((max(map(len, distinct)), len(distinct)), -1, dtype=int)
        for i, s in enumerate(distinct):
            slots[: len(s), i] = s
        slots -= 1  # 1-based items to 0-based, pads -1 to -2
        chosen = self.choices - 1  # -1 marks no purchase
        hit = np.zeros(len(chosen), dtype=bool)
        for row in slots:  # row by row, so the gather holds n ints, not max_k * n
            hit |= row[inverse] == chosen
        offered = (chosen == -1) | ((chosen >= 0) & hit)  # a pad (-2) hits a choice of -1
        bad = (slots < 0).all(axis=0)[inverse] | ~offered
        if bad.any():
            i = int(np.argmax(bad))
            if not self.assortments[i]:
                raise ValueError("dataset records must have nonempty assortments")
            a = int(values[i]) if integral[i] else values[i]
            raise ValueError(f"choice {a} not offered in assortment {self.assortments[i]}")
        if np.any(self.revenues < 0):
            raise ValueError("revenues must be nonnegative")
        if not np.all(np.isfinite(self.revenues)):
            raise ValueError("revenues must be finite and nonnegative")
        self._slots, self._inverse, self._chosen = slots, inverse, chosen
        self._max_item = int(slots.max()) + 1

    @property
    def n(self) -> int:
        return len(self.assortments)

    def records(self) -> Iterator[tuple[Assortment, int, float]]:
        for s, a, r in zip(self.assortments, self.choices, self.revenues):
            yield s, int(a), float(r)

    # CSV format: header sample_id,assortment,choice,revenue with the
    # assortment as semicolon-joined sorted 1-based indices.
    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(_CSV_HEADER)
            for i, (s, a, r) in enumerate(self.records(), start=1):
                writer.writerow([i, ";".join(str(j) for j in s), a, f"{r:.17g}"])

    @classmethod
    def load_csv(cls, path: str | Path) -> "OfflineDataset":
        assortments, choices, revenues = [], [], []
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, [])  # a zero-byte file has no header row
            if header != _CSV_HEADER:
                found, expected = ",".join(header) or "an empty file", ",".join(_CSV_HEADER)
                raise ValueError(f"{path}: expected the header {expected}, got {found}")
            for row in reader:
                try:
                    _, members, choice, revenue = row
                    assortments.append(tuple(int(t) for t in members.split(";") if t))
                    choices.append(int(choice))
                    revenues.append(float(revenue))
                except ValueError as exc:  # a wrong field count fails the unpacking
                    problem = f"an unparsable field: {exc}"
                    if len(row) != len(header):
                        problem = f"{len(row)} fields, expected {len(header)}"
                    raise ValueError(f"{path}: line {reader.line_num} has {problem}") from None
        return cls(assortments, choices, revenues)


def _check_catalog(dataset: OfflineDataset, catalog: Catalog) -> None:
    if dataset._max_item > catalog.n_items:
        raise ValueError(
            f"dataset offers item {dataset._max_item} beyond the {catalog.n_items}-item catalog"
        )


def _derivative_layout(
    dataset: OfflineDataset, catalog: Catalog
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What a derivative pass needs that depends on the log and the catalog
    alone: the slot features x[slots.T] (distinct, max_k, d); each offered
    slot's 0-based item, record by record; that slot's flat position in the
    C-ordered (distinct, max_k) rows array of the pass; and the purchase
    count of every item. The items and positions keep the order of
    rows[inverse][mask], so sums over them run in record order."""
    _check_catalog(dataset, catalog)
    slots_t = dataset._slots.T
    idx = slots_t[dataset._inverse]
    mask = idx >= 0
    positions = dataset._inverse[:, None] * slots_t.shape[1] + np.arange(slots_t.shape[1])
    chosen = dataset._chosen
    purchases = np.bincount(chosen[chosen >= 0], minlength=catalog.n_items)
    return catalog.features[slots_t], idx[mask], positions[mask], purchases


def _nll_pass(
    dataset: OfflineDataset,
    catalog: Catalog,
    theta: np.ndarray,
    layout: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """The NLL at theta and, when a _derivative_layout of the same dataset
    and catalog is given, its gradient and Hessian, all from one log-sum-exp
    per distinct assortment. layout None means the NLL alone.

    Per record the score is sum_{j in S} P(j|S;theta) x_j - x_A (dropping
    the x_A term for no-purchase records), and the Hessian is the covariance
    of x_j under the choice probabilities P(j|S;theta), with no-purchase
    contributing the zero vector; both average over records. Accumulation
    happens in per-item weight space so a single (N, d) product yields the
    gradient. The choice probabilities, and the mean feature they weight,
    are computed once per distinct assortment and gathered back to records
    before any sum over records, so those sums run in record order. The
    layout carries every gather that does not depend on theta, so a fit
    builds it once for all its passes.

    The gathered utilities sit one column per assortment, so the row max is
    a reduction down the short first axis, which numpy runs as one
    vectorized loop over all columns rather than one small loop per row; a
    max is exact in any order. The sum of exp terms is not: it runs along
    the rows of a row-major copy, numpy's pairwise sum over each padded row,
    the order the per-record evaluation uses, so the results keep their
    bytes.
    """
    _check_catalog(dataset, catalog)
    slots, inverse, chosen = dataset._slots, dataset._inverse, dataset._chosen
    ue = np.concatenate((catalog.utilities(theta), (-np.inf, 0.0)))
    cols = ue[slots]
    m = np.maximum(0.0, cols.max(axis=0))
    terms = np.ascontiguousarray(np.exp(cols - m).T)
    log_denom = m + np.log(np.exp(-m) + terms.sum(axis=1))
    nll = float(np.mean(log_denom[inverse] - ue[chosen]))
    if not math.isfinite(nll):
        raise FloatingPointError("non-finite likelihood; data or theta out of range")
    if layout is None:
        return nll, None, None
    slot_x, items, positions, purchases = layout
    x = catalog.features
    rows = np.ascontiguousarray(np.exp(cols - log_denom).T)
    # the mean feature per distinct assortment; padded slots carry zero mass
    mean_x = np.einsum("ik,ikd->id", rows, slot_x)[inverse]
    item_prob = np.bincount(items, weights=rows.ravel()[positions], minlength=catalog.n_items)
    grad = ((item_prob - purchases) @ x) / dataset.n
    hess = ((x.T * item_prob) @ x - mean_x.T @ mean_x) / dataset.n
    return nll, grad, hess


def neg_log_likelihood(dataset: OfflineDataset, catalog: Catalog, theta: np.ndarray) -> float:
    """Sample-average negative log choice probability of the observed choices."""
    return _nll_pass(dataset, catalog, theta, None)[0]


def nll_gradient(dataset: OfflineDataset, catalog: Catalog, theta: np.ndarray) -> np.ndarray:
    """Gradient of neg_log_likelihood in theta."""
    return _nll_pass(dataset, catalog, theta, _derivative_layout(dataset, catalog))[1]


def nll_hessian(dataset: OfflineDataset, catalog: Catalog, theta: np.ndarray) -> np.ndarray:
    """Hessian of neg_log_likelihood in theta: the average choice-weighted
    covariance of the offered features (positive semidefinite)."""
    return _nll_pass(dataset, catalog, theta, _derivative_layout(dataset, catalog))[2]


@dataclass(frozen=True)
class FitOptions:
    """Damped-Newton controls for MLE fitting."""

    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class MleFit:
    """Result of fit_mle: the estimate plus convergence bookkeeping.

    grad_norm is the stationarity measure the stop test uses: the
    projected-gradient residual ||theta - P(theta - grad)||, with P the
    projection onto the preference ball. It equals the gradient norm
    whenever theta - grad lies in the ball (at an interior optimum, once
    the fit is close); on the boundary it leaves out the outward part of the
    gradient that the constraint absorbs. converged means
    grad_norm <= grad_tol.
    """

    theta: np.ndarray
    converged: bool
    n_iters: int
    nll: float
    grad_norm: float


def _ball_model_minimizer(
    theta: np.ndarray, grad: np.ndarray, hess: np.ndarray, radius: float
) -> np.ndarray:
    """Minimizer z of the quadratic model grad.(z - theta) + (z - theta).H(z - theta)/2
    over the ball ||z|| <= radius.

    With H = Q diag(lam) Q^T and c = Q^T (H theta - grad), the minimizer is
    z(mu) = Q (c / (lam + mu)) with mu = 0 when that lies in the ball and
    otherwise the mu > 0 solving ||z(mu)|| = radius. The secular equation
    1/radius - 1/||z(mu)|| = 0 is convex and decreasing in mu, so Newton's
    method started left of the root climbs to it monotonically.
    """
    lam, q = np.linalg.eigh(hess)
    noise = max(float(lam[-1]), 0.0) * 1e-14 * len(lam)  # H is PSD up to rounding
    lam = np.where(lam > noise, lam, 0.0)
    c = q.T @ (hess @ theta - grad)

    def ratio(num: np.ndarray, mu: float) -> np.ndarray:
        # a zero denominator only meets a zero numerator: mu starts at 0 only if c_null = 0
        return np.divide(num, lam + mu, out=np.zeros_like(num), where=lam + mu > 0)

    c_null = float(np.linalg.norm(c[lam == 0.0]))
    mu = c_null / radius  # if c_null > 0, ||z(mu)|| >= radius there: left of the root
    z = ratio(c, mu)
    norm = float(np.linalg.norm(z))
    for _ in range(100):
        if norm - radius <= 1e-12 * radius:
            break
        curvature = float(np.sum(ratio(z * z, mu)))  # sum c^2 / (lam + mu)^3
        mu += (norm**2 / curvature) * (norm - radius) / radius
        z = ratio(c, mu)
        norm = float(np.linalg.norm(z))
    return q @ z


def _projected_residual(space: ParamSpace, theta: np.ndarray, grad: np.ndarray) -> float:
    return float(np.linalg.norm(theta - space.project(theta - grad)))


def fit_mle(
    dataset: OfflineDataset,
    catalog: Catalog,
    space: ParamSpace | None = None,
    opts: FitOptions | None = None,
) -> MleFit:
    """Maximize the likelihood by damped Newton steps from theta = 0.

    Each iteration minimizes the second-order model of the NLL over the
    preference ball and backtracks along the segment toward that minimizer
    (halving the step, Armijo condition) until the NLL drops. Stops when the
    projected-gradient residual reaches grad_tol, when no step along the
    segment decreases the loss at float resolution, or after max_iters.
    Each evaluated theta costs one likelihood pass, which yields the NLL,
    gradient and Hessian together; the accepted candidate's carry into the
    next iteration, so a fit that rejects no candidate makes 1 + n_iters
    passes.
    """
    space = space or ParamSpace(dim=catalog.dim)
    if space.dim != catalog.dim:
        raise ValueError("parameter space dimension must match catalog features")
    opts = opts or FitOptions()
    layout = _derivative_layout(dataset, catalog)
    theta = np.zeros(catalog.dim)
    nll, grad, hess = _nll_pass(dataset, catalog, theta, layout)
    residual = _projected_residual(space, theta, grad)
    it = 0
    while residual > opts.grad_tol and it < opts.max_iters:
        direction = _ball_model_minimizer(theta, grad, hess, space.theta_max) - theta
        slope = float(grad @ direction)
        if not slope < 0:
            break  # the model sees no descent at float resolution
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = space.project(theta + step * direction)
            cand_pass = _nll_pass(dataset, catalog, cand, layout)
            if cand_pass[0] <= nll + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no improving step exists at float resolution
        theta, (nll, grad, hess) = cand, cand_pass
        residual = _projected_residual(space, theta, grad)
        it += 1
    return MleFit(
        theta=theta,
        converged=residual <= opts.grad_tol,
        n_iters=it,
        nll=nll,
        grad_norm=residual,
    )


def confidence_radius(
    mode: str,
    *,
    nll_at_ml: float | None = None,
    dim: int | None = None,
    n: int | None = None,
    theta_max: float | None = None,
) -> float:
    """Radius alpha of the likelihood-ratio confidence region.

    mode "empirical": 2 * (NLL at the MLE), which needs nll_at_ml. mode
    "theoretical": the rate-shaped radius (dim / n) * log(theta_max / delta)
    at the fixed confidence level delta = 0.05, which needs dim, n and
    theta_max > delta. Arguments the mode does not use are ignored.
    """
    if mode == "empirical":
        if nll_at_ml is None:
            raise ValueError("empirical mode needs nll_at_ml")
        alpha = 2.0 * nll_at_ml
    elif mode == "theoretical":
        if None in (dim, n, theta_max):
            raise ValueError("theoretical mode needs dim, n, theta_max")
        if not theta_max > _DELTA:
            raise ValueError(
                f"theoretical radius needs theta_max > delta = {_DELTA}, got {theta_max}"
            )
        alpha = (dim / n) * math.log(theta_max / _DELTA)
    else:
        raise ValueError(f"unknown confidence radius mode {mode!r}")
    if not alpha > 0:
        raise ValueError(f"degenerate confidence radius {alpha}; check the dataset")
    return float(alpha)


@dataclass(frozen=True)
class ConfidenceRegion:
    """All theta in the ball whose likelihood gap to the MLE is within alpha.

    The region is the fit it is centred on plus the radius alpha. It relies
    on one invariant: fit.nll is neg_log_likelihood(dataset, catalog,
    fit.theta) to the bit, which fit_mle guarantees.

    Membership keeps one anchor: a point theta_m and an upper bound U on the
    NLL there, seeded from the fit, where U is exact. The NLL is G-Lipschitz
    with G = 2 max_j ||x_j|| over the catalog, because each record's score
    sum_j P(j) x_j - x_A has norm at most 2 max_j ||x_j|| (no-purchase
    counts as x = 0). So a theta in the ball whose bound
    U + G ||theta - theta_m|| leaves a gap of at most alpha - _BOUND_MARGIN
    is accepted without a likelihood pass, and the anchor moves to theta
    with that bound. Any other theta gets the exact pass, reused when theta
    is the anchor and U is exact, and the anchor moves to theta with the
    exact value. The bound accepts only points the exact test accepts, so
    the verdicts are those of a plain neg_log_likelihood(theta) - fit.nll <=
    alpha; the ball test runs on every call.
    """

    fit: MleFit
    dataset: OfflineDataset
    catalog: Catalog
    space: ParamSpace
    alpha: float
    _lipschitz: float = field(init=False, compare=False, repr=False)
    # (theta_m, U >= NLL(theta_m), whether U is the exact NLL)
    _anchor: tuple[np.ndarray, float, bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lipschitz = 2.0 * float(np.linalg.norm(self.catalog.features, axis=1).max())
        object.__setattr__(self, "_lipschitz", lipschitz)
        object.__setattr__(self, "_anchor", (self.fit.theta.copy(), self.fit.nll, True))

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=float)
        if not self.space.contains(theta):
            return False
        anchor, bound, exact = self._anchor
        offset = theta - anchor
        step = math.sqrt(offset.dot(offset))  # np.linalg.norm's arithmetic on a vector
        bound += self._lipschitz * step
        if bound - self.fit.nll <= self.alpha - _BOUND_MARGIN:
            if step > 0:
                object.__setattr__(self, "_anchor", (theta.copy(), bound, False))
            return True
        if not (exact and np.array_equal(theta, anchor)):
            bound = neg_log_likelihood(self.dataset, self.catalog, theta)
            object.__setattr__(self, "_anchor", (theta.copy(), bound, True))
        return bound - self.fit.nll <= self.alpha
