"""Synthetic instance and offline-dataset generation.

An instance is a catalog plus a known ground-truth preference vector and
its optimal assortment, so the regret of any solver output is computable
exactly. Offline datasets are logged under a design that shows the optimal
assortment with probability p and spreads the rest uniformly over every
other feasible assortment, which makes coverage of the optimum the only
guaranteed property of the log.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable

import numpy as np

from .lp import best_assortment, cardinality_constraints
from .model import Assortment, Catalog, _choice_cdf, as_assortment, expected_revenue
from .likelihood import OfflineDataset
from .rng import derive_rng

__all__ = [
    "InstanceConfig",
    "Instance",
    "SamplingDesign",
    "count_assortments",
    "generate_instance",
    "sample_assortment",
    "generate_dataset",
]

# per item, the draws that pass the norm guard before generate_instance gives up
_MAX_REJECTIONS = 100_000
# rows per feature draw block: 512 KiB of float64 at dim 64
_FEATURE_BLOCK = 1024
# widens the vectorized screen so it admits every row the scalar test accepts
_SCREEN_SLACK = 1e-9


def count_assortments(n_items: int, k: int) -> int:
    """Number of nonempty assortments of size at most k, as an exact integer."""
    if not 1 <= k <= n_items <= 64:
        raise ValueError(f"need 1 <= k <= n_items <= 64, got k={k}, n_items={n_items}")
    return sum(math.comb(n_items, j) for j in range(1, k + 1))


@dataclass(frozen=True)
class InstanceConfig:
    """Scenario knobs: catalog size, cardinality bound, feature dimension,
    how the true preference vector is drawn, and the acceptance threshold
    tau enforced on every item's utility (x_i . theta_star <= tau)."""

    n_items: int
    k: int
    dim: int
    seed: int
    theta_star_mode: str = "unit-sphere"
    tau: float = -0.6
    r_lo: float = 0.5
    r_hi: float = 0.8

    def __post_init__(self):
        if not 1 <= self.k <= self.n_items:
            raise ValueError("need 1 <= k <= n_items")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.r_lo > self.r_hi:
            raise ValueError("empty revenue range")
        if self.tau >= 0:
            raise ValueError("tau must be negative")
        if self.theta_star_mode not in ("unit-sphere", "iid-uniform"):
            raise ValueError(f"unknown theta_star_mode {self.theta_star_mode!r}")


@dataclass(frozen=True)
class Instance:
    """A fully known scenario: catalog, truth, and the true optimum."""

    catalog: Catalog
    theta_star: np.ndarray
    s_star: Assortment
    v_star: float
    config: InstanceConfig

    def to_json_dict(self) -> dict:
        d = self.catalog.to_json_dict()
        d["theta_star"] = [float(v) for v in self.theta_star]
        d["s_star"] = list(self.s_star)
        d["v_star"] = self.v_star
        d["config"] = asdict(self.config)
        return d

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Instance":
        for key in ("theta_star", "s_star", "v_star", "config"):
            if key not in obj:
                raise ValueError(f"instance JSON lacks key {key!r}")
        try:
            config = InstanceConfig(**obj["config"])
        except TypeError as exc:  # an unexpected or missing config key
            raise ValueError(f"instance JSON config: {exc}") from exc
        return cls(
            catalog=Catalog.from_json_dict(obj),
            theta_star=np.asarray(obj["theta_star"], dtype=float),
            s_star=as_assortment(obj["s_star"]),
            v_star=float(obj["v_star"]),
            config=config,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Instance":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    # normalizing a standard normal draw is rotation invariant, hence uniform
    while True:
        z = rng.standard_normal(dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-12:
            return z / norm


def _draw_features(
    rng: np.random.Generator, theta_star: np.ndarray, n_items: int, tau: float
) -> np.ndarray:
    """Item features by rejection: the i-th row is the first unit vector x
    after row i-1's with x . theta_star <= tau.

    Gives the bytes of drawing one _unit_vector(rng, dim) per attempt. Row j
    of a standard_normal((B, dim)) block holds the values the j-th sequential
    draw would take, so rng must have no other consumer. The vectorized
    screen admits a superset of the accepted rows; each admitted row is
    re-checked, and stored, with the scalar arithmetic of _unit_vector.
    _MAX_REJECTIONS caps, per item, the draws that pass the norm guard, and
    the count runs across block boundaries.
    """
    dim = theta_star.shape[0]
    features = np.empty((n_items, dim))
    item = attempts = 0  # attempts: guarded draws spent on `item` in earlier blocks
    while True:
        z = rng.standard_normal((_FEATURE_BLOCK, dim))
        norms = np.linalg.norm(z, axis=1)
        # the row-wise norm may differ from the scalar one in its last bits,
        # so rows near the guard are settled with the scalar norm
        valid = norms > 2e-12
        for j in np.flatnonzero(~valid):
            valid[j] = float(np.linalg.norm(z[j])) > 1e-12
        rank = np.cumsum(valid)  # rank[j]: guarded draws in z[: j + 1]
        used = 0  # rank of the row that closed the previous item in this block
        screen = valid & (z @ theta_star <= (tau + _SCREEN_SLACK) * norms)
        for j in np.flatnonzero(screen):
            x = z[j] / float(np.linalg.norm(z[j]))
            if float(x @ theta_star) > tau:
                continue
            if attempts + rank[j] - used > _MAX_REJECTIONS:
                break
            features[item] = x
            item, attempts, used = item + 1, 0, rank[j]
            if item == n_items:
                return features
        attempts += rank[-1] - used
        if attempts >= _MAX_REJECTIONS:
            raise RuntimeError(
                f"item {item + 1}: none of {_MAX_REJECTIONS} unit vectors drawn from the "
                f"whole sphere had utility <= {tau} (dim {dim}); use theta_star_mode "
                "'iid-uniform' (--theta-mode iid-uniform) or a larger tau"
            )


def generate_instance(cfg: InstanceConfig) -> Instance:
    """Draw a scenario and compute its ground-truth optimal assortment.

    theta_star is a uniform unit vector (or iid Uniform[-1,1] coordinates in
    iid-uniform mode); item features are uniform unit vectors re-drawn until
    x_i . theta_star <= tau, so no single item dominates; revenues are
    uniform on [r_lo, r_hi]. The optimum is computed with the exact top-K
    assortment rule for the cardinality bound.

    Features are drawn in blocks that reproduce, byte for byte, one
    _unit_vector draw per attempt from the "features" stream, which feeds
    nothing else. Each item gets at most _MAX_REJECTIONS draws that pass the
    norm guard; past that RuntimeError is raised. A reachable threshold can
    still raise when too little of the sphere lies below it, as with the
    default tau at high dimension under a unit-sphere theta_star.
    """
    theta_rng = derive_rng(cfg.seed, 0, "theta")
    feat_rng = derive_rng(cfg.seed, 0, "features")
    rev_rng = derive_rng(cfg.seed, 0, "revenues")
    if cfg.theta_star_mode == "unit-sphere":
        theta_star = _unit_vector(theta_rng, cfg.dim)
    else:
        theta_star = theta_rng.uniform(-1.0, 1.0, size=cfg.dim)
    features = _draw_features(feat_rng, theta_star, cfg.n_items, cfg.tau)
    revenues = rev_rng.uniform(cfg.r_lo, cfg.r_hi, size=cfg.n_items)
    catalog = Catalog(features=features, revenues=revenues)
    s_star = best_assortment(catalog, theta_star, cardinality_constraints(cfg.n_items, cfg.k))
    v_star = expected_revenue(catalog, s_star, theta_star)
    return Instance(
        catalog=catalog, theta_star=theta_star, s_star=s_star, v_star=v_star, config=cfg
    )


@dataclass(frozen=True)
class SamplingDesign:
    """Logging policy: mass p on the optimal assortment, the remaining
    (1 - p) split evenly over every other assortment of size 1..k.

    size_totals holds the running totals of C(n_items, j) for j = 1..k; its
    last entry is n_assortments."""

    p: float
    n_items: int
    k: int
    n_assortments: int = field(init=False)
    size_totals: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        n_assortments = count_assortments(self.n_items, self.k)
        if n_assortments < 2:
            # every draw that misses the optimum would be re-drawn forever
            raise ValueError(
                f"a logging design needs at least 2 nonempty assortments, got "
                f"{n_assortments} (n_items={self.n_items}, k={self.k})"
            )
        object.__setattr__(self, "n_assortments", n_assortments)
        totals = itertools.accumulate(math.comb(self.n_items, j) for j in range(1, self.k + 1))
        object.__setattr__(self, "size_totals", tuple(totals))

    def mass_of(self, s: Iterable[int], s_star: Iterable[int]) -> float:
        s, s_star = as_assortment(s), as_assortment(s_star)
        if s == s_star:
            return self.p
        return (1.0 - self.p) / (self.n_assortments - 1)


def _uniform_below(rng: np.random.Generator, total: int) -> int:
    """Uniform integer in [0, total) for arbitrarily large totals."""
    nbits = total.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        t = int.from_bytes(rng.bytes(nbytes), "little") & mask
        if t < total:
            return t


def sample_assortment(
    instance: Instance, design: SamplingDesign, rng: np.random.Generator
) -> Assortment:
    """One draw from the logging policy.

    With probability p the optimal assortment; otherwise a size j is drawn
    with exact weight C(N, j), a uniform j-subset is drawn, and the pair is
    re-drawn whenever it collides with the optimum, which leaves the draw
    exactly uniform over the remaining assortments.
    """
    if rng.random() < design.p:
        return instance.s_star
    n = design.n_items
    while True:
        t = _uniform_below(rng, design.n_assortments)
        size = 1 + bisect.bisect_right(design.size_totals, t)
        s = as_assortment(int(j) + 1 for j in rng.choice(n, size=size, replace=False))
        if s != instance.s_star:
            return s


def generate_dataset(
    instance: Instance, design: SamplingDesign, n: int, rng: np.random.Generator
) -> OfflineDataset:
    """n i.i.d. logged records: assortment from the design, choice from the
    true MNL, revenue of the chosen item (0 for no purchase).

    The generator is split into one stream per record component, so
    extending n appends records without reshuffling earlier ones.
    Assortments are drawn record by record. The choice stream gives exactly
    one double u_i = random() per record, drawn in one call, and record i's
    choice is sample_choice's outcome for u_i: cdf.searchsorted(u_i,
    side="right"), where cdf is the running sum of the true choice masses of
    S_i's items, then no purchase, divided by its last entry. The cdf is
    formed once per distinct assortment; a non-finite or negative mass
    raises ValueError before any choice is drawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    assort_rng, choice_rng = rng.spawn(2)
    catalog = instance.catalog
    assortments = [sample_assortment(instance, design, assort_rng) for _ in range(n)]
    records: dict[Assortment, list[int]] = {}
    for i, s in enumerate(assortments):
        records.setdefault(s, []).append(i)
    utilities = catalog.utilities(instance.theta_star)
    cdfs = [_choice_cdf(utilities, catalog.check_assortment(s)) for s in records]
    u = choice_rng.random(n)
    choices = np.empty(n, dtype=int)
    for (s, rows), cdf in zip(records.items(), cdfs):
        outcomes = np.append(np.asarray(s, dtype=int), 0)  # position len(s) is no purchase
        choices[rows] = outcomes[cdf.searchsorted(u[rows], side="right")]
    revenues = np.append(0.0, catalog.revenues)[choices]
    return OfflineDataset(assortments, choices, revenues)
