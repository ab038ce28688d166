"""Print one SHA-256 over the numerical outputs of a pastaopt source tree.

Usage: python3 tools/output_digest.py SRC_DIR

SRC_DIR is the directory that holds the ``pastaopt`` package (``src`` in a
checkout). Two trees that print the same digest produce byte-identical
outputs on every case below, so running this on a change and on its parent
checks a refactor that claims "same outputs".

Covered, for 6 seeds of each shape (the headline sweep cell, the
large-catalog and CLI benchmark shapes, and a 10-item log with mass
p = 0.05 on the optimum):

- the generated log (assortments, choices and revenues);
- fit_mle: theta, converged, n_iters, nll and grad_norm;
- neg_log_likelihood, nll_gradient and nll_hessian at ||theta|| in
  {0, 1, 10, 100};
- pasta_solve in both alpha modes: every trace row (t, S, theta, worst
  value), alpha, theta_ml, converged_early and the pick;
- in both alpha modes, the membership verdicts of the region that
  solver.build_region returns at the MLE theta, at theta + 10^-k u for a
  unit vector u and k = -1..4 (the far points often leave the region, so
  both verdicts of the likelihood gap test occur), and at every trace
  iterate;
- for the first seed of each shape, in both alpha modes, the verdicts of a
  fresh region along a walk from the MLE out across its boundary and back
  (151 evenly spaced points to 1.5 times the boundary's distance, plus
  points within 1e-3 and 1e-9 of it), so a membership test that chains
  state from one call to the next is checked on both sides of the boundary;
- baseline_solve's pick;
- expected_revenue and expected_revenue_gradient at ||theta|| in
  {0.1, 1, 10, 100} on each pick above (pasta in both alpha modes, and
  the baseline);
- best_assortment's top-K picks at ||theta|| in {0.1, 1, 10, 100}, from a
  cold start and warm-started from each of those picks and from a random
  admissible set;

plus the generated logs alone (no fit, no solve) at FULL_COVERAGE, a
10-item shape whose 5000 records repeat many sets besides the optimum;
plus best_assortment's picks on LP_CASES random catalogs at ||theta|| <= 1
under two constraint sets that take the LP route (at most k1 of the first
half of the items and k2 of the rest; at most k items with at least one of
items 1-2) and one set that admits no assortment;
plus run_sweep rows over n in {50, 150} with 3 replications in both alpha
modes, without wall_time_ms, plus the EDGE_LOGS below: each is built as
an OfflineDataset and evaluated by neg_log_likelihood on a 4-item catalog,
and enters as its records, its likelihood layout (slot matrix, inverse map
and 0-based choices) and the NLL, or as the first exception either step
raises. Floats enter as float.hex() or raw array bytes, and a call that
raises enters as its exception type and message.

EDGE_LOGS leaves out two malformed inputs whose handling changed when the
layout moved into the constructor: a non-finite revenue (accepted before,
rejected since) and a fractional choice (truncated before, rejected since).
With them the digest would differ across that change by design.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

# (n_items, k, dim, n, p)
SHAPES = {
    "headline": (40, 8, 16, 150, 0.9),
    "large-catalog": (64, 16, 4, 400, 0.3),
    "cli": (40, 8, 8, 2000, 0.5),
    "small-p": (10, 4, 4, 200, 0.05),
}
SEEDS = range(6)
FULL_COVERAGE = (10, 8, 4, 5000, 0.01)
LP_CASES = 60
WALK = list(np.linspace(0.0, 1.5, 151)) + [0.999, 1.0 - 1e-9, 1.0 + 1e-9, 1.001]
NORMS = (0.0, 1.0, 10.0, 100.0)
REVENUE_NORMS = (0.1, 1.0, 10.0, 100.0)
ALPHA_MODES = ("empirical", "theoretical")
# name: (assortments, choices, revenues), each log on EDGE_CATALOG at EDGE_THETA
EDGE_LOGS = {
    "empty": ([], [], []),
    "empty-assortment-at-record-3": (
        [(1,), (2, 3), (1, 4), (), (2,)], [1, 0, 4, 0, 2], [1.0, 0.0, 0.9, 0.0, 0.8]
    ),
    "choice-not-offered": ([(1, 2), (3,), (1, 2)], [1, 0, 4], [1.0, 0.0, 0.9]),
    "choice-minus-one": ([(1, 2, 3), (1, 2)], [1, -1], [1.0, 0.0]),
    "duplicate-item": ([(1,), (2, 2)], [0, 2], [0.0, 0.8]),
    "item-zero": ([(1,), (0, 1)], [0, 1], [0.0, 1.0]),
    "item-beyond-catalog": ([(1,), (2, 5)], [1, 5], [1.0, 0.5]),
    "raw-orders": (
        [(3, 1), [1, 3], (1, 3), (2,), (3, 1, 4), (4, 3, 1), [3, 1]],
        [1, 3, 0, 2, 4, 0, 3],
        [1.0, 0.6, 0.0, 0.8, 0.9, 0.0, 0.6],
    ),
    "negative-revenue": ([(1,), (2,)], [1, 2], [1.0, -0.5]),
}
EDGE_CATALOG = (
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]],  # features
    [1.0, 0.8, 0.6, 0.9],  # revenues
)
EDGE_THETA = (0.5, -0.25)


def _encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:".encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_encode(v) for v in value) + b"]"
    return repr(value).encode()


class Digest:
    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, label: str, *values) -> None:
        self._sha.update(label.encode() + b"=" + _encode(values) + b";")

    def call(self, label: str, fn, *args, **kwargs):
        """Record fn's exception, if it raises; return its result or None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the failure itself is an output
            self.add(label + "!", type(exc).__name__, str(exc))
            return None

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _boundary_walk(pk, region, direction) -> list:
    """The boundary's distance along direction, bisected from the region's
    own gap test, and a fresh region's verdicts along WALK out and back."""
    fit, dataset, catalog = region.fit, region.dataset, region.catalog

    def inside(t: float) -> bool:
        theta = fit.theta + t * direction
        gap = pk.neg_log_likelihood(dataset, catalog, theta) - fit.nll
        return region.space.contains(theta) and gap <= region.alpha

    lo, hi = 0.0, 1.0
    while inside(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(50):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    fresh = pk.ConfidenceRegion(fit, dataset, catalog, region.space, region.alpha)
    return [lo] + [fresh.contains(fit.theta + f * lo * direction) for f in WALK + WALK[::-1]]


def _add_case(digest: Digest, pk, label: str, shape: tuple, seed: int) -> None:
    n_items, k, dim, n, p = shape
    instance = pk.generate_instance(pk.InstanceConfig(n_items=n_items, k=k, dim=dim, seed=seed))
    design = pk.SamplingDesign(p=p, n_items=n_items, k=k)
    dataset = pk.generate_dataset(instance, design, n, np.random.default_rng(seed))
    catalog = instance.catalog
    cons = pk.cardinality_constraints(n_items, k)
    digest.add(label + "/log", dataset.assortments, dataset.choices, dataset.revenues)

    fit = digest.call(label + "/fit", pk.fit_mle, dataset, catalog)
    if fit is not None:
        digest.add(label + "/fit", fit.theta, fit.converged, fit.n_iters, fit.nll, fit.grad_norm)

    direction = np.random.default_rng(seed).standard_normal(dim)
    direction /= np.linalg.norm(direction)
    for norm in NORMS:
        theta = direction * norm
        for fn in (pk.neg_log_likelihood, pk.nll_gradient, pk.nll_hessian):
            where = f"{label}/{fn.__name__}@{norm}"
            digest.add(where, digest.call(where, fn, dataset, catalog, theta))

    picks = []
    for mode in ALPHA_MODES:
        where = f"{label}/pasta-{mode}"
        opts = pk.PastaOptions(alpha_mode=mode)
        out = digest.call(where, pk.pasta_solve, dataset, catalog, cons, opts)
        if out is not None:
            s, trace = out
            picks.append(s)
            digest.add(where, s, trace.alpha, trace.theta_ml, trace.converged_early)
            for t, s_t, theta_t, worst in trace.iterations:
                digest.add(where + "/row", t, s_t, theta_t, worst)
        region = digest.call(where + "/region", pk.solver.build_region, dataset, catalog, opts)
        if fit is not None and region is not None:
            probes = [fit.theta] + [fit.theta + 10.0**-k * direction for k in range(-1, 5)]
            if out is not None:
                probes += [theta_t for _, _, theta_t, _ in out[1].iterations]
            digest.add(where + "/contains", [region.contains(theta) for theta in probes])
        if seed == SEEDS[0] and region is not None:
            walk = _boundary_walk(pk, region, direction)
            digest.add(where + "/walk", walk)
    where = label + "/baseline"
    baseline = digest.call(where, pk.baseline_solve, dataset, catalog, cons)
    digest.add(where, baseline)
    picks = [pick for pick in picks + [baseline] if pick]
    _add_picks_at_norms(digest, pk, label, catalog, cons, k, picks, direction, seed)


def _add_picks_at_norms(digest: Digest, pk, label, catalog, cons, k, picks, direction, seed):
    """Revenue and its gradient on each pick, and best_assortment's top-K
    picks from a cold start and from warm starts (each pick and one random
    set of at most k items), at every norm of REVENUE_NORMS along direction."""
    rng = np.random.default_rng(seed + 1000)
    size = int(rng.integers(1, k + 1))
    random_start = tuple(int(j) + 1 for j in rng.choice(catalog.n_items, size, replace=False))
    for norm in REVENUE_NORMS:
        theta = direction * norm
        for i, pick in enumerate(picks):
            for fn in (pk.expected_revenue, pk.expected_revenue_gradient):
                where = f"{label}/{fn.__name__}@{norm}/{i}"
                digest.add(where, digest.call(where, fn, catalog, pick, theta))
        for i, start in enumerate([()] + picks + [random_start]):
            where = f"{label}/top-k@{norm}/{i}"
            kwargs = {"start": start} if start else {}
            digest.add(where, digest.call(where, pk.best_assortment, catalog, theta, cons, **kwargs))


def _add_lp_picks(digest: Digest, pk) -> None:
    rng = np.random.default_rng(707)
    for case in range(LP_CASES):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        features, revenues = rng.standard_normal((n, d)), rng.uniform(0.1, 1.0, n)
        catalog = pk.Catalog(features=features, revenues=revenues)
        theta = rng.standard_normal(d)
        theta *= rng.uniform(0.0, 1.0) / np.linalg.norm(theta)
        half, k = n // 2, int(rng.integers(1, min(n, 4) + 1))
        blocks = np.zeros((2, n))
        blocks[0, :half] = blocks[1, half:] = 1.0
        block_bounds = [int(rng.integers(1, half + 1)), int(rng.integers(1, n - half + 1))]
        at_least = np.zeros((2, n))
        at_least[0], at_least[1, :2] = 1.0, -1.0
        none = np.zeros((2, n))
        none[0, :2], none[1, :2] = 1.0, -1.0  # at most 0 and at least 1 of items 1-2
        sets = {
            "blocks": (blocks, block_bounds),
            "at-least-one": (at_least, [k, -1]),
            "admits-none": (none, [0, -1]),
        }
        for name, (coeffs, bounds) in sets.items():
            where = f"lp/{case}/{name}"
            cons = pk.ConstraintSet(coeffs=coeffs, bounds=np.array(bounds, dtype=float))
            digest.add(where, digest.call(where, pk.best_assortment, catalog, theta, cons))


def _layout(dataset, catalog) -> tuple:
    """(slot matrix, inverse map, 0-based choices): the dataset's attributes,
    or what _matrices(catalog) returns in trees that built them lazily."""
    if hasattr(dataset, "_matrices"):
        return dataset._matrices(catalog)
    return dataset._slots, dataset._inverse, dataset._chosen


def _add_edge_logs(digest: Digest, pk) -> None:
    features, revenues = EDGE_CATALOG
    catalog = pk.Catalog(features=np.array(features), revenues=np.array(revenues))
    theta = np.array(EDGE_THETA)

    def build_and_evaluate(assortments, choices, revenues):
        dataset = pk.OfflineDataset(assortments, choices, revenues)
        return dataset, pk.neg_log_likelihood(dataset, catalog, theta)

    for name, log in EDGE_LOGS.items():
        where = f"edge/{name}"
        out = digest.call(where, build_and_evaluate, *log)
        if out is not None:
            dataset, nll = out
            records = (dataset.assortments, dataset.choices, dataset.revenues)
            digest.add(where, *records, *_layout(dataset, catalog), nll)


def output_digest(src_dir: str) -> str:
    sys.path.insert(0, src_dir)
    import pastaopt as pk

    digest = Digest()
    for name, shape in SHAPES.items():
        for seed in SEEDS:
            _add_case(digest, pk, f"{name}/{seed}", shape, seed)
    n_items, k, dim, n, p = FULL_COVERAGE
    design = pk.SamplingDesign(p=p, n_items=n_items, k=k)
    for seed in SEEDS:
        instance = pk.generate_instance(pk.InstanceConfig(n_items=n_items, k=k, dim=dim, seed=seed))
        dataset = pk.generate_dataset(instance, design, n, np.random.default_rng(seed))
        records = (dataset.assortments, dataset.choices, dataset.revenues)
        digest.add(f"full-coverage/{seed}/log", *records)
    _add_lp_picks(digest, pk)
    for mode in ALPHA_MODES:
        cfg = pk.SweepConfig(
            sweep_variable="n",
            values=(50, 150),
            master_seed=606,
            replications=3,
            pasta=pk.PastaOptions(alpha_mode=mode),
        )
        for r in pk.run_sweep(cfg):
            row = (r.sweep_var, r.sweep_value, r.rep, r.method, r.regret, r.accuracy)
            digest.add(f"sweep-{mode}", *row)
    _add_edge_logs(digest, pk)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py SRC_DIR", file=sys.stderr)
        return 2
    print(output_digest(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
