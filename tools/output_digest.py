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
- baseline_solve's pick;

plus run_sweep rows over n in {50, 150} with 3 replications in both alpha
modes, without wall_time_ms. Floats enter as float.hex() or raw array
bytes, and a call that raises enters as its exception type and message.
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
NORMS = (0.0, 1.0, 10.0, 100.0)
ALPHA_MODES = ("empirical", "theoretical")


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

    for mode in ALPHA_MODES:
        where = f"{label}/pasta-{mode}"
        opts = pk.PastaOptions(alpha_mode=mode)
        out = digest.call(where, pk.pasta_solve, dataset, catalog, cons, opts)
        if out is not None:
            s, trace = out
            digest.add(where, s, trace.alpha, trace.theta_ml, trace.converged_early)
            for t, s_t, theta_t, worst in trace.iterations:
                digest.add(where + "/row", t, s_t, theta_t, worst)
        region = digest.call(where + "/region", pk.solver.build_region, dataset, catalog, opts)
        if fit is not None and region is not None:
            probes = [fit.theta] + [fit.theta + 10.0**-k * direction for k in range(-1, 5)]
            if out is not None:
                probes += [theta_t for _, _, theta_t, _ in out[1].iterations]
            digest.add(where + "/contains", [region.contains(theta) for theta in probes])
    where = label + "/baseline"
    digest.add(where, digest.call(where, pk.baseline_solve, dataset, catalog, cons))


def output_digest(src_dir: str) -> str:
    sys.path.insert(0, src_dir)
    import pastaopt as pk

    digest = Digest()
    for name, shape in SHAPES.items():
        for seed in SEEDS:
            _add_case(digest, pk, f"{name}/{seed}", shape, seed)
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
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py SRC_DIR", file=sys.stderr)
        return 2
    print(output_digest(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
