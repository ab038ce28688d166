"""The benchmark's workloads: inputs, one operation, and output checks.

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned. Op inputs come from a pool of
``pool_size`` entries derived from the workload seed, and op ``i`` uses pool
entry ``i % pool_size``, so every run with the same seed repeats the same
operations. Solver quality (regret, accuracy, share of the optimal revenue)
is reported over the whole pool, so it depends on the seed alone and not on
how many ops fit into a run.

All calls into pastaopt go through module attributes (``harness.run_sweep``,
not a local ``run_sweep``), so the traced pass sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from pastaopt import cli, datagen, harness, likelihood, lp, solver
from pastaopt.rng import derive_seed

# Sizes of the three workloads. Why each stresses a different layer:
# - headline-sweep, the paper's headline cell (criterion 6): per-call
#   overhead of the likelihood layer; both fits hit the iteration cap.
# - large-catalog: broad item coverage, so the fit converges quickly and the
#   LP on a 66-row tableau takes most of the op.
# - cli-large-log: the practitioner's path, where each likelihood call is
#   bound by the size of a 2000-record log, plus process start and CSV load.
HEADLINE = dict(n_items=40, k=8, dim=16, n=150, p=0.9)
LARGE = dict(n_items=64, k=16, dim=4, n=400, p=0.3)
CLI_LOG = dict(n_items=40, k=8, dim=8, n=2000, p=0.5)
# Op cost differs between inputs (simplex pivots, fit iterations); pools this
# large keep the run medians from depending much on which inputs a seed drew.
POOL_SIZES = {"headline-sweep": 16, "large-catalog": 24, "cli-large-log": 8}
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An op's output failed one of the benchmark's checks."""


def pool_seeds(seed: int, name: str, count: int) -> list[int]:
    """Per-entry seeds of a workload's input pool, a function of the seed alone."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint32)]


def checked_quality(regret: float, accuracy: float) -> tuple[float, float]:
    if not (math.isfinite(regret) and regret >= 0.0):
        raise CheckFailed(f"regret {regret} is NaN or negative")
    if not (math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0):
        raise CheckFailed(f"accuracy {accuracy} outside [0, 1]")
    return regret, accuracy


def score(instance, s, cons) -> tuple[float, float]:
    """Check an assortment against the constraints and score it against the truth."""
    s = tuple(s)
    if not s:
        raise CheckFailed("empty assortment")
    if not cons.admits(s):
        raise CheckFailed(f"assortment {s} violates the constraint set")
    return checked_quality(
        harness.regret(instance, s), harness.assortment_accuracy(s, instance.s_star)
    )


def certify_best(catalog, theta: np.ndarray, cons, s) -> None:
    """Optimality certificate for a cardinality-constrained MNL assortment.

    With lam the revenue of s at theta and v_j = exp(x_j . theta), s is
    optimal exactly when the K largest values of v_j (r_j - lam)^+ sum to at
    most lam. This needs no enumeration, so it also covers N = 64.
    """
    ones_row = cons.n_rows == 1 and np.all(cons.coeffs == 1.0)
    if not ones_row:
        raise CheckFailed("the certificate covers cardinality constraints only")
    k = int(cons.bounds[0])
    v = np.exp(catalog.utilities(theta))
    r = catalog.revenues
    idx = np.asarray(s, dtype=int) - 1
    if len(idx) == 0 or len(idx) > k:
        raise CheckFailed(f"assortment {s} is empty or exceeds K={k}")
    lam = float(v[idx] @ r[idx] / (1.0 + v[idx].sum()))
    top_k = float(np.sort(np.maximum(v * (r - lam), 0.0))[-k:].sum())
    if top_k > lam + 1e-9 * max(1.0, lam, top_k):
        raise CheckFailed(f"assortment {s} not optimal: top-K gain {top_k!r} > revenue {lam!r}")


class Workload:
    """Interface shared by the workloads.

    ``setup`` builds the pool; ``op`` is the timed operation; ``check``
    validates an op's raw output and returns {method: (regret, accuracy)};
    ``reference`` scores methods that the op does not run; ``v_star`` is the
    optimal revenue of a pool entry.
    """

    name: str
    # Trace runs set this so that the traced and untraced runs of an op do the same work.
    also_in_process = False
    # The op's work happens in child processes, so peak memory is theirs.
    memory_in_children = False

    def __init__(self, seed: int, pool_size: int, workdir: Path, child_env: dict):
        self.pool_size = pool_size
        self.workdir = workdir
        self.child_env = child_env
        self.seeds = pool_seeds(seed, self.name, pool_size)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, key: int, tracer=None):
        raise NotImplementedError

    def check(self, key: int, raw) -> dict[str, tuple[float, float]]:
        raise NotImplementedError

    def reference(self, key: int) -> dict[str, tuple[float, float]]:
        return {}

    def v_star(self, key: int) -> float:
        raise NotImplementedError


class HeadlineSweep(Workload):
    """One replication of the criterion-6 headline cell through run_sweep."""

    name = "headline-sweep"

    def setup(self) -> None:
        self.configs = [
            harness.SweepConfig(
                sweep_variable="n",
                values=(HEADLINE["n"],),
                master_seed=s,
                n_items=HEADLINE["n_items"],
                k=HEADLINE["k"],
                dim=HEADLINE["dim"],
                n=HEADLINE["n"],
                p=HEADLINE["p"],
                replications=1,
            )
            for s in self.seeds
        ]
        self._v_star: dict[int, float] = {}

    def op(self, key: int, tracer=None):
        return harness.run_sweep(self.configs[key])

    def check(self, key: int, rows) -> dict[str, tuple[float, float]]:
        if sorted(r.method for r in rows) != ["baseline", "pasta"]:
            raise CheckFailed(f"expected one row per method, got {rows}")
        out = {}
        for r in rows:
            if math.isnan(r.regret) or math.isnan(r.accuracy):
                raise CheckFailed(f"replication failed: NaN marker row for {r.method}")
            out[r.method] = checked_quality(r.regret, r.accuracy)
        return out

    def v_star(self, key: int) -> float:
        # The harness seeds replication `rep` of sweep value `vi` from
        # derive_seed(master, rep, f"instance-v{vi}"); the traced pass checks
        # this against the instance the harness really generated.
        if key not in self._v_star:
            cfg = self.configs[key]
            template, _, _ = cfg.scenario(cfg.values[0])
            seed = derive_seed(cfg.master_seed, 0, "instance-v0")
            instance = datagen.generate_instance(replace(template, seed=seed))
            self._v_star[key] = instance.v_star
        return self._v_star[key]


class LargeCatalog(Workload):
    """One pasta_solve on a pooled log of a 64-item catalog."""

    name = "large-catalog"

    def setup(self) -> None:
        c = LARGE
        self.cons = lp.cardinality_constraints(c["n_items"], c["k"])
        design = datagen.SamplingDesign(p=c["p"], n_items=c["n_items"], k=c["k"])
        self.instances, self.datasets = [], []
        for s in self.seeds:
            instance = datagen.generate_instance(
                datagen.InstanceConfig(n_items=c["n_items"], k=c["k"], dim=c["dim"], seed=s)
            )
            dataset = datagen.generate_dataset(
                instance, design, c["n"], np.random.default_rng(s)
            )
            # fills the dataset's index cache, which every later solve reuses
            likelihood.neg_log_likelihood(dataset, instance.catalog, np.zeros(c["dim"]))
            self.instances.append(instance)
            self.datasets.append(dataset)

    def op(self, key: int, tracer=None):
        return solver.pasta_solve(self.datasets[key], self.instances[key].catalog, self.cons)

    def check(self, key: int, raw) -> dict[str, tuple[float, float]]:
        s, _ = raw
        return {"pasta": score(self.instances[key], s, self.cons)}

    def reference(self, key: int) -> dict[str, tuple[float, float]]:
        instance = self.instances[key]
        s = solver.baseline_solve(self.datasets[key], instance.catalog, self.cons)
        return {"baseline": score(instance, s, self.cons)}

    def v_star(self, key: int) -> float:
        return self.instances[key].v_star


class CliLargeLog(Workload):
    """One `pastaopt solve --method pasta` process on files from `pastaopt generate`."""

    name = "cli-large-log"
    memory_in_children = True

    def _files(self, key: int) -> tuple[Path, Path]:
        d = self.workdir / f"log{key}"
        return d / "instance.json", d / "dataset.csv"

    def setup(self) -> None:
        c = CLI_LOG
        self.instances = []
        for key, s in enumerate(self.seeds):
            argv = [
                "generate", "--n-items", str(c["n_items"]), "--card", str(c["k"]),
                "--dim", str(c["dim"]), "--n", str(c["n"]), "--p", str(c["p"]),
                "--seed", str(s), "--out", str(self.workdir / f"log{key}"),
            ]  # fmt: skip
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"pastaopt generate exited {rc}")
            self.instances.append(datagen.Instance.load(self._files(key)[0]))
        self.cons = lp.cardinality_constraints(c["n_items"], c["k"])

    def _argv(self, key: int) -> list[str]:
        instance, data = self._files(key)
        return ["solve", "--method", "pasta", "--instance", str(instance), "--data", str(data)]

    def op(self, key: int, tracer=None):
        argv = self._argv(key)
        cmd = [sys.executable, "-m", "pastaopt.cli", *argv]
        with tracer.span("cli.process") if tracer else contextlib.nullcontext():
            done = subprocess.run(
                cmd, env=self.child_env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        if not self.also_in_process:
            return [(done.returncode, done.stdout, done.stderr)]
        # in-process main gives the layers spans and, less process start, cli.main_ms
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return [(done.returncode, done.stdout, done.stderr), (rc, out.getvalue(), err.getvalue())]

    def check(self, key: int, raw) -> dict[str, tuple[float, float]]:
        results = []
        for rc, stdout, stderr in raw:
            if rc != 0:
                raise CheckFailed(f"pastaopt solve exited {rc}: {stderr.strip()[-300:]}")
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"pastaopt solve printed no JSON: {exc}") from None
            missing = {"assortment", "regret", "accuracy"} - payload.keys()
            if missing:
                raise CheckFailed(f"pastaopt solve JSON lacks {sorted(missing)}")
            instance = self.instances[key]
            regret, accuracy = score(instance, payload["assortment"], self.cons)
            reported = checked_quality(float(payload["regret"]), float(payload["accuracy"]))
            if abs(reported[0] - regret) > 1e-12 or reported[1] != accuracy:
                raise CheckFailed(f"reported {reported} but the assortment scores {(regret, accuracy)}")
            results.append(reported)
        if any(r != results[0] for r in results):
            raise CheckFailed(f"subprocess and in-process solves disagree: {results}")
        return {"pasta": results[0]}

    def reference(self, key: int) -> dict[str, tuple[float, float]]:
        instance = self.instances[key]
        dataset = likelihood.OfflineDataset.load_csv(self._files(key)[1])
        s = solver.baseline_solve(dataset, instance.catalog, self.cons)
        return {"baseline": score(instance, s, self.cons)}

    def v_star(self, key: int) -> float:
        return self.instances[key].v_star


WORKLOADS = {w.name: w for w in (HeadlineSweep, LargeCatalog, CliLargeLog)}
