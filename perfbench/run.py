#!/usr/bin/env python3
"""pastaopt benchmark: three closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload headline-sweep --seed 1 --seconds 30 --trace 0

Workloads are ``headline-sweep``, ``large-catalog`` and ``cli-large-log``
(see workloads.py and BENCHMARK.json for why each exists). The program under
test is imported from ``src/`` of the checkout the script sits in; without it
the script exits with code 2.

``--trace 0`` measures the end-to-end metrics with nothing patched. Their
timings are scaled to a reference host speed measured by a fixed kernel
(calibration.py); the unscaled figures are printed beside them.
``--trace 1`` runs every op twice, first with the public functions of
pastaopt's layers patched (tracer.py) and then, with every original restored,
untraced; the difference is the tracing overhead. It reports the per-layer
metrics and writes the spans to
``.perfbench_out/spans-<workload>-seed<seed>.npz``.

Every op's output is checked; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Metric units come from
BENCHMARK.json, and every metric it declares for the mode is printed.
"""

import os
import sys
import time

# BLAS reads its thread count once, when numpy loads; CLI children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MAX_REPORTED_FAILURES = 5


@dataclass
class PassResult:
    """One timed pass: latencies of successful ops and what they returned."""

    durations_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0  # wall time of the pass, calibration excluded
    # pool entry -> method -> (regret, accuracy)
    outcomes: dict[int, dict[str, tuple[float, float]]] = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu_model,
            )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def median_import_s(repeats: int) -> float:
    """Interpreter start plus `import pastaopt.cli` in a fresh process."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import pastaopt.cli"], env=child_env(), check=True, timeout=60
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def report_failure(result: PassResult, what: str, exc: BaseException) -> None:
    result.failed += 1
    if result.failed <= MAX_REPORTED_FAILURES:
        print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def check_traced_op(wl, tracer, op_id: int, key: int) -> None:
    """Checks that only the traced pass can make, outside the op's timing."""
    from workloads import CheckFailed, certify_best

    pending, tracer.pending = tracer.pending, []
    for kind, catalog, theta, cons, s in pending:
        if kind == "best_assortment":
            certify_best(catalog, theta, cons, s)
            tracer.certified += 1
        elif not s or not cons.admits(s):
            raise CheckFailed(f"{kind} returned {s!r}, which the constraint set rejects")
    for event_op, v_star in tracer.events.get("datagen.generate_instance", []):
        if event_op == op_id and v_star != wl.v_star(key):
            raise CheckFailed(f"op instance v* {v_star!r} is not pool entry {key}'s {wl.v_star(key)!r}")


def run_op(wl, key: int, op_id: int, result: PassResult, tracer=None) -> None:
    """Run, time and check one op; with a tracer, only the op itself is traced."""
    from workloads import CheckFailed

    result.attempted += 1
    try:
        if tracer is None:
            t0 = time.perf_counter()
            raw = wl.op(key)
            t1 = time.perf_counter()
        else:
            tracer.op = op_id
            tracer.install()
            try:
                with tracer.span("op"):
                    t0 = time.perf_counter()
                    raw = wl.op(key, tracer)
                    t1 = time.perf_counter()
            finally:
                tracer.restore()
            if tracer.unrestored():
                raise CheckFailed(f"bindings not restored: {tracer.unrestored()}")
        outcome = wl.check(key, raw)
        if tracer is not None:
            check_traced_op(wl, tracer, op_id, key)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        if tracer is not None:
            tracer.pending = []
        report_failure(result, f"op {op_id} (pool entry {key})", exc)
    else:
        result.durations_s.append(t1 - t0)
        result.outcomes.setdefault(key, outcome)


def timed_pass(wl, seconds: float, kernel_times_ms: list[float]) -> PassResult:
    """Run ops back to back for `seconds`; each starts when the last returned.

    The calibration kernel runs before each op, outside the op's timing and
    outside the pass's elapsed time; its times are appended to kernel_times_ms.
    """
    result = PassResult()
    start = time.perf_counter()
    calibrating_s = 0.0
    op_id = 0
    while time.perf_counter() - start - calibrating_s < seconds:
        t0 = time.perf_counter()
        kernel_times_ms.append(calibration.kernel_ms())
        calibrating_s += time.perf_counter() - t0
        run_op(wl, op_id % wl.pool_size, op_id, result)
        op_id += 1
    result.elapsed_s = time.perf_counter() - start - calibrating_s
    return result


def paired_pass(wl, seconds: float, tracer) -> tuple[PassResult, PassResult]:
    """Run each op both traced and untraced, for `seconds` in all.

    The two runs of an op are adjacent and alternate in order, so they see the
    same machine state and the difference of the two passes' medians is the
    tracing overhead, not drift of the host or an effect of going first.
    """
    traced, untraced = PassResult(), PassResult()
    start = time.perf_counter()
    op_id = 0
    while time.perf_counter() - start < seconds:
        key = op_id % wl.pool_size
        if op_id % 2:
            run_op(wl, key, op_id, untraced)
        run_op(wl, key, op_id, traced, tracer)
        if not op_id % 2:
            run_op(wl, key, op_id, untraced)
        op_id += 1
    return traced, untraced


def pool_quality(wl, passes: list[PassResult], total: PassResult) -> dict[str, float]:
    """Regret, accuracy and share of the optimal revenue, averaged over the pool.

    Pool entries that no successful op covered are run here, untimed, and
    methods the op does not run are scored by the workload's reference.
    """
    outcomes: dict[int, dict[str, tuple[float, float]]] = {}
    for p in passes:
        for key, outcome in p.outcomes.items():
            outcomes.setdefault(key, outcome)
    rows = {"pasta": [], "baseline": []}
    for key in range(wl.pool_size):
        try:
            outcome = dict(outcomes.get(key) or wl.check(key, wl.op(key)))
            outcome.update(wl.reference(key))
            v_star = wl.v_star(key)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            total.attempted += 1
            report_failure(total, f"quality of pool entry {key}", exc)
            continue
        for method, (regret, accuracy) in outcome.items():
            rows[method].append((regret, accuracy, 1.0 - regret / v_star))
    quality = {}
    for method, values in rows.items():
        for i, metric in enumerate(("regret", "accuracy", "value_share")):
            quality[f"{metric}.{method}"] = (
                statistics.fmean(v[i] for v in values) if values else 0.0
            )
    return quality


def percentile_ms(durations_s: list[float], q: float) -> float:
    return float(np.percentile(durations_s, q)) * 1e3 if durations_s else 0.0


def end_to_end_metrics(
    wl, setup_s: float, result: PassResult, quality: dict, speed: float
) -> dict:
    """Timings are scaled by `speed`, the host-speed factor (see calibration.py)."""
    done = len(result.durations_s)
    rusage = resource.RUSAGE_CHILDREN if wl.memory_in_children else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s * speed,
        "ops_per_s": _ratio(done, result.elapsed_s) / speed,
        "op_ms.p50": percentile_ms(result.durations_s, 50) * speed,
        "op_ms.p75": percentile_ms(result.durations_s, 75) * speed,
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        "value_share.pasta": quality["value_share.pasta"],
        "value_share.baseline": quality["value_share.baseline"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced: PassResult, untraced: PassResult, quality: dict) -> dict:
    from tracer import SETUP_OP

    t = tracer.layer_times()
    n_ops = max(len(t.op_durations), 1)
    op_total = float(t.op_durations.sum())

    def calls(name):
        return t.calls_of(name) / n_ops

    def ms(name):
        return t.total_of(name) * 1e3 / n_ops

    def self_ms(name):
        return t.self_of(name) * 1e3 / n_ops

    def per_call_us(name):
        return _ratio(t.total_of(name) * 1e6, t.calls_of(name))

    def events(name):
        return [payload for op, payload in tracer.events.get(name, []) if op >= 0]

    fits = events("likelihood.fit_mle")
    contains = events("likelihood.region_contains")
    solves = events("solver.pasta_solve")
    steps = events("solver.gdls")
    best_calls = t.calls_of("lp.best_assortment")
    return {
        "op_ms.traced_p50": percentile_ms(traced.durations_s, 50),
        "trace.overhead_ms": percentile_ms(traced.durations_s, 50)
        - percentile_ms(untraced.durations_s, 50),
        "likelihood.fit_mle.calls": calls("likelihood.fit_mle"),
        "likelihood.fit_mle.ms": ms("likelihood.fit_mle"),
        "likelihood.fit_mle.op_share": _ratio(t.total_of("likelihood.fit_mle"), op_total),
        "likelihood.fit_mle.iters": _ratio(sum(f[0] for f in fits), len(fits)),
        "likelihood.fit_mle.converged_ratio": _ratio(sum(f[1] for f in fits), len(fits)),
        "likelihood.neg_log_likelihood.calls": calls("likelihood.neg_log_likelihood"),
        "likelihood.neg_log_likelihood.us_per_call": per_call_us("likelihood.neg_log_likelihood"),
        "likelihood.nll_gradient.calls": calls("likelihood.nll_gradient"),
        "likelihood.nll_gradient.us_per_call": per_call_us("likelihood.nll_gradient"),
        "likelihood.region_contains.calls": calls("likelihood.region_contains"),
        "likelihood.region_contains.accept_ratio": _ratio(sum(contains), len(contains)),
        "likelihood.load_csv.ms": ms("likelihood.load_csv"),
        "lp.best_assortment.calls": calls("lp.best_assortment"),
        "lp.best_assortment.solver_calls": t.calls_under(
            "lp.best_assortment", ("solver.pasta_solve", "solver.baseline_solve")
        )
        / n_ops,
        "lp.best_assortment.ms": ms("lp.best_assortment"),
        "lp.best_assortment.ms_per_call": per_call_us("lp.best_assortment") / 1e3,
        "lp.best_assortment.op_share": _ratio(t.total_of("lp.best_assortment"), op_total),
        "lp.best_assortment.certified_ratio": _ratio(tracer.certified, best_calls),
        "lp.solve_lp.ms": ms("lp.solve_lp"),
        "lp.build_assortment_lp.ms": ms("lp.build_assortment_lp"),
        "solver.pasta_solve.ms": ms("solver.pasta_solve"),
        "solver.pasta_solve.self_ms": self_ms("solver.pasta_solve"),
        "solver.baseline_solve.ms": ms("solver.baseline_solve"),
        "solver.baseline_solve.self_ms": self_ms("solver.baseline_solve"),
        "solver.outer_iters": _ratio(sum(s[0] for s in solves), len(solves)),
        "solver.converged_early_ratio": _ratio(sum(s[1] for s in solves), len(solves)),
        "solver.assortment_changes": _ratio(sum(s[2] for s in solves), len(solves)),
        "solver.gdls.calls": calls("solver.gdls"),
        "solver.gdls.ms": ms("solver.gdls"),
        "solver.gdls.step_accept_ratio": _ratio(sum(s[0] for s in steps), sum(s[1] for s in steps)),
        "model.expected_revenue_gradient.calls": calls("model.expected_revenue_gradient"),
        "model.expected_revenue_gradient.ms": ms("model.expected_revenue_gradient"),
        "model.expected_revenue.calls": calls("model.expected_revenue"),
        "datagen.generate_instance.ms": ms("datagen.generate_instance"),
        "datagen.generate_dataset.ms": ms("datagen.generate_dataset"),
        "datagen.setup_ms": 1e3
        * sum(t.total_in_op(n, SETUP_OP) for n in ("datagen.generate_instance", "datagen.generate_dataset")),
        "harness.run_sweep.self_ms": self_ms("harness.run_sweep"),
        "cli.process_ms": ms("cli.process"),
        "cli.main_ms": ms("cli.main"),
        "cli.startup_ms": ms("cli.process") - ms("cli.main") if t.calls_of("cli.main") else 0.0,
        "regret.pasta": quality["regret.pasta"],
        "regret.baseline": quality["regret.baseline"],
        "accuracy.pasta": quality["accuracy.pasta"],
        "accuracy.baseline": quality["accuracy.baseline"],
    }


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="pool of one entry and one setup: a smoke run"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(argv) -> int:
    if not (SRC / "pastaopt" / "__init__.py").is_file():
        print(f"perfbench: no pastaopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pastaopt

    if Path(pastaopt.__file__).resolve().parent != SRC / "pastaopt":
        print(f"perfbench: imported pastaopt from {pastaopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import POOL_SIZES, WORKLOADS

    args = parse_args(argv)
    units = declared_units(args.trace)
    env = environment()
    print(json.dumps({"environment": env}))
    pool_size = 1 if args.tiny else POOL_SIZES[args.workload]
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, pool_size, workdir, child_env())
        unrestored: list[str] = []
        if not args.trace:
            repeats = 1 if args.tiny else SETUP_REPEATS
            kernel_times_ms, setup_times = [], []
            for _ in range(repeats):
                kernel_times_ms.append(calibration.kernel_ms())
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            setup_s = median_import_s(repeats) + statistics.median(setup_times)
            result = timed_pass(wl, args.seconds, kernel_times_ms)
            passes = [result]
            total = PassResult(attempted=result.attempted, failed=result.failed)
            quality = pool_quality(wl, passes, total)
            kernel_ms = statistics.median(kernel_times_ms)
            speed = calibration.REFERENCE_MS / kernel_ms
            metrics = end_to_end_metrics(wl, setup_s, result, quality, speed)
            print(
                f"calibration kernel median {kernel_ms:.3f} ms over {len(kernel_times_ms)} runs;"
                f" timings scaled by {speed:.4f}; unscaled: setup_s {setup_s:.4f},"
                f" op_ms.p50 {percentile_ms(result.durations_s, 50):.2f},"
                f" op_ms.p75 {percentile_ms(result.durations_s, 75):.2f}"
            )
        else:
            wl.also_in_process = True
            tracer = Tracer()
            tracer.install()
            try:
                wl.setup()
            finally:
                tracer.restore()
            traced, untraced = paired_pass(wl, args.seconds, tracer)
            unrestored = tracer.unrestored()
            passes = [traced, untraced]
            total = PassResult(
                attempted=traced.attempted + untraced.attempted,
                failed=traced.failed + untraced.failed,
            )
            quality = pool_quality(wl, passes, total)
            metrics = per_layer_metrics(tracer, traced, untraced, quality)
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz", env)
            print(f"traced {len(tracer.span_name)} spans; patched {len(tracer.patches)} bindings")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    if unrestored:
        print(f"perfbench: bindings not restored: {unrestored}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(f"{'successful timed ops (op_ms samples)':45s} {sum(len(p.durations_s) for p in passes)}")
    line = {
        "correct": total.failed == 0 and not unrestored,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
