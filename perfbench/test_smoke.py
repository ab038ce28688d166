"""Smoke test of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``. Every
workload runs in tiny mode (one pool entry, a one-second run) in both modes.
The test checks that every metric BENCHMARK.json declares is printed with its
unit, that the exact per-op counts in expected_counts.json hold, and that the
traced pass leaves every patched binding as it found it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED_COUNTS = json.loads((HERE / "expected_counts.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_argv(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *tiny_argv(workload, trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    if trace:
        observed = {name: result["metrics"][name]["value"] for name in EXPECTED_COUNTS[workload]}
        assert observed == EXPECTED_COUNTS[workload]


def test_headline_counts_are_recorded():
    counts = EXPECTED_COUNTS["headline-sweep"]
    assert counts["likelihood.fit_mle.calls"] == 2
    assert counts["lp.best_assortment.solver_calls"] == 31
    assert counts["lp.best_assortment.calls"] == 32
    assert counts["solver.outer_iters"] == 30


def _bindings(modules, classes) -> dict:
    snapshot = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    snapshot.update({(c.__qualname__, attr): value for c in classes for attr, value in vars(c).items()})
    return snapshot


def test_traced_run_restores_every_binding():
    sys.path.insert(0, str(HERE))
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    sys.path.insert(0, str(bench.SRC))
    import pastaopt.cli  # noqa: F401 - loads every traced layer
    from pastaopt.likelihood import ConfidenceRegion, OfflineDataset

    modules = [m for name, m in sys.modules.items() if name.startswith("pastaopt")]
    classes = [ConfidenceRegion, OfflineDataset]
    before = _bindings(modules, classes)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bench.run(tiny_argv("large-catalog", 1)) == 0
    assert " patched " in out.getvalue() and "patched 0 " not in out.getvalue()
    after = _bindings(modules, classes)
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert json.loads(out.getvalue().strip().splitlines()[-1])["correct"] is True
