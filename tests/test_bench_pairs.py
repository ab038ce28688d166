import argparse
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402


def run(seed, side, **values):
    metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
    return {"seed": seed, "side": side, "result": {"metrics": metrics}}


def test_seed_range():
    assert bench_pairs.seed_range("121-125") == [121, 122, 123, 124, 125]
    assert bench_pairs.seed_range("7") == [7]
    for bad in ("5-3", "a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.seed_range(bad)


def test_summary_counts_wins_by_declared_direction():
    runs = []
    for seed, (parent, change) in enumerate([(10.0, 9.0), (12.0, 12.0), (11.0, 8.0), (9.0, 10.0)]):
        runs.append(run(seed, "parent", ms=parent, share=parent))
        runs.append(run(seed, "change", ms=change, share=change))
    summary = bench_pairs.summarize(runs, {"ms": "lower", "share": "higher"})
    assert (summary["ms"]["change_better"], summary["ms"]["ties"]) == (2, 1)
    assert (summary["share"]["change_better"], summary["share"]["ties"]) == (1, 1)
    assert summary["ms"]["pairs"] == 4
    # inclusive quartiles of 9, 10, 11, 12
    assert summary["ms"]["parent"] == {"median": 10.5, "q1": 9.75, "q3": 11.25}


def test_report_json_round_trips_with_one_run_per_line():
    report = {"workloads": {"w": {"seeds": [1, 2], "runs": [run(1, "parent", ms=1.5)] * 2}}}
    text = bench_pairs.to_json(report)
    assert json.loads(text) == report
    assert text.count('"seed": 1') == 2 and len(text.splitlines()) == 11
