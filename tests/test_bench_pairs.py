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


def paired_runs(values):
    runs = []
    for seed, (parent, change) in enumerate(values):
        runs.append(run(seed, "parent", ms=parent, share=parent))
        runs.append(run(seed, "change", ms=change, share=change))
    return runs


def test_gain_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    # parent 10..19 (median 14.5, IQR 4.5); the change is 5 lower in 9 pairs
    wins_nine = [(10.0 + i, 5.0 + i) for i in range(9)] + [(19.0, 19.0)]
    summary = bench_pairs.summarize(paired_runs(wins_nine), {"ms": "lower", "share": "higher"})
    assert summary["ms"]["change_better"] == 9 and summary["ms"]["ties"] == 1
    assert summary["ms"]["gain_claim_holds"] is True
    assert summary["share"]["gain_claim_holds"] is False  # higher is better there
    # a tie counts for neither side: 8 wins and 2 ties fall short
    wins_eight = wins_nine[:8] + [(18.0, 18.0), (19.0, 19.0)]
    summary = bench_pairs.summarize(paired_runs(wins_eight), {"ms": "lower"})
    assert summary["ms"]["gain_claim_holds"] is False
    # 10 wins by 0.5 each: the median gap 0.5 is inside the parent's IQR
    small = [(10.0 + i, 9.5 + i) for i in range(10)]
    summary = bench_pairs.summarize(paired_runs(small), {"ms": "lower"})
    assert summary["ms"]["change_better"] == 10
    assert summary["ms"]["gain_claim_holds"] is False


def test_within_bound_by_declared_direction():
    values = [(10.0, 12.0), (10.0, 12.5), (10.0, 13.0)]  # change medians 12.5 against 10
    bounds = {"ms": 0.25, "share": 0.25}
    summary = bench_pairs.summarize(paired_runs(values), {"ms": "lower", "share": "higher"}, bounds)
    assert summary["ms"]["within_bound"] is True  # 12.5 <= 10 * 1.25
    assert summary["share"]["within_bound"] is True  # higher is better: a gain
    summary = bench_pairs.summarize(paired_runs(values), {"ms": "lower"}, {"ms": 0.2})
    assert summary["ms"]["within_bound"] is False and summary["ms"]["bound"] == 0.2
    lower_share = [(10.0, 7.0), (10.0, 7.4), (10.0, 8.0)]
    summary = bench_pairs.summarize(paired_runs(lower_share), {"share": "higher"}, bounds)
    assert summary["share"]["within_bound"] is False  # 7.4 < 10 * 0.75
    assert "within_bound" not in bench_pairs.summarize(paired_runs(values), {})["ms"]
