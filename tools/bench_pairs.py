"""Run paired benchmark runs of two checkouts and summarize them in one JSON file.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --seeds A-B [--seconds S] [--trace 0|1] --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are checkouts that each hold ``perfbench/run.py``
and ``src/``. For every seed from A to B, the script runs
``perfbench/run.py --workload W --seed <seed> --seconds S --trace T`` once in
each checkout, one run at a time: the parent first on even seeds and the
change first on odd seeds, so a drift in host speed falls on both sides
alike.

The output file keeps every run's final JSON line, the seeds, the environment
the runs printed (a list if they differ) and, per metric, the median and inclusive quartiles of each
side plus the number of pairs the change wins by the direction that
BENCHMARK.json declares for the metric. Each metric also states whether a
gain claim on it holds (the change wins at least 9 of 10 pairs, ties counting
for neither side, and its median beats the parent's by more than the
parent's interquartile range) and, for an end-to-end metric, whether the
change's median stays within the metric's relative ``bound`` of the parent's. ``--trace 0`` runs go under
``workloads``, ``--trace 1`` runs under ``traced``. If the output file exists,
the new workload is merged into it, replacing an earlier entry of the same
workload and mode, so one file can collect every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last if sep else first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int
) -> tuple[dict | None, dict]:
    """One perfbench run; returns the environment it printed and its final line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"bench_pairs: {checkout}: {' '.join(command)} exited {proc.returncode}\n{proc.stderr}"
        )
    environment = next(
        (json.loads(line)["environment"] for line in lines if line.startswith('{"environment"')),
        None,
    )
    return environment, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain_claim_holds(parent: dict, change: dict, wins: int, pairs: int, lower: bool) -> bool:
    """The change wins at least 9 of 10 pairs (a tie counts for neither side)
    and its median beats the parent's by more than the parent's IQR."""
    gap = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
    return 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"]


def within_bound(parent: dict, change: dict, bound: float, lower: bool) -> bool:
    """The change's median is worse than the parent's by at most the
    relative bound."""
    if lower:
        return change["median"] <= parent["median"] * (1.0 + bound)
    return change["median"] >= parent["median"] * (1.0 - bound)


def summarize(
    runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict:
    """Per metric: each side's median and quartiles, the change's pair wins,
    whether a gain claim holds and, for the metrics in bounds, whether the
    change stays within its bound."""
    bounds = bounds or {}
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        pairs = [
            (sides["parent"][name]["value"], sides["change"][name]["value"])
            for sides in by_seed.values()
        ]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
        summary[name] = {
            "parent": parent,
            "change": change,
            "better": "lower" if lower else "higher",
            "pairs": len(pairs),
            "change_better": wins,
            "ties": sum(1 for p, c in pairs if p == c),
            "gain_claim_holds": gain_claim_holds(parent, change, wins, len(pairs), lower),
        }
        if name in bounds:
            summary[name]["bound"] = bounds[name]
            summary[name]["within_bound"] = within_bound(parent, change, bounds[name], lower)
    return summary


def to_json(value, depth: int = 0) -> str:
    """JSON with the first four levels one key or item per line and each
    deeper value (one run, one metric's summary) on one line."""
    pad = " " * (depth + 1)
    if depth < 4 and isinstance(value, dict) and value:
        items = [f"{pad}{json.dumps(k)}: {to_json(v, depth + 1)}" for k, v in value.items()]
    elif depth < 4 and isinstance(value, list) and value and isinstance(value[0], dict):
        items = [pad + to_json(v, depth + 1) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + " " * depth + brackets[1]


def git_head(checkout: Path) -> str | None:
    """The checkout's commit, suffixed -dirty if its tree has edits; None if
    the checkout is not the top of a git work tree (an exported tree)."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(checkout):
        return None
    return git("describe", "--always", "--dirty", "--abbrev=7")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")

    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    runs, environments = [], []
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for side in order:
            environment, result = run_once(
                checkouts[side], args.workload, seed, args.seconds, args.trace
            )
            if environment not in environments:
                environments.append(environment)
            runs.append({"seed": seed, "side": side, "result": result})
            value = result["metrics"].get("op_ms.p50", {}).get("value")
            print(f"seed {seed} {side}: correct={result['correct']} op_ms.p50={value}")

    summary = summarize(runs, better, bounds)
    for name, entry in summary.items():
        if "within_bound" in entry:
            print(
                f"{name}: change better in {entry['change_better']}/{entry['pairs']} pairs,"
                f" gain claim holds={entry['gain_claim_holds']},"
                f" within bound {entry['bound']}={entry['within_bound']}"
            )

    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    report.update(
        {
            "command": "python3 perfbench/run.py --workload <workload> --seed <seed>"
            " --seconds <seconds> --trace <trace>",
            "pairs": "one parent and one change run per seed, parent first on even seeds,"
            " change first on odd seeds",
            "parent": git_head(checkouts["parent"]),
            "change": git_head(checkouts["change"]),
        }
    )
    report["environment"] = environments[0] if len(environments) == 1 else environments
    section = report.setdefault("traced" if args.trace else "workloads", {})
    section[args.workload] = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(to_json(report) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
