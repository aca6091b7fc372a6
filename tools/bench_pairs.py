"""Alternating pairs of benchmark runs in two source trees.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S \\
                                 --pairs N --seconds T

Runs ``perfbench/run.py --workload W --seed S --seconds T`` N times in each
tree, one run of each per pair, the parent first in even pairs and the
change first in odd ones, so a drift of the host over time falls on both
sides alike. Each run uses the ``perfbench/run.py`` and sources of its own
tree. Prints one JSON object: every run's end-to-end metrics, and per metric
each tree's median and quartiles and the pairs each tree won, by the
direction BENCHMARK.json gives the metric (lower is better where it gives
none, higher for rates ending in ``per_s``); a tie counts for neither. Exits
1 if a run failed or reported a failed stage. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

TREES = ("parent", "change")


def run_once(tree: str, args) -> dict:
    """One benchmark run in tree: its result line, and the end-to-end metrics
    of the JSON record printed before it."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:], "metrics": {}}
    result = json.loads(lines[-1])
    record = json.loads("\n".join(lines[:-1]))
    return {"correct": result["correct"],
            "metrics": {k: m["value"] for k, m in record["end_to_end"].items()}}


def directions(tree: str) -> dict[str, str]:
    """Each end-to-end metric's better direction, as tree's BENCHMARK.json gives it."""
    try:
        with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: m["better"] for m in json.load(fh).get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        return {}


def spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run["metrics"]
    names = sorted(set.intersection(*(set(run["metrics"]) for run in runs)))
    summary = {}
    for name in names:
        way = better.get(name, "higher" if name.endswith("per_s") else "lower")
        values = {tree: [pair[tree][name] for pair in by_pair.values()] for tree in TREES}
        wins = dict.fromkeys(TREES, 0)
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["change" if (b < a) == (way == "lower") else "parent"] += 1
        summary[name] = {"better": way, "wins": wins,
                         **{tree: spread(values[tree]) for tree in TREES}}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = []
    for pair in range(args.pairs):
        order = TREES if pair % 2 == 0 else TREES[::-1]
        for position, tree in enumerate(order):
            run = run_once(trees[tree], args)
            runs.append({"pair": pair, "tree": tree, "first": position == 0, **run})
            print(f"pair {pair} {tree}: {run['metrics'].get('wall_s')}", file=sys.stderr)
    ok = all(run["correct"] for run in runs)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs, "correct": ok, "runs": runs,
              "summary": summarize(runs, directions(trees["change"])) if ok else {}}
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
