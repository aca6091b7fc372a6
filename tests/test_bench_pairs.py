"""tools/bench_pairs.py: alternating benchmark runs in two trees."""

import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_pairs.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wins_follow_the_direction_and_ties_count_for_neither():
    tool = load_tool()
    runs = [{"pair": k, "tree": tree, "metrics": {"wall_s": wall, "rate_per_s": rate}}
            for k, (a, b, ra, rb) in enumerate([(2.0, 1.0, 5.0, 6.0), (1.0, 1.0, 5.0, 5.0),
                                                (1.0, 3.0, 6.0, 4.0)])
            for tree, wall, rate in (("parent", a, ra), ("change", b, rb))]
    summary = tool.summarize(runs, {"wall_s": "lower"})
    assert summary["wall_s"]["wins"] == {"parent": 1, "change": 1}
    assert summary["rate_per_s"]["better"] == "higher"
    assert summary["rate_per_s"]["wins"] == {"parent": 1, "change": 1}
    assert summary["wall_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.5}
    assert summary["wall_s"]["change"] == {"median": 1.0, "q1": 1.0, "q3": 2.0}


def test_nothing_in_the_package_imports_it():
    for path in glob.glob(os.path.join(ROOT, "src", "minit5", "*.py")):
        with open(path, encoding="utf-8") as fh:
            assert "bench_pairs" not in fh.read(), path


@pytest.mark.slow
def test_one_pair_on_the_data_workload(tmp_path):
    proc = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "data",
                           "--seed", "1", "--pairs", "1", "--seconds", "0"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["correct"] and report["pairs"] == 1
    assert [(r["tree"], r["first"]) for r in report["runs"]] == \
        [("parent", True), ("change", False)]
    wall = report["summary"]["wall_s"]
    assert sum(wall["wins"].values()) <= 1
    for run in report["runs"]:
        assert wall[run["tree"]]["median"] == run["metrics"]["wall_s"] > 0
    # the same tree twice writes the same vocabulary, so the same loss
    losses = {r["metrics"]["train_loss"] for r in report["runs"]}
    assert len(losses) == 1
