"""The summary of ``scripts/bench_pairs.py`` on canned result lines; no
benchmark runs."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run(workload, seed, side, work, setup, failed=0, correct=True):
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {"work_per_s": {"value": work,
                                                  "unit": "1/s"},
                                   "setup_s": {"value": setup, "unit": "s"}}}}


def test_summary_of_canned_pairs():
    # work: the head is better in pairs 1, 2 and 4, ties in pair 3;
    # setup: the head is lower (better) in pair 2 only
    base = [(100.0, 0.20), (110.0, 0.20), (120.0, 0.20), (130.0, 0.20)]
    head = [(200.0, 0.21), (220.0, 0.19), (120.0, 0.20), (260.0, 0.22)]
    runs = []
    for seed, (b, h) in enumerate(zip(base, head), start=1):
        runs += [_run("grid", seed, "base", *b), _run("grid", seed, "head", *h)]
    runs.append(_run("other", 1, "base", 50.0, 0.3, failed=2))
    runs.append(_run("other", 1, "head", 40.0, 0.3, correct=False))
    runs.append(_run("other", 2, "head", 45.0, 0.3))   # pair not complete

    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["grid", "other"]
    grid = summary["grid"]
    assert (grid["pairs"], grid["correct"]) == (4, True)
    assert grid["attempted"] == {"base": 40, "head": 40}
    work = grid["metrics"]["work_per_s"]
    assert work["base"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert work["head"] == {"median": 210.0, "q1": 180.0, "q3": 230.0}
    assert work["ratio"] == pytest.approx(210.0 / 115.0)
    assert work["better_pairs"] == "3/4"
    assert (work["unit"], work["better"]) == ("1/s", "higher")
    setup = grid["metrics"]["setup_s"]
    assert setup["better_pairs"] == "1/4"
    assert setup["head"]["median"] == pytest.approx(0.205)

    other = summary["other"]
    assert (other["pairs"], other["correct"]) == (1, False)
    assert other["failed"] == {"base": 2, "head": 0}
    assert other["metrics"]["work_per_s"]["base"] == {
        "median": 50.0, "q1": 50.0, "q3": 50.0}
    assert other["metrics"]["work_per_s"]["better_pairs"] == "0/1"


def test_workload_argument():
    assert bench_pairs._workload("curvature-grid:10") == ("curvature-grid",
                                                          10)
    for text in ("trajectory", "trajectory:0", ":3", "trajectory:x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs._workload(text)
