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
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _run(workload, seed, side, work, setup, failed=0, correct=True,
         rss=20.0):
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {"work_per_s": {"value": work,
                                                  "unit": "1/s"},
                                   "setup_s": {"value": setup, "unit": "s"},
                                   "peak_rss_mib": {"value": rss,
                                                    "unit": "MiB"}}}}


def test_summary_of_canned_pairs():
    # work: the head is better in pairs 1, 2 and 4, ties in pair 3;
    # setup: the head is lower (better) in pair 2 only
    base = [(100.0, 0.20), (110.0, 0.20), (120.0, 0.20), (130.0, 0.20)]
    head = [(200.0, 0.21), (220.0, 0.19), (120.0, 0.20), (260.0, 0.22)]
    # rss: the head reads 25 % higher (worse) in every pair
    runs = []
    for seed, (b, h) in enumerate(zip(base, head), start=1):
        runs += [_run("grid", seed, "base", *b),
                 _run("grid", seed, "head", *h, rss=25.0)]
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
    # better reads 0 worse, whatever its bound
    assert (work["worse_by"], work["within_bound"]) == (0.0, True)
    setup = grid["metrics"]["setup_s"]
    assert setup["better_pairs"] == "1/4"
    assert setup["head"]["median"] == pytest.approx(0.205)
    # 2.5 % higher: worse, inside its 0.25 bound
    assert setup["worse_by"] == pytest.approx(0.025)
    assert setup["within_bound"] is True
    # 25 % higher: outside its 0.1 bound
    rss = grid["metrics"]["peak_rss_mib"]
    assert (rss["better_pairs"], rss["ratio"]) == ("0/4", 1.25)
    assert rss["worse_by"] == pytest.approx(0.25)
    assert rss["within_bound"] is False

    other = summary["other"]
    assert (other["pairs"], other["correct"]) == (1, False)
    assert other["failed"] == {"base": 2, "head": 0}
    assert other["metrics"]["work_per_s"]["base"] == {
        "median": 50.0, "q1": 50.0, "q3": 50.0}
    assert other["metrics"]["work_per_s"]["better_pairs"] == "0/1"
    # the head's 40 against the base's 50 of a higher-is-better metric
    assert other["metrics"]["work_per_s"]["worse_by"] == pytest.approx(0.2)
    assert other["metrics"]["work_per_s"]["within_bound"] is True


def _pairs(base, head):
    runs = []
    for seed, (b, h) in enumerate(zip(base, head), start=1):
        runs += [_run("grid", seed, "base", b, 0.2),
                 _run("grid", seed, "head", h, 0.2)]
    return bench_pairs.summarize(runs, END_TO_END)["grid"]["metrics"]


def test_gain_resolved_needs_the_pairs_and_the_spread():
    # base work per s around 58,218 with a quartile spread of 7.4 %
    base = [52000.0, 53500.0, 55000.0, 55000.0, 58000.0, 58436.0, 59300.0,
            59300.0, 61000.0, 63000.0]
    work = _pairs(base, [b * 1.058 for b in base])["work_per_s"]
    spread = work["base"]["q3"] - work["base"]["q1"]
    assert work["base"]["median"] == 58218.0
    assert spread / work["base"]["median"] == pytest.approx(0.074, abs=1e-3)
    # 1.058x in every pair: 10/10, but 3,377 / s is inside the 4,300 / s
    # spread, so not resolved
    assert work["better_pairs"] == "10/10"
    assert work["ratio"] == pytest.approx(1.058)
    assert work["gain_resolved"] is False
    # 1.2x in every pair resolves
    work = _pairs(base, [b * 1.2 for b in base])["work_per_s"]
    assert (work["better_pairs"], work["gain_resolved"]) == ("10/10", True)
    # 1.2x in 8 pairs and a loss in 2: 8/10 does not
    head = [b * (1.2 if i < 8 else 0.99) for i, b in enumerate(base)]
    work = _pairs(base, head)["work_per_s"]
    assert (work["better_pairs"], work["gain_resolved"]) == ("8/10", False)
    # setup_s reads the same in every pair: no gain to resolve
    assert _pairs(base, base)["setup_s"]["gain_resolved"] is False
    # 1.2x in 3 pairs of 3: too few pairs to resolve
    work = _pairs(base[:3], [b * 1.2 for b in base[:3]])["work_per_s"]
    assert (work["better_pairs"], work["gain_resolved"]) == ("3/3", False)


def test_unresolved_when_the_base_spread_exceeds_the_bound():
    # the trajectory work_per_s runs of BENCH_pr25.json: a 41.2 % base
    # spread against the 25 % bound
    base = [81368.0, 79223.0, 80585.0, 61416.0, 68728.0, 68692.0, 76059.0,
            46095.0, 41372.0, 46333.0]
    head = [83285.0, 81714.0, 75498.0, 68683.0, 71947.0, 73230.0, 75687.0,
            48817.0, 38506.0, 43570.0]
    work = _pairs(base, head)["work_per_s"]
    spread = work["base"]["q3"] - work["base"]["q1"]
    assert spread / work["base"]["median"] == pytest.approx(0.412, abs=1e-3)
    # within the bound, as that file wrote, but not shown unchanged
    assert (work["better_pairs"], work["within_bound"]) == ("6/10", True)
    assert work["unresolved"] is True
    # better in every pair is not enough: 1.3x the slowest base run is
    # below the fastest
    work = _pairs(base, [b * 1.3 for b in base])["work_per_s"]
    assert (work["better_pairs"], work["unresolved"]) == ("10/10", True)
    # every head run above every base run resolves it
    work = _pairs(base, [b + 40000.0 for b in base])["work_per_s"]
    assert work["unresolved"] is False
    # setup_s reads 0.2 in every run: no spread, so resolved
    assert _pairs(base, head)["setup_s"]["unresolved"] is False


def test_workload_argument():
    assert bench_pairs._workload("curvature-grid:10") == ("curvature-grid",
                                                          10)
    for text in ("trajectory", "trajectory:0", ":3", "trajectory:x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs._workload(text)
