"""The interval arithmetic of ``scripts/paired_probe.py`` on canned pairs,
and its per-workload operations on the installed package; no revision is
exported."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from rotsurf.config import initial_state, load_config
from rotsurf.geodesics import clairaut_report, integrate

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "paired_probe.py"
_SPEC = importlib.util.spec_from_file_location("paired_probe", _PATH)
paired_probe = importlib.util.module_from_spec(_SPEC)
sys.path.insert(0, str(_PATH.parent))  # it imports bench_pairs beside it
_SPEC.loader.exec_module(paired_probe)


@pytest.mark.parametrize("n,k,coverage", [
    (6, 1, 1 - 2 / 64),            # the range: the smallest n for 95 %
    (10, 2, 1 - 22 / 1024),        # x_(2), x_(9)
    (20, 6, 1 - 2 * 21700 / 2 ** 20),  # x_(6), x_(15), Conover's table
])
def test_sign_interval_takes_the_tabulated_order_statistics(n, k, coverage):
    values = [float(i) for i in range(n, 0, -1)]  # sorted by the interval
    low, high, got = paired_probe.sign_interval(values)
    assert (low, high) == (float(k), float(n + 1 - k))
    assert got == pytest.approx(coverage)
    assert got >= 0.95


def test_sign_interval_of_too_few_values_is_the_range_below_95():
    low, high, coverage = paired_probe.sign_interval([3.0, 1.0, 2.0, 5.0,
                                                      4.0])
    assert (low, high) == (1.0, 5.0)
    assert coverage == pytest.approx(1 - 2 / 32)
    with pytest.raises(ValueError):
        paired_probe.sign_interval([])


def test_summary_of_canned_pairs():
    # head/base per pair: 0.8 ten times with two outliers at either end
    base = [1.0] * 12
    head = [0.8] * 10 + [0.5, 1.4]
    summary = paired_probe.summarize({"base": base, "head": head})
    assert summary["pairs"] == 12
    assert summary["median_ratio"] == pytest.approx(0.8)
    # n = 12 takes x_(3) and x_(10): both 0.8, so 1 is excluded
    assert summary["interval"] == pytest.approx([0.8, 0.8])
    assert summary["coverage"] == pytest.approx(1 - 2 * 79 / 4096)
    assert summary["excludes_1"] is True


def test_summary_of_a_change_that_moves_nothing_holds_1():
    base = [1.0, 1.1, 0.9, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1, 0.9]
    head = [1.02, 1.08, 0.93, 1.17, 0.99, 0.96, 1.06, 0.98, 1.12, 0.91]
    summary = paired_probe.summarize({"base": base, "head": head})
    low, high = summary["interval"]
    assert low < 1.0 < high
    assert summary["excludes_1"] is False
    with pytest.raises(ValueError):  # the pairs must be complete
        paired_probe.summarize({"base": base, "head": head[:-1]})


def test_every_benchmark_workload_has_a_paired_op():
    benchmark = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    assert sorted(paired_probe.COMMANDS) == sorted(
        workload["name"] for workload in benchmark["workloads"])


# one member of each start style, as ``bench/inputs.py`` draws them
MEMBERS = {
    "velocity": {"family": "hyperbolic14", "variant": "B",
                 "profiles": {"fa": "1.5 + t/2", "fb": "2 + t/3"},
                 "domain": [0.5, 60.5],
                 "geodesic": {"initial": {"u": 0.1, "v": -0.2, "t": 5.0,
                                          "du": 0.3, "dv": -0.1, "dt": 1.2},
                              "length": 1.0, "step": 2.5e-3,
                              "normalize": True}},
    "angle": {"family": "elliptic56", "variant": "A",
              "profiles": {"fa": "2 + t/2", "fb": "1 + t/4"},
              "domain": [0.5, 60.5],
              "geodesic": {"initial": {"u": 0.0, "v": 0.3, "t": 5.0,
                                       "phi": 0.6, "theta": 0.2},
                           "length": 1.0, "step": 2.5e-3,
                           "normalize": False}},
}


def test_ensemble_op_runs_the_library_as_the_benchmark_does(tmp_path,
                                                            monkeypatch):
    paths = []
    for style, document in MEMBERS.items():
        paths.append(str(tmp_path / f"{style}.json"))
        Path(paths[-1]).write_text(json.dumps(document), encoding="utf-8")
    monkeypatch.setenv("ROTSURF_OUTPUT_DIR", str(tmp_path / "out"))
    seconds, found = paired_probe._round(paired_probe.ensemble_op("rotsurf"),
                                         paths, str(tmp_path / "out"))
    assert seconds > 0.0
    for path, (termination, rows, final, drifts, report) in zip(paths, found):
        config = load_config(path)
        family = config.build_family()
        state, _ = initial_state(config, family)
        trajectory = integrate(family, state, 1.0, 2.5e-3)
        assert (termination, rows) == ("completed", 401)
        assert final == trajectory.final.state.as_tuple()
        assert drifts == trajectory.drifts()
        expected = clairaut_report(family, trajectory.final.state)
        assert report == (expected.L, expected.p_u, expected.p_v,
                          expected.invariant1, expected.invariant2)
    assert not (tmp_path / "out").exists()  # the library writes nothing


def test_cli_op_writes_under_the_round_directory(tmp_path, monkeypatch):
    document = dict(MEMBERS["velocity"],
                    output={"path": "member.csv", "format": "csv"})
    path = tmp_path / "member.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    monkeypatch.setenv("ROTSURF_OUTPUT_DIR", str(tmp_path / "out"))
    _, found = paired_probe._round(paired_probe.cli_op("rotsurf",
                                                       "invariants"),
                                   [str(path)], str(tmp_path / "out"))
    assert found == [None]
    assert sorted(os.listdir(tmp_path / "out")) == ["member.csv",
                                                    "member.summary.json"]
    document["geodesic"] = dict(document["geodesic"], step=2.0)
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SystemExit, match="invariants --config .* exited 1"):
        paired_probe._round(paired_probe.cli_op("rotsurf", "invariants"),
                            [str(path)], str(tmp_path / "out"))


def test_import_op_times_a_fresh_interpreter(tmp_path, monkeypatch):
    src = str(_PATH.parents[1] / "src")
    # ``_round`` sets the variable; monkeypatch restores it afterwards
    monkeypatch.setenv("ROTSURF_OUTPUT_DIR", str(tmp_path / "out"))
    seconds, found = paired_probe._round(paired_probe.import_op("rotsurf",
                                                                src),
                                         [None], str(tmp_path / "out"))
    assert seconds > 0.0 and found == [None]
    with pytest.raises(SystemExit, match="import missing.cli exited 1"):
        paired_probe._round(paired_probe.import_op("missing", src), [None],
                            str(tmp_path / "out"))
