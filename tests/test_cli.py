"""Config validation, artifact writing, exit codes, determinism."""

import argparse
import ast
import errno
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rotsurf
import rotsurf.cli as cli
from rotsurf import (DoubleRotationSurface, ProfileFunction, inner,
                     make_family, normal_frame)
from rotsurf import Rotation, generator_matrix
from rotsurf.isometries import _plane_map
from rotsurf.cli import (_CURVATURE_COLUMNS, _TRAJECTORY_COLUMNS, _build_parser,
                         _charge, _fmt, _write_atomic, main)
from rotsurf.config import ConfigError, initial_state, parse_config
from rotsurf.geodesics import _drift, _run_chunks, integrate
from rotsurf.surfaces import FamilySpec
from test_expressions import sine_sum
from test_golden import CONFIGS

MERIDIAN_CONFIG = {
    "family": "hyperbolic14",
    "variant": "A",
    "profiles": {"fa": "t", "fb": "1"},
    "domain": [0.05, 10],
    "geodesic": {
        "initial": {"u": 0, "v": 0, "t": 1, "du": 0, "dv": 0, "dt": 1},
        "length": 1.0,
        "step": 0.001,
        "normalize": False,
    },
    "output": {"path": "out.csv", "format": "csv"},
}


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def patched(document, **changes):
    merged = json.loads(json.dumps(document))
    for dotted, value in changes.items():
        keys = dotted.split(".")
        target = merged
        for key in keys[:-1]:
            target = target[key]
        if value is None:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    return merged


def meridian_config(tmp_path, **changes):
    document = patched(MERIDIAN_CONFIG, **changes)
    document["output"]["path"] = str(tmp_path / "out.csv")
    return write_config(tmp_path, document)


def test_geodesic_meridian_endpoint(tmp_path, capsys):
    config = meridian_config(tmp_path)
    assert main(["geodesic", "--config", config]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "s,u,v,t,du,dv,dt,L,p_u,p_v,inv1,inv2"
    final = lines[-1].split(",")
    assert float(final[0]) == 1.0
    assert abs(float(final[3]) - 2.0) <= 1e-12


def test_geodesic_is_deterministic(tmp_path, capsys):
    config = meridian_config(tmp_path)
    assert main(["geodesic", "--config", config]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["geodesic", "--config", config]) == 0
    second = (tmp_path / "out.csv").read_bytes()
    assert first == second


def test_csv_round_trip_reproduces_lagrangian(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG,
                       **{"geodesic.initial.du": 0.3,
                          "geodesic.initial.dv": 0.1,
                          "geodesic.initial.dt": math.sqrt(1.08)})
    document["output"]["path"] = str(tmp_path / "out.csv")
    config = write_config(tmp_path, document)
    assert main(["geodesic", "--config", config]) == 0
    fam = make_family("hyperbolic14", "A", "t", "1", 0.05, 10)
    lines = (tmp_path / "out.csv").read_text().splitlines()[1:]
    assert len(lines) == 1001
    for line in lines[::100]:
        values = dict(zip("s,u,v,t,du,dv,dt,L,p_u,p_v,inv1,inv2".split(","),
                          map(float, line.split(","))))
        from rotsurf import GeodesicState
        state = GeodesicState(values["u"], values["v"], values["t"],
                              values["du"], values["dv"], values["dt"])
        assert fam.lagrangian(state) == pytest.approx(values["L"], abs=1e-12)


def test_invariants_summary(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG,
                       **{"geodesic.initial.du": 0.3,
                          "geodesic.initial.dv": 0.1,
                          "geodesic.initial.dt": math.sqrt(1.08),
                          "geodesic.length": 2.0})
    document["output"]["path"] = str(tmp_path / "traj.csv")
    config = write_config(tmp_path, document)
    assert main(["invariants", "--config", config]) == 0
    summary = json.loads((tmp_path / "traj.summary.json").read_text())
    assert set(summary) == {"p_u_drift", "p_v_drift", "L_drift",
                            "inv1_drift", "inv2_drift"}
    assert all(value <= 1e-9 for value in summary.values())


def test_invariants_with_angle_initial_conditions(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG,
                       **{"geodesic.initial": {"u": 0, "v": 0, "t": 0,
                                               "phi": 0.8, "theta": 0.4},
                          "geodesic.length": 2.0})
    document["family"] = "hyperbolic23"
    document["profiles"] = {"fa": "2 + t/sqrt(2)", "fb": "1 + t/sqrt(2)"}
    document["domain"] = [-1.4, 30]
    document["output"]["path"] = str(tmp_path / "traj.csv")
    config = write_config(tmp_path, document)
    assert main(["invariants", "--config", config]) == 0
    summary = json.loads((tmp_path / "traj.summary.json").read_text())
    assert "initial_angle_residual" in summary
    assert summary["initial_angle_residual"] <= 1e-12
    assert summary["inv1_drift"] <= 1e-9


def test_normalize_flag(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG,
                       **{"geodesic.initial.dt": 2.0,
                          "geodesic.normalize": True,
                          "geodesic.length": 0.5})
    document["output"]["path"] = str(tmp_path / "out.csv")
    config = write_config(tmp_path, document)
    assert main(["geodesic", "--config", config]) == 0
    first_row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
    assert abs(float(first_row[7]) + 1.0) <= 1e-12   # L column


def test_validation_zero_step(tmp_path, capsys):
    config = meridian_config(tmp_path, **{"geodesic.step": 0})
    assert main(["geodesic", "--config", config]) == 1
    assert "geodesic.step" in capsys.readouterr().err


def test_validation_step_count_limit(tmp_path, capsys):
    # integrate keeps every step's sample, so the step count is bounded
    config = meridian_config(tmp_path, **{"geodesic.length": 2.0,
                                          "geodesic.step": 1e-6})
    assert main(["geodesic", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "geodesic.step" in err and "1000000" in err
    limit = patched(MERIDIAN_CONFIG, **{"geodesic.step": 1e-6})
    assert parse_config(limit).geodesic.step == 1e-6
    # a step count beyond float range is rejected the same way
    config = meridian_config(tmp_path, **{"geodesic.length": 1e300,
                                          "geodesic.step": 1e-10})
    assert main(["geodesic", "--config", config]) == 1
    assert "geodesic.step" in capsys.readouterr().err


def test_info_parses_each_profile_once(tmp_path, capsys, monkeypatch):
    texts = []
    from_text = ProfileFunction.from_text.__func__

    def counting(cls, text, *args):
        texts.append(text)
        return from_text(cls, text, *args)

    monkeypatch.setattr(ProfileFunction, "from_text", classmethod(counting))
    assert main(["info", "--config", meridian_config(tmp_path)]) == 0
    assert texts == ["t", "1"]


def test_validation_unknown_key(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG)
    document["surprise"] = 1
    document["output"]["path"] = str(tmp_path / "out.csv")
    config = write_config(tmp_path, document)
    assert main(["geodesic", "--config", config]) == 1
    assert "surprise" in capsys.readouterr().err


def test_validation_nested_unknown_key(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG)
    document["geodesic"]["stepsize"] = 0.1
    del document["geodesic"]["step"]
    document["output"]["path"] = str(tmp_path / "out.csv")
    config = write_config(tmp_path, document)
    assert main(["geodesic", "--config", config]) == 1
    assert "geodesic.stepsize" in capsys.readouterr().err


def test_validation_bad_family(tmp_path, capsys):
    config = meridian_config(tmp_path, family="toroidal99")
    assert main(["info", "--config", config]) == 1
    assert "family" in capsys.readouterr().err


def test_validation_bad_variant(tmp_path, capsys):
    # a list or an object must not reach the set lookup, where it is
    # unhashable
    for variant in ("C", ["A"], {"x": 1}, 7):
        config = meridian_config(tmp_path, variant=variant)
        assert main(["info", "--config", config]) == 1
        assert ("config error: variant: must be 'A' or 'B'"
                in capsys.readouterr().err)


def test_validation_mixed_initial_styles(tmp_path, capsys):
    config = meridian_config(
        tmp_path, **{"geodesic.initial": {"u": 0, "v": 0, "t": 1,
                                          "du": 0, "phi": 1.0}})
    assert main(["geodesic", "--config", config]) == 1
    assert "geodesic.initial" in capsys.readouterr().err


def test_validation_reversed_domain(tmp_path, capsys):
    # reversed, or a width t_max - t_min beyond float range
    for domain in ([2.0, 1.0], [-1e308, 1e308]):
        config = meridian_config(tmp_path, domain=domain)
        assert main(["info", "--config", config]) == 1
        assert "domain" in capsys.readouterr().err


def test_validation_bad_profile_expression(tmp_path, capsys):
    for field, text, message in (
            ("profiles.fa", "t +", "expected a value at position 4"),
            ("profiles.fa", "\u0663*t",
             "unexpected character '\u0663' at position 1"),
            # nested too deep, or a derivative too large, to walk or lower
            ("profiles.fa", "+".join(["t"] * 1000),
             "expression nested deeper than 64 levels"),
            ("profiles.fb", sine_sum(500) + " + t^3",
             "derivative has 5001 nodes, more than 5000")):
        config = meridian_config(tmp_path, **{field: text})
        assert main(["info", "--config", config]) == 1
        assert f"config error: {field}: {message}" in capsys.readouterr().err


def test_validation_non_finite_literal(tmp_path, capsys):
    config = meridian_config(tmp_path, **{"profiles.fb": "1e400"})
    assert main(["info", "--config", config]) == 1
    assert "profiles.fb" in capsys.readouterr().err


@pytest.mark.parametrize("change,field", [
    ({"geodesic.length": 10 ** 400}, "geodesic.length"),
    ({"domain": [0.05, 10 ** 400]}, "domain"),
])
def test_validation_integer_beyond_float_range(tmp_path, capsys, change,
                                               field):
    config = meridian_config(tmp_path, **change)
    assert main(["geodesic", "--config", config]) == 1
    assert f"{field}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["xAngle", "vAngle"])
def test_validation_bad_angle_expression(tmp_path, capsys, field):
    # angles are parsed with the config, so every command rejects them
    document = patched(MERIDIAN_CONFIG, curvature={"xAngle": "t/2",
                                                   "vAngle": "t"})
    document["curvature"][field] = "sin("
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document)
    assert excinfo.value.field == f"curvature.{field}"
    assert main(["info", "--config", write_config(tmp_path, document)]) == 1
    assert f"curvature.{field}" in capsys.readouterr().err


def test_info_prints_grid_and_degeneracies(tmp_path, capsys):
    config = meridian_config(tmp_path, domain=[-1.0, 1.0])
    assert main(["info", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "t,E,G,N,degenerate" in out
    assert out.count("\n") >= 11


def test_domain_exit_before_ten_percent_fails(tmp_path, capsys):
    config = meridian_config(tmp_path, domain=[0.95, 1.02],
                             **{"geodesic.length": 1.0})
    assert main(["geodesic", "--config", config]) == 2
    assert "domain exit" in capsys.readouterr().err


def test_domain_exit_after_ten_percent_warns(tmp_path, capsys):
    config = meridian_config(tmp_path, domain=[0.5, 1.5],
                             **{"geodesic.length": 1.0})
    assert main(["geodesic", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert (tmp_path / "out.csv").exists()


def test_not_timelike_normalization_is_numerical_failure(tmp_path, capsys):
    config = meridian_config(tmp_path,
                             **{"geodesic.initial.du": 5.0,
                                "geodesic.normalize": True})
    assert main(["geodesic", "--config", config]) == 2


def overflow_config(tmp_path, **changes):
    """G = -(1e200)^2 overflows on the whole domain; t, dt start as in
    the meridian config."""
    return meridian_config(tmp_path, **{"domain": [0.5, 3.0],
                                        "profiles.fb": "1e200",
                                        "geodesic.initial.du": 0.5,
                                        "geodesic.length": 0.01,
                                        "geodesic.step": 0.001, **changes})


def test_info_reports_metric_overflow(tmp_path, capsys):
    assert main(["info", "--config", overflow_config(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert len(rows) == 10
    assert all(row.endswith(",error: metric overflow") for row in rows)


@pytest.mark.parametrize("command", ["geodesic", "invariants"])
@pytest.mark.parametrize("changes,line", [
    ({}, "numerical failure: nonfinite_state after s=0\n"),
    # fb^2 stays finite, but p_v = 2 G dv overflows after 19 rows
    ({"profiles.fb": "1e153*(9 + t)", "domain": [0.1, 10.0],
      "geodesic.initial.t": 0.3, "geodesic.initial.dv": 0.2,
      "geodesic.length": 0.5, "geodesic.step": 0.01},
     "numerical failure: nonfinite_state after s=0.17999999999999999\n"),
], ids=["first-row", "later-row"])
def test_metric_overflow_is_numerical_failure(tmp_path, capsys, command,
                                              changes, line):
    config = overflow_config(tmp_path, **changes)
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_output_dir_override(tmp_path, capsys, monkeypatch):
    override = tmp_path / "elsewhere"
    override.mkdir()
    monkeypatch.setenv("ROTSURF_OUTPUT_DIR", str(override))
    config = meridian_config(tmp_path)
    assert main(["geodesic", "--config", config]) == 0
    assert (override / "out.csv").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("changes", [
    {},
    # N dt^2 = -(1e200)^2 = -inf: L = -inf, not a zero velocity
    {"geodesic.initial.du": 0.0, "geodesic.initial.dt": 1e200},
    # E du^2 = +inf and N dt^2 = -inf: fsum raises on inf - inf
    {"geodesic.initial.du": 1e200, "geodesic.initial.dt": 1e200},
    # finite terms whose sum overflows: fsum raises OverflowError
    {"family": "hyperbolic23", "profiles.fa": "1+t", "profiles.fb": "2+t",
     "geodesic.initial.du": 5e153, "geodesic.initial.dv": 3.33e153,
     "geodesic.initial.dt": 0.0},
], ids=["G", "L-inf", "L-inf-minus-inf", "L-fsum-overflow"])
def test_metric_overflow_while_normalising_is_numerical_failure(tmp_path,
                                                                capsys,
                                                                changes):
    if changes:
        config = meridian_config(tmp_path, **{"geodesic.normalize": True,
                                              **changes})
    else:
        config = overflow_config(tmp_path, **{"geodesic.normalize": True})
    assert main(["geodesic", "--config", config]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "numerical failure: metric overflow\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_of_a_new_file(tmp_path, capsys, umask, mode):
    config = meridian_config(tmp_path, **{"geodesic.length": 0.01})
    previous = os.umask(umask)
    try:
        assert main(["invariants", "--config", config]) == 0
    finally:
        os.umask(previous)
    for name in ("out.csv", "out.summary.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


def test_json_trajectory_format(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG, **{"output.format": "json"})
    document["output"]["path"] = str(tmp_path / "out.json")
    config = write_config(tmp_path, document)
    assert main(["geodesic", "--config", config]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["termination"] == "completed"
    assert len(payload["samples"]) == 1001


def test_curvature_grid(tmp_path, capsys):
    document = {
        "family": "hyperbolic14",
        "profiles": {"fa": "2 + t^2/8", "fb": "3 + t"},
        "domain": [0.1, 2.0],
        "curvature": {"xAngle": "t/2", "vAngle": "t",
                      "grid": {"nt": 3, "ns": 4}},
        "output": {"path": str(tmp_path / "grid.csv"), "format": "csv"},
    }
    config = write_config(tmp_path, document)
    assert main(["curvature", "--config", config]) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "t,s,K_formula,K_oracle,K_gap,h3,h4,H_gap"
    assert len(lines) == 13


@pytest.mark.parametrize("field,value", [("nt", 2.7), ("ns", 0.5)])
def test_curvature_grid_rejects_non_integer_size(tmp_path, capsys, field, value):
    document = {
        "family": "hyperbolic14",
        "profiles": {"fa": "2 + t^2/8", "fb": "3 + t"},
        "domain": [0.1, 2.0],
        "curvature": {"xAngle": "t/2", "vAngle": "t",
                      "grid": dict({"nt": 3, "ns": 4}, **{field: value})},
        "output": {"path": str(tmp_path / "grid.csv"), "format": "csv"},
    }
    config = write_config(tmp_path, document)
    assert main(["curvature", "--config", config]) == 1
    assert f"curvature.grid.{field}: must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def test_curvature_degenerate_grid_is_numerical_failure(tmp_path, capsys):
    document = {
        "family": "hyperbolic14",
        "profiles": {"fa": "2+t", "fb": "2+t"},
        "domain": [0.1, 2.0],
        # fa = fb and x = w: P = Q = 0, so both normals are null
        "curvature": {"xAngle": "t", "vAngle": "t"},
        "output": {"path": str(tmp_path / "grid.csv"), "format": "csv"},
    }
    config = write_config(tmp_path, document)
    assert main(["curvature", "--config", config]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_curvature_frozen_v_angle_has_a_timelike_e3(tmp_path, capsys):
    # P = fa^2 > 0 with w frozen: e3 is a timelike normal of hyperbolic14,
    # not a degenerate frame
    document = {
        "family": "hyperbolic14",
        "profiles": {"fa": "2+t", "fb": "3+2*t"},
        "domain": [0.1, 2.0],
        "curvature": {"xAngle": "t", "vAngle": "1"},
        "output": {"path": str(tmp_path / "grid.csv"), "format": "csv"},
    }
    assert main(["curvature", "--config",
                 write_config(tmp_path, document)]) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    surface = DoubleRotationSurface(
        make_family("hyperbolic14", "A", "2+t", "3+2*t", 0.1, 2.0),
        ProfileFunction.from_text("t", 0.1, 2.0),
        ProfileFunction.from_text("1", 0.1, 2.0))
    for line in lines[1:]:
        t, s, _, k_oracle, k_gap, _, _, h_gap = map(float, line.split(","))
        assert k_gap <= 1e-9 * max(1.0, abs(k_oracle))
        assert h_gap <= 1e-9
        e3, _ = normal_frame(surface, t, s)
        assert abs(inner(e3, e3) + 1.0) <= 1e-10


# the curved surface of scripts/curvature_audit.py, on the CLI's grid
AUDIT_SURFACE = {
    "family": "hyperbolic14",
    "profiles": {"fa": "2 + t^2/8", "fb": "3 + t"},
    "domain": [0.1, 2.0],
    "curvature": {"xAngle": "t/2", "vAngle": "t"},
}


def run_curvature(tmp_path, capsys, **changes):
    """Exit code and standard error of ``rotsurf curvature`` on the audit
    surface with ``changes``; a failing run must leave no artifact and no
    temporary file, though it fails after earlier t-rows were written."""
    document = patched(AUDIT_SURFACE, **changes)
    document["output"] = {"path": str(tmp_path / "grid.csv")}
    code = main(["curvature", "--config", write_config(tmp_path, document)])
    if code != 0:
        assert os.listdir(tmp_path) == ["config.json"]
    return code, capsys.readouterr().err


@pytest.mark.parametrize("changes,line", [
    # cosh(1000 t) overflows in the rotation block of the v-angle
    ({"curvature.vAngle": "1000*t"},
     "t=0.7649999999999999, s=0.19500000000000001: cosh overflow"),
    # fb^2 w'^2 in P overflows, so the frame has no finite P Q
    ({"profiles.fb": "1e160*(3 + t)", "curvature.grid": {"nt": 1, "ns": 1}},
     "t=1.05, s=1.05: curvature overflow"),
    # det = P Q is about 1e-180, so det^2 underflows to 0
    ({"family": "hyperbolic23", "profiles.fa": "2 + t/2",
      "profiles.fb": "1 + t/4", "curvature.xAngle": "1e-90*t",
      "curvature.vAngle": "1", "curvature.grid": {"nt": 1, "ns": 1}},
     "t=1.05, s=1.05: division by zero"),
], ids=["cosh", "frame", "determinant"])
def test_curvature_overflow_is_numerical_failure(tmp_path, capsys, changes,
                                                 line):
    assert run_curvature(tmp_path, capsys, **changes) == (
        2, f"numerical failure at {line}\n")


@pytest.mark.parametrize("changes,line", [
    # the angle fails on the last row only: its first point
    ({"curvature.xAngle": "sqrt(1.5 - t)"},
     "t=1.7625, s=0.33750000000000002: sqrt of a negative number"),
    # the profile fails on the last column, the angle on the last row: the
    # last point of the first row
    ({"profiles.fb": "3 + t + log(1.5 - t)/100",
      "curvature.xAngle": "sqrt(1.5 - t)"},
     "t=0.33750000000000002, s=1.7625: log of a non-positive number"),
    # both fail at the first point: the profile's error comes first
    ({"profiles.fb": "3 + log(t - 0.5)", "curvature.xAngle": "sqrt(t - 0.5)"},
     "t=0.33750000000000002, s=0.33750000000000002: "
     "log of a non-positive number"),
], ids=["row", "column", "both"])
def test_curvature_reports_first_failing_point(tmp_path, capsys, changes,
                                               line):
    assert run_curvature(tmp_path, capsys, **changes,
                         **{"curvature.grid": {"nt": 4, "ns": 4}}) == (
        2, f"numerical failure at {line}\n")


# the later-row overflow of ``test_metric_overflow_is_numerical_failure``,
# and a curvature run whose cosh overflows after its first t-rows are written
FAILING_RUNS = {
    "invariants": patched(MERIDIAN_CONFIG, **{
        "domain": [0.1, 10.0], "profiles.fb": "1e153*(9 + t)",
        "geodesic.initial.t": 0.3, "geodesic.initial.du": 0.5,
        "geodesic.initial.dv": 0.2, "geodesic.length": 0.5,
        "geodesic.step": 0.01}),
    "curvature": patched(AUDIT_SURFACE, **{"curvature.vAngle": "1000*t"}),
}


@pytest.mark.parametrize("command", sorted(FAILING_RUNS))
@pytest.mark.parametrize("existing", [[], ["new"], ["new", "sub"]],
                         ids=["none", "parent", "both"])
def test_failed_run_removes_only_the_directories_it_made(tmp_path, capsys,
                                                         command, existing):
    # output.path is new/sub/out.csv; the directories in ``existing`` are
    # there before the run and must stay, empty, after it fails
    for depth in range(len(existing)):
        tmp_path.joinpath(*existing[:depth + 1]).mkdir()
    document = json.loads(json.dumps(FAILING_RUNS[command]))
    document["output"] = {"path": str(tmp_path / "new" / "sub" / "out.csv")}
    config = write_config(tmp_path, document)
    assert main([command, "--config", config]) == 2
    assert "numerical failure" in capsys.readouterr().err
    left = sorted(str(path.relative_to(tmp_path))
                  for path in tmp_path.rglob("*"))
    assert left == sorted(["config.json",
                           *(os.path.join(*existing[:depth + 1])
                             for depth in range(len(existing)))])


@pytest.mark.parametrize("grid", [{"nt": 1001, "ns": 1001},
                                  {"nt": 1e300, "ns": 1}])
def test_curvature_grid_size_limit(tmp_path, capsys, grid):
    assert run_curvature(tmp_path, capsys, **{"curvature.grid": grid}) == (
        1, "config error: curvature.grid: nt*ns must be at most 1000000 "
           "points\n")


def test_isometry_takes_negative_angle_with_exponent(tmp_path, capsys):
    config = meridian_config(tmp_path)
    assert main(["isometry", "--config", config, "--generator", "boost13",
                 "--angle", "-1e-3"]) == 0
    assert "angle -0.001:" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-NaN", "-Infinity"])
def test_isometry_rejects_non_finite_angle(tmp_path, capsys, monkeypatch,
                                           value):
    # rejected before the config is read or a geodesic is integrated
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr("rotsurf.cli.load_config", no_work)
    monkeypatch.setattr("rotsurf.cli._run_chunks", no_work)
    config = meridian_config(tmp_path)
    assert main(["isometry", "--config", config, "--generator", "boost13",
                 "--angle", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--angle: must be finite" in captured.err


def test_runtime_imports_no_numpy():
    # a fresh interpreter, so that numpy imported by other tests cannot mask
    # an import made by rotsurf
    src = str(Path(rotsurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "\n".join([
        "import sys",
        "import rotsurf",
        "from rotsurf.cli import main",
        "assert main(['parse-check', 't']) == 0",
        "print('numpy' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"


def test_package_imports_itself_only_relatively():
    # rotsurf's modules reach each other by relative imports alone, so a
    # copy of the package loaded under another name uses its own modules
    paths = sorted(Path(rotsurf.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not [name for name in names if name == "rotsurf"
                        or name.startswith("rotsurf.")], \
                f"{path.name}:{node.lineno} imports rotsurf absolutely"


def test_parser_is_built_once_on_the_first_call():
    # a fresh interpreter, so that the count starts before rotsurf.cli is
    # imported; each parser and subparser is one ArgumentParser
    src = str(Path(rotsurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(self)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "from rotsurf.cli import main",
        "counts = [len(built)]",
        "assert main(['parse-check', 't']) == 0",
        "counts.append(len(built))",
        "assert main(['parse-check', 'cos(t)']) == 0",
        "assert main(['parse-check', '2*t']) == 0",
        "counts.append(len(built))",
        "print(counts)",
    ])
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 7, 7]"


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call; a usage error's
    ``SystemExit`` gives its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_outcome(argv, capsys):
    """``_outcome`` with a parser built anew for this call."""
    _build_parser.cache_clear()
    return _outcome(argv, capsys)


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    config = meridian_config(tmp_path, **{"geodesic.length": 0.01})
    isometry = ["isometry", "--config", config, "--generator", "boost13"]
    sequences = [
        (isometry + ["--angle", "-1e-3"], isometry),
        # a usage error (SystemExit(2)) before a valid command
        (["isometry", "--config"], ["parse-check", "sin(t)"]),
        (["isometry", "--config", config], isometry),
        (["info", "--config", config], ["parse-check", "t^2"],
         ["info", "--config", config]),
    ]
    for sequence in sequences:
        expected = [_fresh_outcome(argv, capsys) for argv in sequence]
        _fresh_outcome(["parse-check", "t"], capsys)
        assert [_outcome(argv, capsys) for argv in sequence] == expected


@pytest.mark.parametrize("argv,usage,message", [
    (["isometry", "--config", "run.json"], "usage: rotsurf isometry",
     "the following arguments are required: --generator"),
    (["killing"], "usage: rotsurf [-h]", "invalid choice: 'killing'"),
])
def test_usage_error_reaches_captured_stderr(capsys, argv, usage, message):
    main(["parse-check", "t"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert message in captured.err


def test_readme_commands_block_names_every_subcommand():
    # a retired command cannot linger in the docs, nor a new one go
    # undocumented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"^Commands:\n\n```sh\n(.*?)^```", readme,
                      re.S | re.M).group(1)
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert re.findall(r"^rotsurf (\S+)", block, re.M) == list(
        subparsers.choices) == ["info", "geodesic", "invariants",
                                "curvature", "isometry", "parse-check"]


def test_parse_check(capsys):
    assert main(["parse-check", "2*t+1"]) == 0
    out = capsys.readouterr().out
    assert "d1: 2.0" in out
    assert "d2: 0.0" in out


def test_parse_check_syntax_error(capsys):
    assert main(["parse-check", "t +"]) == 1
    assert "position 4" in capsys.readouterr().err
    # nothing is printed of a tree nested too deep or too large
    for text, message in (("+".join(["t"] * 400), "nested deeper than 64"),
                          ("0.5 + " + "*".join(["t"] * 45), "60631 nodes")):
        assert main(["parse-check", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def integrated(config):
    """``integrate`` of ``config``'s geodesic from its ``initial_state``."""
    fam = config.build_family()
    return integrate(fam, initial_state(config, fam)[0],
                     config.geodesic.length, config.geodesic.step)


def isometry_values(out: str) -> list[float]:
    """Charge, drift, max |q - p/2|/max(1, |p|) and image defect of one
    ``rotsurf isometry`` line."""
    return [float(part.rsplit(" ", 1)[1])
            for part in out.split(": ", 1)[1].split(", ")]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_isometry_command(tmp_path, capsys, name):
    document = dict(CONFIGS[name], output={"path": str(tmp_path / "out.csv")})
    config = write_config(tmp_path, document)
    parsed = parse_config(document)
    fam = parsed.build_family()
    largest = max(max(map(abs, fam.immerse(u, v, t).components()))
                  for _, u, v, t, *_ in integrated(parsed).rows)
    lines = {}
    for generator in (fam.spec.rot_u.label, fam.spec.rot_v.label):
        for angle in ("0.7", "-3"):
            assert main(["isometry", "--config", config, "--generator",
                         generator, "--angle", angle]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"generator {generator} angle {_fmt(float(angle))}:")
            lines[generator, angle] = out
        # the charge of the family's own rotation is half its momentum, and
        # conserved; the rotation maps the immersion onto itself
        _, drift, defect, image = isometry_values(lines[generator, "0.7"])
        assert drift <= 1e-8
        assert defect <= 1e-12
        assert image <= 1e-12 * max(1.0, largest)
    # the line depends on both flags, its values on the generator
    assert len(set(lines.values())) == 4
    assert len({out.split(": ", 1)[1] for out in lines.values()}) >= 2


def test_isometry_charge_of_a_foreign_generator_drifts():
    # the check can fail: no other rotation's field is tangent to h14
    config = parse_config(CONFIGS["h14"])
    fam = config.build_family()
    rows = integrated(config).rows
    for rotation in set(Rotation) - {fam.spec.rot_u, fam.spec.rot_v}:
        field = _plane_map(rotation,
                           rotation.derivative(rotation.block(0.0)), 0.0)
        charges = [_charge(fam, field, row)[0] for row in rows]
        assert _drift(charges) > 1e-4, rotation


def test_isometry_takes_block_columns_twice_per_row(tmp_path, capsys,
                                                   monkeypatch):
    # the point and its frame share one FamilySpec.columns call at the
    # row's (u, v); the rotated image's target takes its own, shifted
    document = dict(CONFIGS["h14"], output={"path": str(tmp_path / "out.csv")})
    config = write_config(tmp_path, document)
    parsed = parse_config(document)
    fam = parsed.build_family()
    rows = integrated(parsed).rows
    calls, columns = [], FamilySpec.columns

    def recording(spec, u, v):
        calls.append((u, v))
        return columns(spec, u, v)

    monkeypatch.setattr(FamilySpec, "columns", recording)
    assert main(["isometry", "--config", config, "--generator",
                 fam.spec.rot_u.label, "--angle", "0.7"]) == 0
    assert calls[::2] == [(u, v) for _, u, v, *_ in rows]
    assert calls[1::2] == [(u + 0.7, v) for _, u, v, *_ in rows]


def test_isometry_overflow_is_numerical_failure(tmp_path, capsys):
    # cosh(800) is beyond the float range
    config = meridian_config(tmp_path)
    assert main(["isometry", "--config", config, "--generator", "boost13",
                 "--angle", "800"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: boost13 at angle 800 "
                            "overflows\n")


def test_isometry_image_overflow_is_numerical_failure(tmp_path, capsys):
    # cosh(709) = 4.1e307 keeps the rotation matrix finite; only the
    # rotated image of the points, near x1 = 5, is beyond the float range
    config = meridian_config(tmp_path, **{"geodesic.initial.t": 5.0})
    assert main(["isometry", "--config", config, "--generator", "boost13",
                 "--angle", "709"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: boost13 at angle 709 "
                            "overflows\n")


# (changes to the meridian config, --angle, stderr): the first run leaves
# the domain at its fifth row, before the rotation at 800 is built; the
# others overflow at their first row's image and leave the domain later
_EARLY_ENDS = [
    ({"geodesic.initial": {"u": 0, "v": 0, "t": 0.06, "du": 0.3, "dv": 0.1,
                           "dt": -2}}, "800",
     "numerical failure: domain exit at s=0.0040000000000000001 (before "
     "10% of requested length)\n"),
    ({"geodesic.initial.t": 5.0, "domain": [0.05, 5.05]}, "709",
     "numerical failure: domain exit at s=0.049000000000000002 (before "
     "10% of requested length)\n"),
    ({"geodesic.initial.t": 5.0, "domain": [0.05, 5.2]}, "709",
     "warning: domain_exit at s=0.19900000000000001\n"
     "numerical failure: boost13 at angle 709 overflows\n"),
]


@pytest.mark.parametrize("chunk", [256, 1])
@pytest.mark.parametrize("changes,angle,err", _EARLY_ENDS,
                         ids=["matrix", "image", "image-after-10%"])
def test_isometry_failed_run_outranks_overflow(tmp_path, capsys, monkeypatch,
                                               chunk, changes, angle, err):
    """The run's end is checked before an overflow of the rotation or of
    an image is reported, in any chunks: a failed run's line, or an early
    end's warning before the overflow's."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    config = meridian_config(tmp_path, **changes)
    assert main(["isometry", "--config", config, "--generator", "boost13",
                 "--angle", angle]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("angle", ["0.5", "800"])
def test_isometry_domain_error_at_the_first_row_is_config_error(
        tmp_path, capsys, angle):
    # the start's own state is valid; the run's first row is not
    changes = {"profiles.fa": "sqrt(t - 2)", "geodesic.initial.t": 1.0}
    parsed = parse_config(patched(MERIDIAN_CONFIG, **changes))
    initial_state(parsed, parsed.build_family())
    assert main(["isometry", "--config", meridian_config(tmp_path, **changes),
                 "--generator", "boost13", "--angle", angle]) == 1
    assert capsys.readouterr() == ("", "config error: sqrt of a negative "
                                       "number\n")


def test_isometry_rejects_foreign_generator(tmp_path, capsys):
    config = meridian_config(tmp_path)
    assert main(["isometry", "--config", config, "--generator", "spin12",
                 "--angle", "0.5"]) == 1
    assert "generator" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["info", "--config", str(tmp_path / "absent.json")]) == 1


_GRID = {"xAngle": "t", "vAngle": "1", "grid": {"nt": 0, "ns": 2}}
# json.dumps writes no key twice: these texts repeat one of MERIDIAN_CONFIG's
_MERIDIAN_TEXT = json.dumps(MERIDIAN_CONFIG)
_REPEATS = {"geodesic.step": ('"step": 0.001', '"step": 0.1, "step": 0.001'),
            "family": ('"variant"', '"family": "elliptic56", "variant"'),
            "geodesic.initial.u": ('"v": 0', '"u": 1, "v": 0')}


def test_duplicate_key_search_is_linear(tmp_path, capsys):
    # 50,000 keys, the first of them repeated last: a search that rebuilds
    # the keys before each pair takes minutes
    keys = [f"k{i}" for i in range(50_000)] + ["k0"]
    text = _MERIDIAN_TEXT.replace(
        '"step": 0.001', ", ".join(f'"{key}": 0' for key in keys), 1)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert main(["geodesic", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr() == ("", "config error: geodesic.k0: "
                                       "duplicate key\n")


@pytest.mark.parametrize("argv,changes,line", [
    ("geodesic", {"geodesic.length": None}, "geodesic.length: missing"),
    ("geodesic", {"geodesic.length": "1"},
     "geodesic.length: must be a number"),
    ("geodesic", {"geodesic.length": 0}, "geodesic.length: must be > 0"),
    ("geodesic", {"geodesic.length": -1.5}, "geodesic.length: must be > 0"),
    ("geodesic", {"geodesic.step": 1.5},
     "geodesic.step: must be <= geodesic.length"),
    ("geodesic", {"geodesic.normalize": 1},
     "geodesic.normalize: must be a boolean"),
    ("info", {"profiles.fb": None}, "profiles.fb: missing"),
    ("info", {"profiles.fa": "  "}, "profiles.fa: must be a non-empty string"),
    ("info", {"profiles": ["t", "1"]}, "profiles: must be an object"),
    ("info", {"geodesic": [1.0]}, "geodesic: must be an object"),
    ("info", {"output": "out.csv"}, "output: must be an object"),
    ("info", {"curvature": _GRID}, "curvature.grid: nt and ns must be >= 1"),
    ("info", {"output.format": "xml"},
     "output.format: must be 'csv' or 'json'"),
    ("info", {"domain": [0.05]}, "domain: must be [t_min, t_max]"),
    ("info", {"domain": "0.05, 10"}, "domain: must be [t_min, t_max]"),
    ("info", {"domain": [0.05, "10"]}, "domain: must be a number"),
    ("info", "{", "config: invalid JSON: Expecting property name enclosed "
                  "in double quotes: line 1 column 2 (char 1)"),
    *[("geodesic", _MERIDIAN_TEXT.replace(*_REPEATS[field], 1),
       f"{field}: duplicate key") for field in _REPEATS],
    ("geodesic", {"output": None}, "output: missing"),
    ("invariants", {"output": None}, "output: missing"),
    ("curvature", {"output": None}, "output: missing"),
    ("geodesic", {"geodesic": None}, "geodesic: missing"),
    ("isometry --generator boost13", {"geodesic": None}, "geodesic: missing"),
    ("curvature", {}, "curvature: missing"),
    ("geodesic", {"geodesic.initial.t": 50},
     "geodesic.initial.t: must lie in domain [0.05, 10.0]"),
    ("geodesic", {"geodesic.initial": {"u": 0, "v": 0, "t": 0.01,
                                       "phi": 0.5, "theta": 0.1}},
     "geodesic.initial.t: must lie in domain [0.05, 10.0]"),
])
def test_validation_error_names_its_field(tmp_path, capsys, argv, changes,
                                          line):
    """Exit 1 with one ``config error: <field>: <message>`` line, before
    any artifact is written."""
    path = tmp_path / "config.json"
    if isinstance(changes, str):
        path.write_text(changes)
    else:
        document = patched(MERIDIAN_CONFIG, **changes)
        if isinstance(document.get("output"), dict):
            document["output"]["path"] = str(tmp_path / "out.csv")
        path.write_text(json.dumps(document))
    command, *flags = argv.split()
    assert main([command, "--config", str(path), *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
    assert os.listdir(tmp_path) == ["config.json"]


def test_write_atomic_leaves_no_temporary_file(tmp_path, monkeypatch):
    def failing(source, target):
        raise OSError(errno.EIO, "replace failed")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(ConfigError, match="cannot write .*: replace failed"):
        _write_atomic(str(tmp_path / "out.csv"), "s,u\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("target,override,field,reason", [
    ("taken", None, "output.path", "Is a directory"),
    ("plain/sub/out.csv", None, "output.path", "Not a directory"),
    ("out.csv", "plain", "ROTSURF_OUTPUT_DIR", "File exists"),
], ids=["path-is-a-directory", "path-below-a-file", "output-dir-is-a-file"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch,
                                             target, override, field, reason):
    """The message names the setting at fault: output.path, or the
    environment variable when the directory it names cannot be used."""
    (tmp_path / "taken").mkdir()
    (tmp_path / "plain").write_text("")
    document = patched(MERIDIAN_CONFIG)
    document["output"]["path"] = str(tmp_path / target)
    config = write_config(tmp_path, document)
    written = tmp_path / target
    if override is not None:
        monkeypatch.setenv("ROTSURF_OUTPUT_DIR", str(tmp_path / override))
        written = tmp_path / override / "out.csv"
    assert main(["geodesic", "--config", config]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"config error: {field}: cannot write {str(written)!r}: "
            f"{reason}\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "plain", "taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_invariants_replaces_neither_file_unless_both_are_written(
        tmp_path, capsys):
    """The summary is written before either file is replaced: when only it
    cannot be, the old artifact keeps its bytes and no temporary is left."""
    config = meridian_config(tmp_path)
    (tmp_path / "out.csv").write_text("old bytes\n")
    (tmp_path / "out.summary.json").mkdir()
    assert main(["invariants", "--config", config]) == 1
    summary = tmp_path / "out.summary.json"
    assert capsys.readouterr().err == (
        f"config error: output.path: cannot write {str(summary)!r}: "
        f"Is a directory\n")
    assert (tmp_path / "out.csv").read_text() == "old bytes\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "out.csv",
                                            "out.summary.json"]
    assert os.listdir(summary) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_artifact_is_the_same_in_any_chunking(tmp_path, capsys,
                                                         monkeypatch, fmt):
    """Rows are taken through invariants, formatting and the drifts a chunk
    at a time; chunks of 7 rows and one chunk write the same bytes."""
    document = patched(MERIDIAN_CONFIG, **{"geodesic.initial.du": 0.3,
                                           "geodesic.initial.dv": 0.1,
                                           "geodesic.length": 0.05,
                                           "output.format": fmt})
    texts = []
    for chunk in (7, 4096):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        out = tmp_path / str(chunk)
        out.mkdir()
        document["output"]["path"] = str(out / f"out.{fmt}")
        assert main(["invariants", "--config",
                     write_config(out, document)]) == 0
        texts.append([(out / name).read_bytes()
                      for name in (f"out.{fmt}", "out.summary.json")])
    assert texts[0] == texts[1]
    capsys.readouterr()


# the State-run member: hyperbolic14 A, fa = t, fb = 1, a unit-timelike
# start; 14 steps of 0.005, the last one short, to s = 0.0695
STATE_MEMBER = patched(MERIDIAN_CONFIG, **{
    "geodesic.initial.du": 0.3, "geodesic.initial.dv": 0.1,
    "geodesic.initial.dt": math.sqrt(1.08), "geodesic.length": 0.0695,
    "geodesic.step": 0.005})


def _state_member_row(k):
    """Row ``k`` of the State-run member's trajectory."""
    return integrated(parse_config(STATE_MEMBER)).rows[k]


def _run_in(directory, capsys, command, document, fmt="csv"):
    """(exit code, stdout, stderr, {file name: bytes}) of ``command`` on
    ``document``, run in an empty ``directory``."""
    directory.mkdir()
    document = json.loads(json.dumps(document))
    document["output"] = {"path": str(directory / f"out.{fmt}"),
                          "format": fmt}
    code = main([command, "--config", write_config(directory, document)])
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in directory.iterdir()
             if path.name != "config.json"}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["geodesic", "invariants"])
def test_chunk_boundaries_keep_the_artifact_bytes(tmp_path, capsys,
                                                  monkeypatch, command, fmt):
    """The State-run member in chunks of 1, 7, 14, 15 and 256 rows: in
    chunks of 1, 7 and 14 the last row, at s = length, starts a chunk, so
    its s is the one the run carried, not 14 * step."""
    outcomes = []
    for chunk in (256, 1, 7, 14, 15):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        outcomes.append(_run_in(tmp_path / str(chunk), capsys, command,
                                STATE_MEMBER, fmt))
    code, out, err, files = outcomes[0]
    assert (code, err) == (0, "")
    if command == "geodesic":
        assert out.endswith(" (15 samples, completed)\n")
    assert sorted(files) == [f"out.{fmt}"] + (
        ["out.summary.json"] if command == "invariants" else [])
    text = files[f"out.{fmt}"].decode()
    assert (float(text.splitlines()[-1].split(",")[0]) if fmt == "csv" else
            json.loads(text)["samples"][-1]["s"]) == 0.0695
    # the path in stdout names each run's own directory
    assert [(c, o.replace(f"/{chunk}/", "/"), e, f) for (c, o, e, f), chunk
            in zip(outcomes, (256, 1, 7, 14, 15))] == \
        [(code, out.replace("/256/", "/"), err, files)] * 5


@pytest.mark.parametrize("size", [1, 7, 14, 15, 256, math.inf])
def test_integrate_rows_are_the_chunks_joined(size):
    config = parse_config(STATE_MEMBER)
    fam = config.build_family()
    state0, _ = initial_state(config, fam)
    *chunks, termination = _run_chunks(fam, state0, 0.0695, 0.005, size)
    trajectory = integrate(fam, state0, 0.0695, 0.005)
    assert all(0 < len(chunk) <= size for chunk in chunks)
    assert repr([row for chunk in chunks for row in chunk]) == \
        repr(list(trajectory.rows))
    assert termination == trajectory.termination == "completed"
    assert trajectory.rows[-1][0] == 0.0695


def _guarded_at_row(k, **changes):
    """The State-run member with ``changes`` whose fb = 1 divides by
    t - (t of row ``k``): only row ``k``'s own state, at the top of the
    loop, divides by zero, none of the RK4 stages before it does."""
    t = _state_member_row(k)[3]
    return patched(STATE_MEMBER, **{"profiles.fb": f"1 + 0*(1/(t - {t!r}))",
                                    **changes})


# (document, rows written, exit code, stderr); the degenerate run is
# ``test_geodesics``' sixth-step stage on fa = 0, the nonfinite one
# ``test_metric_overflow_is_numerical_failure``'s p_v overflow at the top
# of row 19
TERMINATIONS = {
    "domain-exit": (lambda: _guarded_at_row(7), 7, 0,
                    "warning: domain_exit at s=0.029999999999999999\n"),
    "early-domain-exit": (
        lambda: _guarded_at_row(7, **{"geodesic.length": 1.0}), 7, 2,
        "numerical failure: domain exit at s=0.029999999999999999 (before "
        "10% of requested length)\n"),
    "degenerate-metric": (
        lambda: patched(STATE_MEMBER, **{
            "profiles.fa": "t - 0.5", "profiles.fb": "2*t + 3",
            "domain": [-2.0, 2.0], "geodesic.length": 3.0,
            "geodesic.step": 0.25, "geodesic.initial": {
                "u": 0.1, "v": 0.2, "t": -1.0, "du": 0.0, "dv": 0.0,
                "dt": 1.0}}), 6, 2,
        "numerical failure: degenerate_metric after s=1.25\n"),
    "nonfinite-state": (
        lambda: patched(MERIDIAN_CONFIG, **{
            "profiles.fb": "1e153*(9 + t)", "domain": [0.1, 10.0],
            "geodesic.initial.t": 0.3, "geodesic.initial.du": 0.5,
            "geodesic.initial.dv": 0.2, "geodesic.length": 0.5,
            "geodesic.step": 0.01}), 19, 2,
        "numerical failure: nonfinite_state after s=0.17999999999999999\n"),
}


@pytest.mark.parametrize("command", ["geodesic", "invariants"])
@pytest.mark.parametrize("case", sorted(TERMINATIONS))
def test_terminations_on_a_chunk_boundary(tmp_path, capsys, monkeypatch,
                                          command, case):
    """A run that ends at its ``rows``-th row, in chunks that end just
    before, at and just after that row: the same warning and bytes, or
    the same failure with no artifact and no temporary file left."""
    make, rows, code, err = TERMINATIONS[case]
    document = make()
    outcomes = []
    for chunk in (256, 1, rows - 1, rows, rows + 1):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        outcomes.append(_run_in(tmp_path / str(chunk), capsys, command,
                                document))
    for chunk, outcome in zip((256, 1, rows - 1, rows, rows + 1), outcomes):
        got_code, out, got_err, files = outcome
        assert (got_code, got_err) == (code, err), chunk
        if code:
            assert (out, files) == ("", {}), chunk
            assert os.listdir(tmp_path / str(chunk)) == ["config.json"]
        else:
            assert files == outcomes[0][3], chunk
            assert len(files["out.csv"].splitlines()) == rows + 1
    if code == 0 and command == "geodesic":
        assert outcomes[0][1].endswith(f" ({rows} samples, domain_exit)\n")


def _peaks_mib(tmp_path, runs):
    """Peak resident memory in MiB of each (argv, document) of ``runs``,
    ``main`` of argv plus ``--config`` and the document's path, each in a
    fresh interpreter of its own, all running side by side.

    The peak is the child's ``VmHWM``, the high-water mark of its own
    address space.  Its ``ru_maxrss`` would not do: an exec'd child starts
    from its parent's high-water mark, here this test process's."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads Linux's /proc/self/status")
    src = str(Path(rotsurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import re, sys\n"
              "from rotsurf.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as status:\n"
              "    print(code, re.search(r'VmHWM:\\s*(\\d+) kB', "
              "status.read())[1])\n")
    children = []
    for k, (argv, document) in enumerate(runs):
        directory = tmp_path / str(k)
        directory.mkdir()
        document = dict(document, output={"path": str(directory / "out.csv")})
        children.append(subprocess.Popen(
            [sys.executable, "-c", script, *argv, "--config",
             write_config(directory, document)],
            env=env, stdout=subprocess.PIPE, text=True))
    peaks = []
    for child in children:
        code, kib = child.communicate(timeout=120)[0].split()[-2:]
        assert (child.returncode, code) == (0, "0")
        peaks.append(int(kib) / 1024.0)
    return peaks


@pytest.mark.parametrize("argv", [
    ["invariants"], ["isometry", "--generator", "boost13"]],
    ids=["invariants", "isometry"])
def test_invariants_memory_does_not_grow_with_the_row_count(tmp_path, argv):
    """10,001 and 100,001 rows of the State-run member at step 0.001 peak
    within 10 MiB of each other: no run holds its rows whole."""
    runs = [(argv, patched(STATE_MEMBER, **{
        "domain": [0.05, 1000.0], "geodesic.length": length,
        "geodesic.step": 0.001})) for length in (10.0, 100.0)]
    small, large = _peaks_mib(tmp_path, runs)
    assert large - small <= 10.0, (small, large)


def test_curvature_memory_does_not_grow_with_the_grid(tmp_path):
    """100 x 100 and 300 x 300 points of the h14 golden surface peak
    within 10 MiB of each other: the grid is written a t-row at a time."""
    runs = [(["curvature"], dict(CONFIGS["h14"], curvature=dict(
        CONFIGS["h14"]["curvature"], grid={"nt": n, "ns": n})))
        for n in (100, 300)]
    small, large = _peaks_mib(tmp_path, runs)
    assert large - small <= 10.0, (small, large)


@given(st.lists(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1e16, 1e-7]),
    st.integers(-10**20, 10**20)), min_size=3, max_size=3), max_size=6))
def test_json_template_gives_the_bytes_of_json_dumps(rows):
    """The ``%r`` template of a chunk of finite floats and ints writes what
    ``json.dumps(indent=2, sort_keys=True)`` writes."""
    names, rows = ("b", "a", "C"), [tuple(row) for row in rows]
    chunks = [rows[:2], [], rows[2:]]
    text = "".join(cli._table("json", names, chunks, "rows", {"k": "v"}))
    payload = {"k": "v", "rows": [dict(zip(names, row)) for row in rows]}
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# every value in every column: signed zeros, the smallest subnormal, large
# and exactly representable magnitudes, and the JSON spellings NaN and
# +-Infinity
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, math.nan,
            math.inf, -math.inf, 1.0 / 3.0, -2.5)
_INTEGERS = (0, 1, -7, 10**16, 10**20, -(10**17) - 1)


def _table(width, values):
    return [tuple(values[(i + k) % len(values)] for k in range(width))
            for i in range(len(values))]


@pytest.mark.parametrize("names,key,extra", [
    (_TRAJECTORY_COLUMNS, "samples",
     {"columns": list(_TRAJECTORY_COLUMNS), "termination": "completed"}),
    (_CURVATURE_COLUMNS, "grid", {}),
], ids=["trajectory", "curvature"])
@pytest.mark.parametrize("values", [_SPECIAL, _INTEGERS, ()],
                         ids=["special", "integers", "empty"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_matches_plain_formatting(tmp_path, names, key, extra,
                                              values, fmt):
    rows = _table(len(names), values) if values else []
    path = tmp_path / f"table.{fmt}"
    _write_atomic(str(path), cli._table(fmt, names, [rows], key, extra))
    if fmt == "csv":
        lines = [",".join(names)]
        lines += [",".join(f"{value:.17g}" for value in row) for row in rows]
        expected = "\n".join(lines) + "\n"
    else:
        payload = dict(extra, **{key: [dict(zip(names, row)) for row in rows]})
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
