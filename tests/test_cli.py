"""Config validation, artifact writing, exit codes, determinism."""

import json
import math

import pytest

from rotsurf import make_family
from rotsurf.cli import main

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


def test_validation_mixed_initial_styles(tmp_path, capsys):
    config = meridian_config(
        tmp_path, **{"geodesic.initial": {"u": 0, "v": 0, "t": 1,
                                          "du": 0, "phi": 1.0}})
    assert main(["geodesic", "--config", config]) == 1
    assert "geodesic.initial" in capsys.readouterr().err


def test_validation_reversed_domain(tmp_path, capsys):
    config = meridian_config(tmp_path, domain=[2.0, 1.0])
    assert main(["info", "--config", config]) == 1
    assert "domain" in capsys.readouterr().err


def test_validation_bad_profile_expression(tmp_path, capsys):
    config = meridian_config(tmp_path, **{"profiles.fa": "t +"})
    assert main(["info", "--config", config]) == 1
    assert "profiles.fa" in capsys.readouterr().err


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


def test_output_dir_override(tmp_path, capsys, monkeypatch):
    override = tmp_path / "elsewhere"
    override.mkdir()
    monkeypatch.setenv("ROTSURF_OUTPUT_DIR", str(override))
    config = meridian_config(tmp_path)
    assert main(["geodesic", "--config", config]) == 0
    assert (override / "out.csv").exists()
    assert not (tmp_path / "out.csv").exists()


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
        "profiles": {"fa": "2+t", "fb": "3+2*t"},
        "domain": [0.1, 2.0],
        # frozen v-angle makes the first frame radicand negative
        "curvature": {"xAngle": "t", "vAngle": "1"},
        "output": {"path": str(tmp_path / "grid.csv"), "format": "csv"},
    }
    config = write_config(tmp_path, document)
    assert main(["curvature", "--config", config]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_killing_command(capsys):
    assert main(["killing", "--params", "1", "1", "1", "1", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "max-abs entry: 0" in out


def test_parse_check(capsys):
    assert main(["parse-check", "2*t+1"]) == 0
    out = capsys.readouterr().out
    assert "d1: 2.0" in out
    assert "d2: 0.0" in out


def test_parse_check_syntax_error(capsys):
    assert main(["parse-check", "t +"]) == 1
    assert "position 4" in capsys.readouterr().err


def test_isometry_command(tmp_path, capsys):
    document = patched(MERIDIAN_CONFIG,
                       **{"geodesic.initial.du": 0.3,
                          "geodesic.initial.dv": 0.1,
                          "geodesic.initial.dt": math.sqrt(1.08),
                          "geodesic.length": 2.0,
                          "geodesic.step": 0.0005})
    document["output"]["path"] = str(tmp_path / "out.csv")
    config = write_config(tmp_path, document)
    assert main(["isometry", "--config", config, "--generator", "boost13",
                 "--angle", "0.8"]) == 0
    out = capsys.readouterr().out
    residual = float(out.rsplit(" ", 1)[-1])
    assert residual <= 1e-6


def test_isometry_rejects_foreign_generator(tmp_path, capsys):
    config = meridian_config(tmp_path)
    assert main(["isometry", "--config", config, "--generator", "spin12",
                 "--angle", "0.5"]) == 1
    assert "generator" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["info", "--config", str(tmp_path / "absent.json")]) == 1
