"""Golden artifacts: every CLI artifact byte for byte, one config per family.

The hashes were recorded with the tree-walking evaluator, before profiles
were lowered to compiled functions and before the geodesic and invariants
paths stopped recomputing metric data.  Any change to the arithmetic or
to its order shows up here as a changed byte.  The digests depend on the
platform's libm; they were recorded on x86-64 Linux with CPython 3.11.
"""

import hashlib
import json

import pytest

from rotsurf.cli import main

CONFIGS = {
    "h14": {
        "family": "hyperbolic14",
        "variant": "A",
        "profiles": {"fa": "2 + t^2/8", "fb": "3 + t"},
        "domain": [0.1, 2.0],
        "geodesic": {
            "initial": {"u": 0.1, "v": -0.2, "t": 1.0,
                        "du": 0.1, "dv": 0.3, "dt": 0.5},
            "length": 0.5, "step": 0.01, "normalize": True,
        },
        "curvature": {"xAngle": "t/2", "vAngle": "t",
                      "grid": {"nt": 3, "ns": 3}},
    },
    "h23": {
        "family": "hyperbolic23",
        "variant": "A",
        "profiles": {"fa": "2 + t/sqrt(2) + sin(t)/4", "fb": "1 + t/sqrt(2)"},
        "domain": [0.1, 3.0],
        "geodesic": {
            "initial": {"u": 0.0, "v": 0.3, "t": 1.0,
                        "phi": 0.6, "theta": 0.4},
            "length": 0.5, "step": 0.01,
        },
        "curvature": {"xAngle": "t", "vAngle": "t/3",
                      "grid": {"nt": 3, "ns": 3}},
    },
    "e56": {
        "family": "elliptic56",
        "variant": "B",
        "profiles": {"fa": "1 + t/8", "fb": "2 + exp(-t)*cos(t)"},
        "domain": [0.1, 2.0],
        "geodesic": {
            "initial": {"u": 0.0, "v": 0.0, "t": 1.0,
                        "du": 0.2, "dv": -0.1, "dt": 0.6},
            "length": 0.5, "step": 0.01,
        },
        "curvature": {"xAngle": "t/4", "vAngle": "t",
                      "grid": {"nt": 3, "ns": 3}},
    },
    # unit speed with N = -1: clairaut_report takes the angle path on every
    # row; a constant fb leaves no positive normal-frame radicand, so there
    # is no curvature run
    "e56-unit": {
        "family": "elliptic56",
        "variant": "A",
        "profiles": {"fa": "1.5 + t", "fb": "1.2"},
        "domain": [0.1, 3.0],
        "geodesic": {
            "initial": {"u": 0.0, "v": 0.0, "t": 1.0,
                        "phi": 0.7, "theta": 0.2},
            "length": 0.5, "step": 0.01,
        },
    },
}

# (command, output file name); invariants also writes <stem>.summary.json
RUNS = (("geodesic", "geodesic.csv"),
        ("invariants", "invariants.csv"),
        ("invariants", "invariants.json"),
        ("curvature", "curvature.csv"))

GOLDEN = {
    'h14/geodesic_csv/geodesic.csv':
        '4b1347bd01af015dba19e95a4a47976b56cc62e1ef141ab6305c75b344791e9a',
    'h14/invariants_csv/invariants.csv':
        '4b1347bd01af015dba19e95a4a47976b56cc62e1ef141ab6305c75b344791e9a',
    'h14/invariants_csv/invariants.summary.json':
        'b95e3a03abdd536f47df606c7985af47b031748ae2764c1ee4dfab1d84979ed3',
    'h14/invariants_json/invariants.json':
        '4636020b259c7c953e0fc8891c14a8eec03d9fb73403df5f7a37e7534ac1f080',
    'h14/invariants_json/invariants.summary.json':
        'b95e3a03abdd536f47df606c7985af47b031748ae2764c1ee4dfab1d84979ed3',
    'h14/curvature_csv/curvature.csv':
        '0cf01c5202dc8be354b1740ed77b26486cb0ca2dd90d847db878d11b558a1c43',
    'h23/geodesic_csv/geodesic.csv':
        '44eb7693dcf868c55e1896e5832184c946c1dc92ecb80283f2286b3548831b57',
    'h23/invariants_csv/invariants.csv':
        '44eb7693dcf868c55e1896e5832184c946c1dc92ecb80283f2286b3548831b57',
    'h23/invariants_csv/invariants.summary.json':
        'db50ce9b957d97d27796adf38a97bdfc575cd1abc561134361131537daebcbcb',
    'h23/invariants_json/invariants.json':
        'c3fc023631977be0efd259ce0260cebaf1c0ceae0d9e5db1d033a33468dfd959',
    'h23/invariants_json/invariants.summary.json':
        'db50ce9b957d97d27796adf38a97bdfc575cd1abc561134361131537daebcbcb',
    'h23/curvature_csv/curvature.csv':
        '529ae2ade02176b27250d375e72892af306c46f916623a818cfe3d719effe356',
    'e56/geodesic_csv/geodesic.csv':
        'f60abd8c31f17d95921befe331eee52dbc0072723a04d63d2bb8a9d09a686daa',
    'e56/invariants_csv/invariants.csv':
        'f60abd8c31f17d95921befe331eee52dbc0072723a04d63d2bb8a9d09a686daa',
    'e56/invariants_csv/invariants.summary.json':
        '3531ccccb3a5b383fb2c867118f5609c9231a431b89dbee8f59cd58fb081c1a1',
    'e56/invariants_json/invariants.json':
        '7dd456b8b70bc93ac59a6ef2c3ae04afefe58e47e6d0f2688f05f5771bdff598',
    'e56/invariants_json/invariants.summary.json':
        '3531ccccb3a5b383fb2c867118f5609c9231a431b89dbee8f59cd58fb081c1a1',
    'e56/curvature_csv/curvature.csv':
        '74d5cd16c0e52497efc386c9254eff2caf2cfd827a98b5b1f5181e9ee0af6acb',
    'e56-unit/geodesic_csv/geodesic.csv':
        '0cbe890e1355d92dc438b55d9c0a240b053d13cb232ada534f419dfed1a62aa9',
    'e56-unit/invariants_csv/invariants.csv':
        '0cbe890e1355d92dc438b55d9c0a240b053d13cb232ada534f419dfed1a62aa9',
    'e56-unit/invariants_csv/invariants.summary.json':
        'f3555c893062d94522865ec464830bde59fd4de363624636213c27fd51430cd7',
    'e56-unit/invariants_json/invariants.json':
        '7e8cbbcc2185979fefa29653f25c58a22bd324eaa400f559d0a27be11ce55849',
    'e56-unit/invariants_json/invariants.summary.json':
        'f3555c893062d94522865ec464830bde59fd4de363624636213c27fd51430cd7',
}


def artifact_hashes(directory, name):
    """SHA-256 of every artifact the RUNS write for one config."""
    hashes = {}
    for command, filename in RUNS:
        if command == "curvature" and "curvature" not in CONFIGS[name]:
            continue
        out_dir = directory / filename.replace(".", "_")
        out_dir.mkdir(parents=True)
        output = {"path": str(out_dir / filename),
                  "format": filename.rsplit(".", 1)[1]}
        config = out_dir / "config.json"
        config.write_text(json.dumps(dict(CONFIGS[name], output=output)),
                          encoding="utf-8")
        assert main([command, "--config", str(config)]) == 0
        for path in sorted(out_dir.iterdir()):
            if path.name != "config.json":
                key = f"{name}/{out_dir.name}/{path.name}"
                hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(tmp_path, name, capsys):
    expected = {key: value for key, value in GOLDEN.items()
                if key.startswith(name + "/")}
    assert artifact_hashes(tmp_path, name) == expected
