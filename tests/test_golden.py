"""Golden artifacts: every CLI artifact byte for byte, for every family
and variant.

The hashes of h14, h23, e56 and e56-unit were recorded with the
tree-walking evaluator, before profiles were lowered to compiled
functions and before the geodesic and invariants paths stopped
recomputing metric data.  Those of h14-B, h23-B and e56-A were recorded
before the per-family specs replaced the hand-entered layout table and
the per-family branches of the geodesic and curvature code, so that the
move of every formula is checked on all six (family, variant) pairs.
The curvature JSON hashes were recorded before the 2-metric of the
curvature oracles became a plain tuple and before ``rotsurf curvature``
built its rows in one table, so that the JSON bytes, whose ``K_oracle``
type changes from a numpy float to a float, are checked too.
All twelve curvature hashes (CSV and JSON) were then re-recorded when
``K_oracle`` and ``H_oracle`` became exact, Brioschi's and the Gauss
formula on the diagonal induced metric in place of finite differences:
only the ``K_oracle``, ``K_gap`` and ``H_gap`` columns changed
(``K_oracle`` by at most 5.7e-7 x max(1, |K|)), and every geodesic and
invariants hash stayed as it was.
Any change to the arithmetic or to its order shows up here as a changed
byte.  The digests depend on the platform's libm; they were recorded on
x86-64 Linux with CPython 3.11.
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
    # the B variants and the elliptic A variant, whose digests were recorded
    # with the code from before the family specs replaced the hand-entered
    # layout table: h14-B starts from angles (the boost-13/24 inversion at
    # row 0), h23-B has N = 1, so every row takes the angle path
    "h14-B": {
        "family": "hyperbolic14",
        "variant": "B",
        "profiles": {"fa": "1 + t/4", "fb": "2 + t^2/4"},
        "domain": [0.5, 2.0],
        "geodesic": {
            "initial": {"u": 0.2, "v": 0.1, "t": 1.0,
                        "phi": 0.8, "theta": 0.3},
            "length": 0.5, "step": 0.01,
        },
        "curvature": {"xAngle": "t/3", "vAngle": "t",
                      "grid": {"nt": 3, "ns": 3}},
    },
    "h23-B": {
        "family": "hyperbolic23",
        "variant": "B",
        "profiles": {"fa": "2 + t/sqrt(2)", "fb": "1 + t/sqrt(2)"},
        "domain": [0.1, 3.0],
        "geodesic": {
            "initial": {"u": 0.0, "v": -0.1, "t": 1.2,
                        "phi": 0.5, "theta": 0.3},
            "length": 0.5, "step": 0.01,
        },
        "curvature": {"xAngle": "t/2", "vAngle": "sin(t)",
                      "grid": {"nt": 3, "ns": 3}},
    },
    "e56-A": {
        "family": "elliptic56",
        "variant": "A",
        "profiles": {"fa": "1 + t/8", "fb": "2 + t^2/2"},
        "domain": [0.3, 2.0],
        "geodesic": {
            "initial": {"u": 0.0, "v": 0.0, "t": 1.0,
                        "du": 0.2, "dv": -0.1, "dt": 0.6},
            "length": 0.5, "step": 0.01,
        },
        "curvature": {"xAngle": "t/4", "vAngle": "t/2",
                      "grid": {"nt": 3, "ns": 3}},
    },
}

# (command, output file name); invariants also writes <stem>.summary.json
RUNS = (("geodesic", "geodesic.csv"),
        ("invariants", "invariants.csv"),
        ("invariants", "invariants.json"),
        ("curvature", "curvature.csv"),
        ("curvature", "curvature.json"))

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
        'dbcc1a056dce6931a7b1f3e58f81fc0ead58f78ea435c9b55f08cbf44f0b0653',
    'h14/curvature_json/curvature.json':
        '7c5b620ef65ada0a00c238581a2a2f869db198d2487baa731e58cd12a3f0e586',
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
        '8203515f87cac494b4f43d606ff92e46c53d4dce1d303d575a6774b467dded2c',
    'h23/curvature_json/curvature.json':
        '3b8fbb7c9fca177eaeef8b3b1f5006b5b7fcf02230d89b21c43aedea33ed31c4',
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
        'c9fc8b14f2e191613a99ec3df39997a58f764e375834c425cdd8516f83d400d6',
    'e56/curvature_json/curvature.json':
        'fe2284b05851468a4b84153fd028f0d9e7110fec23bac475a63f4cdea8568123',
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
    'h14-B/geodesic_csv/geodesic.csv':
        'e42cbd84521a8564a9ffcb25cb96967ffc73d71e12c04b954ccf38dd17d3fca2',
    'h14-B/invariants_csv/invariants.csv':
        'e42cbd84521a8564a9ffcb25cb96967ffc73d71e12c04b954ccf38dd17d3fca2',
    'h14-B/invariants_csv/invariants.summary.json':
        '6ef356dc5f9c1cf1c6047f5d88814f6cb64dc171b2068bfc261d712f2148a331',
    'h14-B/invariants_json/invariants.json':
        '722cfdcb846010ad9fad7932265afb8db3da5186b525c6b50924e6385101da90',
    'h14-B/invariants_json/invariants.summary.json':
        '6ef356dc5f9c1cf1c6047f5d88814f6cb64dc171b2068bfc261d712f2148a331',
    'h14-B/curvature_csv/curvature.csv':
        '773eb7e254aab470ee4924f55fbf3c9d861fa37ce36c9cf79f9ac3cd98656ca1',
    'h14-B/curvature_json/curvature.json':
        '538acba9d0e515c16a33a9ca7eb9222c423595e782483c9f09193a65fc97b9ff',
    'h23-B/geodesic_csv/geodesic.csv':
        'dfc89e46fb22bc592b7fcf39779c37e083fcbfe31300107b8f228ff46fe6dd84',
    'h23-B/invariants_csv/invariants.csv':
        'dfc89e46fb22bc592b7fcf39779c37e083fcbfe31300107b8f228ff46fe6dd84',
    'h23-B/invariants_csv/invariants.summary.json':
        '2aaf9ab36ecd261ba54ea70a7c2171ad4f18db798cb1b43c1299f1ba3799bbd8',
    'h23-B/invariants_json/invariants.json':
        'daed331743d469d29fb2f27ada54944f4ce0465a85aa96cf0e99c3996f6dac5a',
    'h23-B/invariants_json/invariants.summary.json':
        '2aaf9ab36ecd261ba54ea70a7c2171ad4f18db798cb1b43c1299f1ba3799bbd8',
    'h23-B/curvature_csv/curvature.csv':
        '3189003f3d239371d529927a039fc828cc3dca739771ea57ea322101c9abdaf2',
    'h23-B/curvature_json/curvature.json':
        '27506652f9abc1b1addc5465e685c6343608e782385199ecae2d1800dc60a64f',
    'e56-A/geodesic_csv/geodesic.csv':
        'd3d2d7379e3dfa4eacd075e679f82d524a13b63b3f24180142eaacea858d3746',
    'e56-A/invariants_csv/invariants.csv':
        'd3d2d7379e3dfa4eacd075e679f82d524a13b63b3f24180142eaacea858d3746',
    'e56-A/invariants_csv/invariants.summary.json':
        'b94ccb5b2f5638dbae35a3bf3a21fc60d58166dae2b9fa487299aaabeaf52267',
    'e56-A/invariants_json/invariants.json':
        'db716b65a7131255bf77471757727463cbda9cd95f55a29a782731552a9a1673',
    'e56-A/invariants_json/invariants.summary.json':
        'b94ccb5b2f5638dbae35a3bf3a21fc60d58166dae2b9fa487299aaabeaf52267',
    'e56-A/curvature_csv/curvature.csv':
        '2b1d2b23614f25f97d62a5e69c98377ad8ef7714806fd5735b6bbc4e5d5ef010',
    'e56-A/curvature_json/curvature.json':
        '9a029c6ae2d102b841cb21ad5b5c40729b948f595999ff923434d639b922fdb6',
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
