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
All twelve were re-recorded once more, with ``AUDIT_GOLDEN``, when one
normal frame and one set of closed forms derived from the layout
replaced the three per-family copies of the paper's printed forms: the
``t``, ``s`` and ``K_oracle`` columns stayed byte-identical, while
``K_formula``, ``K_gap``, ``h4``, ``H_gap`` and, on h14, h14-B and
h23-B, ``h3`` moved to agree with the oracles to rounding (the largest
K_gap is 2.6e-16 x max(1, |K|), the largest H_gap 1.1e-14).
``AUDIT_GOLDEN`` is the standard output of ``scripts/curvature_audit.py
--verbose``, which sweeps all six (family, variant) pairs.
``ISOMETRY_GOLDEN`` is the standard output of ``rotsurf isometry --angle
0.7`` for both of each config's own rotations, recorded when the command
began to print the rotation's Noether charge, its drift, its gap to half
the momentum and the rotated immersion's defect.
Any change to the arithmetic or to its order shows up here as a changed
byte.  The digests depend on the platform's libm; they were recorded on
x86-64 Linux with CPython 3.11.
"""

import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotsurf
from rotsurf.cli import main
from rotsurf.config import parse_config
from rotsurf.expressions import _Lowering

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
    # row; it pins the geodesic and invariants artifacts only (its
    # constant fb does not rule out a curvature run: Q = N = -1)
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
        '590b98e458e1114d00495d67da51e765251e2d41d353fc8997a3bac39ece180d',
    'h14/curvature_json/curvature.json':
        '58882aff7d4a6d20106e61a968a000b843401078b04cbee898d0bf7db6126201',
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
        'c86c42fe3c7b0e1a8faa19bddeb829da0cffe4c1e767736e28b9261bedd1a7e1',
    'h23/curvature_json/curvature.json':
        '7f1cc47f693368f83d8b644cee8ff23efac96fa12541f22dcdb537c955b02fa8',
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
        '8a8ce96b6af78cebd0e048b9ec3788e286e3acdcf6c8517ff0e4eea9c9f3dd8d',
    'e56/curvature_json/curvature.json':
        '8788642737ddd78cb795af59197d1ca0a0cf505db2941a06e1a9d32edf4f4718',
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
        '6efdb427cc3117c1f76a3f5ac732f11be4d3c5b76dfebf7216140e0c22ad9dd0',
    'h14-B/curvature_json/curvature.json':
        '5f20d85e937941bba1d5b524df3e40f18153f7c09cf2ae54c5a70cd2488b6a28',
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
        '6792017b074276c977600fc5826990e2f4bfce4615dfd91f3041bc3b8b6a4286',
    'h23-B/curvature_json/curvature.json':
        '2762c3faba32f8bcfb9161adc5428a055c108856c7ddf8be655c189fb6b2fdd4',
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
        'fe071afabaf286ce4c68a31d01822ea210d2121fccff9721a125ae5630196a59',
    'e56-A/curvature_json/curvature.json':
        '20e9e417ff06e9aaa506c718ffaa0e9fc0678a9ea1a3230d2a07f850b40a0c94',
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


@pytest.mark.parametrize("name", ["h14", "h23", "e56"])
def test_commands_compile_only_per_step_and_per_row_code(tmp_path, name,
                                                         capsys, monkeypatch):
    """Generated code is compiled only where it runs per step or per row,
    from at most one lowering of the family's trees: ``geodesic`` and
    ``invariants`` compile the RK4 run and the (fa, fb) pair, which
    ``invariant_rows`` calls on every row; ``isometry`` the run alone, its
    charge check walks the trees; ``info`` and ``curvature`` walk the
    trees and lower nothing."""
    compiled, real_compile = [], builtins.compile
    lowerings, init = [], _Lowering.__init__

    def counting(source, filename, *args, **kwargs):
        if filename in ("<lowered expression>", "<generated RK4 run>"):
            compiled.append(filename)
        return real_compile(source, filename, *args, **kwargs)

    def constructing(self, *args):
        lowerings.append(self)
        init(self, *args)

    monkeypatch.setattr(builtins, "compile", counting)
    monkeypatch.setattr(_Lowering, "__init__", constructing)
    output = {"path": str(tmp_path / "out.csv"), "format": "csv"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIGS[name], output=output)),
                      encoding="utf-8")
    generator = parse_config(CONFIGS[name]).build_family().spec.rot_u.label
    for command, count, lowered in (
            (["curvature"], 0, 0), (["invariants"], 2, 1), (["info"], 0, 0),
            (["geodesic"], 2, 1), (["isometry", "--generator", generator], 1, 1)):
        compiled.clear()
        lowerings.clear()
        assert main([*command, "--config", str(config)]) == 0
        assert len(compiled) == count, (command, compiled)
        assert len(lowerings) == lowered, command
    capsys.readouterr()


# "<config>/<generator>" -> SHA-256 of ``rotsurf isometry --generator
# <generator> --angle 0.7``'s standard output on the config
ISOMETRY_GOLDEN = {
    "e56/spin12":
        "a95fadd36c007af53345cd1e11ef900d6777ef65fdba09b57d92491c77eb6ec8",
    "e56/spin34":
        "6214d084929792e98d785df395fc104e176388a02d7eb9c32760906235d5a6b2",
    "e56-A/spin12":
        "43df58f70d89ff8104f0b9027c695d6a06fb8c3109c59328be87c8f84006ba0a",
    "e56-A/spin34":
        "bda85e91b732596cdf3ecb15a95c267d46da11a782ac4ef531cdf2c70a5191fe",
    "e56-unit/spin12":
        "a088c603bf41081671d3ebc97c79b3323c61b7d03c3d7b8e1b6d95744b738196",
    "e56-unit/spin34":
        "4e30a6fe72fe381f877a1f2598d4db7bab9d968d14042a26fea3e631a5b00e78",
    "h14/boost13":
        "cef39a5c282cd89ddea9162923e2ba4bfddfc4bbc51e7a3c96522f50994e4dea",
    "h14/boost24":
        "fb075d40ff5b346fb34086b4223a5572aab8c840eea6200cd2bc8ba29258b42d",
    "h14-B/boost13":
        "087963ef9a77ac50ce272a31514b67c74b523deaa16a5f733424bb9bd874cf04",
    "h14-B/boost24":
        "f9084494b9f033fcffa1fab5b068d6e162c05865fced496a1094d75b8de2cef9",
    "h23/boost14":
        "06cce32647cdfe49881f9adc98d142063d873bde7acd9b9ee8cf35ee1b8ea9f6",
    "h23/boost23":
        "00b252d615efd1e7786da7876869c460b9378a820c893dcf70a0e03de27630cc",
    "h23-B/boost14":
        "eb3ed68d6d5a5bf7ef7fd302220a27b246bb9ac41d55f26b8dd46aba86ca4550",
    "h23-B/boost23":
        "fa85c1559035abc9a938fb11efce39a01c2973b253784922ab05aaf5f9d064b4",
}


@pytest.mark.parametrize("key", sorted(ISOMETRY_GOLDEN))
def test_isometry_stdout_matches_golden_hash(tmp_path, capsys, key):
    name, generator = key.split("/")
    output = {"path": str(tmp_path / "out.csv")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIGS[name], output=output)),
                      encoding="utf-8")
    assert main(["isometry", "--config", str(config), "--generator",
                 generator, "--angle", "0.7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        ISOMETRY_GOLDEN[key]
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(tmp_path, name, capsys):
    expected = {key: value for key, value in GOLDEN.items()
                if key.startswith(name + "/")}
    assert artifact_hashes(tmp_path, name) == expected


# SHA-256 of ``scripts/curvature_audit.py --verbose``'s standard output
AUDIT_GOLDEN = \
    '23d788084c50ab39c74965ca230f1e9aa2a038b022b5a639452a209b29fee03a'


def test_curvature_audit_stdout_matches_golden_hash():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(rotsurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "curvature_audit.py"),
         "--verbose"], env=env, capture_output=True, check=True)
    assert hashlib.sha256(result.stdout).hexdigest() == AUDIT_GOLDEN
