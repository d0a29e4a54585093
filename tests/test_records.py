"""The contract every rotsurf record keeps: construction by position and
by name, the repr ``Name(field=value!r, ...)``, equality by exact class
and fields, the hash of the field tuple, pickling and frozen fields; and
an import of the CLI that loads no ``dataclasses`` machinery."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from rotsurf.ambient import Vector4
from rotsurf.config import (ConfigError, CurvatureSection, GeodesicSection,
                            OutputSection, RunConfig)
from rotsurf.curvature import CurvatureReport, DoubleRotationSurface
from rotsurf.expressions import (Binary, Call, Expr, Literal, Negate,
                                 ProfileFunction, Variable)
from rotsurf.geodesics import (AngleDecomposition, ClairautReport, Sample,
                               SlopeReport, Trajectory)
from rotsurf.surfaces import (FamilyKind, GeodesicState, MetricCoefficients,
                              SurfaceFamily, Variant)

FA = ProfileFunction.from_text("2 + t", 0.5, 3.0)
FB = ProfileFunction.from_text("1", 0.5, 3.0)
FAMILY = SurfaceFamily(FamilyKind.HYPERBOLIC14, Variant.A, FA, FB)
STATE = GeodesicState(0.1, -0.2, 1.0, 0.25, 0.15, 0.4)
ANGLES = AngleDecomposition(0.3, -0.1, True, 1e-17)
E3 = Vector4(1.0, 0.0, -0.5, 2.0)

# each record class, its fields in order and values for them
RECORDS = [
    (Vector4, ("x1", "x2", "x3", "x4"), (1.0, -2.0, 0.5, 3)),
    (GeodesicSection, ("initial", "length", "step", "normalize"),
     ({"t": 1.0}, 2.0, 0.01, False)),
    (CurvatureSection, ("angle_u_text", "angle_v_text", "nt", "ns"),
     ("t/2", "t", 3, 4)),
    (OutputSection, ("path", "format"), ("out.csv", "csv")),
    (RunConfig, ("family", "variant", "fa_text", "fb_text", "t_min", "t_max",
                 "geodesic", "curvature", "output"),
     (FamilyKind.ELLIPTIC56, Variant.B, "2 + t", "1", 0.5, 3.0, None,
      CurvatureSection("t", "1", 2, 2), OutputSection("g.csv", "json"))),
    (DoubleRotationSurface, ("family", "angle_u", "angle_v"),
     (FAMILY, FA, FB)),
    (CurvatureReport, ("K_formula", "K_oracle", "h3", "h4", "e3", "e4",
                       "H_formula", "H_oracle", "K_gap", "H_gap"),
     (0.5, 0.5, 1.0, -1.0, E3, E3, E3, E3, 0.0, 1e-17)),
    (Literal, ("value",), (2.5,)),
    (Variable, (), ()),
    (Negate, ("arg",), (Variable(),)),
    (Binary, ("op", "left", "right"), ("^", Literal(2.0), Variable())),
    (Call, ("name", "arg"), ("sin", Variable())),
    (ProfileFunction, ("value", "d1", "d2", "t_min", "t_max"),
     (FA.value, FA.d1, FA.d2, 0.5, 3.0)),
    (Sample, ("s", "state", "L", "p_u", "p_v"),
     (0.5, STATE, -1.0, 0.6, -0.2)),
    (Trajectory, ("rows", "termination", "requested_length"),
     (((0.0,) * 10,), "completed", 1.0)),
    (AngleDecomposition, ("phi", "theta", "defined", "residual"),
     (0.3, -0.1, True, 1e-17)),
    (ClairautReport, ("L", "p_u", "p_v", "invariant1", "invariant2",
                      "angles"), (-1.0, 0.6, -0.2, 0.6, -0.2, ANGLES)),
    (SlopeReport, ("state_slope", "angle_slope", "match",
                   "imaginary_radicand"), (0.5, None, None, True)),
    (MetricCoefficients, ("E", "G", "N"), (9.0, -1.0, -1.0)),
    (GeodesicState, ("u", "v", "t", "du", "dv", "dt"), STATE.as_tuple()),
    (SurfaceFamily, ("kind", "variant", "fa", "fb"),
     (FamilyKind.HYPERBOLIC14, Variant.B, FA, FB)),
]


@pytest.mark.parametrize("cls,names,values", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, names, values):
    record = cls(*values)
    assert repr(record) == (f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")")
    assert cls(**dict(zip(names, values))) == record
    assert tuple(getattr(record, name) for name in names) == values
    # equal by exact class and fields: never to a tuple or a subclass
    assert cls(*values) == record and not cls(*values) != record
    assert record != values and values != record

    class Twin(cls):
        pass

    assert Twin(*values) != record and record != Twin(*values)
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as its tuple is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    for name in names[:1]:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert tuple(getattr(record, name) for name in names) == values


def test_every_record_class_is_covered():
    import rotsurf
    from rotsurf._record import Record

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = {cls for cls in subclasses(Record)
             if cls.__module__.startswith("rotsurf.")} - {Expr}
    assert found == {cls for cls, _, _ in RECORDS}
    assert len(found) == 21
    assert rotsurf.Vector4 is Vector4


def test_record_defaults_and_argument_errors():
    assert SlopeReport(0.5, None, None).imaginary_radicand is False
    config = RunConfig(FamilyKind.HYPERBOLIC14, Variant.A, "t", "1", 0.5, 2.0)
    assert (config.geodesic, config.curvature, config.output) == (None,) * 3
    assert RunConfig(FamilyKind.HYPERBOLIC14, Variant.A, "t", "1", 0.5, 2.0,
                     output=OutputSection("o.csv", "csv")).curvature is None
    for args, kwargs in (((1.0, 2.0), {}),                  # missing
                         ((1.0, 2.0, 3.0, 4.0), {}),        # too many
                         ((1.0, 2.0, 3.0), {"E": 1.0}),     # repeated
                         ((1.0, 2.0), {"H": 3.0})):         # unknown
        with pytest.raises(TypeError):
            MetricCoefficients(*args, **kwargs)


def test_record_checks_run_at_construction():
    with pytest.raises(ValueError, match="component x3 must be finite"):
        Vector4(0.0, 1.0, math.inf, 2.0)
    with pytest.raises(ValueError, match="component x1 must be finite"):
        Vector4("1", 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="state field dv must be finite"):
        GeodesicState(0.0, 0.0, 1.0, 0.0, math.nan, 1.0)
    with pytest.raises(ValueError, match="t_min < t_max"):
        ProfileFunction(Variable(), Literal(1.0), Literal(0.0), 2.0, 1.0)
    with pytest.raises(ValueError, match="share one domain"):
        SurfaceFamily(FamilyKind.HYPERBOLIC14, Variant.A, FA,
                      ProfileFunction.from_text("1", 0.5, 2.0))
    with pytest.raises(ConfigError, match="profiles.fb"):
        RunConfig(FamilyKind.HYPERBOLIC14, Variant.A, "t", "t +", 0.5, 2.0)


def test_family_caches_stay_outside_the_fields():
    family = SurfaceFamily(FamilyKind.HYPERBOLIC23, Variant.A, FA, FB)
    before = repr(family), hash(family), pickle.dumps(family)
    bundle = family.metric_bundle(1.0)  # fills the cached properties
    assert "_bundle_fn" in vars(family) and family.spec is family.spec
    assert (repr(family), hash(family), pickle.dumps(family)) == before
    assert family == SurfaceFamily(FamilyKind.HYPERBOLIC23, Variant.A, FA, FB)
    assert pickle.loads(before[2]).metric_bundle(1.0) == bundle


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # a fresh interpreter without ``site``, whose .pth files belong to the
    # environment and not to rotsurf
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, rotsurf.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
