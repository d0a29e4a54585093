"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not deferred.  Criteria cover conservation,
integrator order, the Clairaut identities, slope laws, meridian/parallel
behaviour, the isometry suite, Killing residuals, curvature oracles, the
expression parser, and artifact determinism.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from rotsurf import (DoubleRotationSurface, GeodesicState, KillingParams,
                     ProfileFunction, Vector4, apply_matrix, clairaut_report,
                     curvature_report, differentiate, evaluate, extract_angles,
                     flow_residual, gaussian_curvature_fd, generator_matrix,
                     inner, integrate, killing_matrix, lie_residual,
                     make_family, normal_frame, parse, rotation_matrix,
                     shift_samples, slope, state_from_angles, to_text)
from rotsurf.cli import main
from rotsurf.isometries import Rotation

ROUNDOFF_FLOOR = 1e-13


def _check(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}  {detail}")
    assert ok, f"{name}: {detail}"


def _family_14():
    return make_family("hyperbolic14", "A", "t", "1", 0.02, 40.0)


def _family_23():
    return make_family("hyperbolic23", "A", "2 + t/sqrt(2)", "1 + t/sqrt(2)",
                       -1.4, 60.0)


def _family_56():
    return make_family("elliptic56", "A", "t+2", "1", -1.9, 40.0)


# unit-timelike starting states (L = -1); the boost-13/24 state is pinned,
# the other two are representative timelike states with defined angles
STATE_14 = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
STATE_23 = GeodesicState(0, 0, 0.0, 0.5, 0.5, 1.5)
STATE_56 = state_from_angles(_family_56(), 0.0, 0.0, 0.0, 1.0, 0.3)

CONFIGS = [
    ("hyperbolic14", _family_14, STATE_14),
    ("hyperbolic23", _family_23, STATE_23),
    ("elliptic56", _family_56, STATE_56),
]


def test_01_conservation():
    """Momenta and Lagrangian drift <= 1e-8 over length 5 at step 1e-3."""
    started = time.perf_counter()
    worst = {}
    for name, make, state in CONFIGS:
        fam = make()
        trajectory = integrate(fam, state, 5.0, 1e-3)
        assert trajectory.termination == "completed"
        drifts = trajectory.drifts()
        worst[name] = max(drifts.values())
        for key, value in drifts.items():
            _check(f"criterion-1 conservation {name} {key}",
                   value <= 1e-8, f"drift={value:.3e} tol=1e-8")
    elapsed = time.perf_counter() - started
    _check("criterion-1 runtime", elapsed <= 5.0, f"{elapsed:.2f} s (<= 5 s)")


def test_02_integrator_order():
    """Halving the step from 1e-3 to 5e-4 divides each drift by >= 12.

    The states are the criterion-1 states with velocities scaled by 5 so
    truncation error sits well above the roundoff floor; drifts already at
    the floor for both steps are conserved exactly and counted as passing.
    """
    scale = 5.0
    for name, make, state in CONFIGS:
        fam = make()
        fast = GeodesicState(state.u, state.v, state.t, scale * state.du,
                             scale * state.dv, scale * state.dt)
        coarse = integrate(fam, fast, 5.0, 1e-3)
        fine = integrate(fam, fast, 5.0, 5e-4)
        assert coarse.termination == "completed"
        assert fine.termination == "completed"
        coarse_drift = coarse.drifts()
        fine_drift = fine.drifts()
        for key in coarse_drift:
            big, small = coarse_drift[key], fine_drift[key]
            if big <= ROUNDOFF_FLOOR and small <= ROUNDOFF_FLOOR:
                _check(f"criterion-2 order {name} {key}", True,
                       f"conserved to roundoff ({big:.1e}, {small:.1e})")
                continue
            ratio = big / small if small > 0 else math.inf
            _check(f"criterion-2 order {name} {key}", ratio >= 12.0,
                   f"ratio={ratio:.1f} (>= 12, order "
                   f"{math.log2(ratio) if ratio > 0 else 0:.2f})")


def test_03_clairaut_identity():
    """Angle-form invariants equal the momenta (family sign) to 1e-12."""
    # boost-13/24 needs fb*dv = +-1 for the decomposition to exist along a
    # unit-timelike flow; dv is conserved here because fb is constant
    runs = [
        ("hyperbolic14", _family_14(), GeodesicState(0, 0, 1.0, 0.5, 1.0, 0.5)),
        ("hyperbolic23", _family_23(), STATE_23),
        ("elliptic56", _family_56(), STATE_56),
    ]
    for name, fam, state in runs:
        assert fam.lagrangian(state) == pytest.approx(-1.0, abs=1e-12)
        trajectory = integrate(fam, state, 5.0, 1e-3)
        assert trajectory.termination == "completed"
        signs = (fam.layout.mom_sign_u, fam.layout.mom_sign_v)
        defined = 0
        worst = 0.0
        for sample in trajectory.samples:
            report = clairaut_report(fam, sample.state, tol=1e-9)
            if not report.angles.defined:
                continue
            defined += 1
            worst = max(worst,
                        abs(report.invariant1 - signs[0] * report.p_u),
                        abs(report.invariant2 - signs[1] * report.p_v))
        _check(f"criterion-3 clairaut identity {name}",
               defined > 0 and worst <= 1e-12,
               f"defined on {defined}/{len(trajectory.samples)} samples, "
               f"worst |inv - sign*p|={worst:.3e} tol=1e-12")


def test_04_slope_equations():
    """Closed-form slope laws match dt/du on 50 random states per family."""
    rng = random.Random(48151623)

    fam23 = _family_23()
    worst = 0.0
    produced = 0
    while produced < 50:
        phi = rng.uniform(0.2, 1.5)
        theta = rng.uniform(-1.2, 1.2)
        t = rng.uniform(-0.5, 20.0)
        state = state_from_angles(fam23, 0, 0, t, phi, theta)
        if state.du == 0.0:
            continue
        produced += 1
        report = slope(fam23, state)
        assert report.angle_slope is not None
        worst = max(worst, abs(report.angle_slope - report.state_slope))
    _check("criterion-4 slope boost-14/23", worst <= 1e-9,
           f"worst |angle - state|={worst:.3e} tol=1e-9 (50 states)")

    fam14 = _family_14()
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(0.15, 1.4)
        theta = rng.choice([-1, 1]) * rng.uniform(0.08, 1.2)
        t = rng.uniform(0.5, 20.0)
        state = state_from_angles(fam14, 0, 0, t, phi, theta)
        angles = extract_angles(fam14, state)
        assert angles.defined and angles.residual <= 1e-10
        report = slope(fam14, state)
        assert report.angle_slope is not None
        worst = max(worst, abs(report.match))
    _check("criterion-4 slope boost-13/24", worst <= 1e-9,
           f"worst magnitude mismatch={worst:.3e} tol=1e-9 (50 states)")

    fam56 = _family_56()
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(0.15, 1.4)
        theta = rng.uniform(-1.2, 1.2)
        t = rng.uniform(-1.0, 20.0)
        state = state_from_angles(fam56, 0, 0, t, phi, theta)
        assert fam56.lagrangian(state) == pytest.approx(-1.0, abs=1e-12)
        report = slope(fam56, state)
        assert report.angle_slope is not None and report.imaginary_radicand
        worst = max(worst, abs(report.match))
    _check("criterion-4 slope spin (magnitude)", worst <= 1e-9,
           f"worst magnitude mismatch={worst:.3e} tol=1e-9 (50 states)")


def test_05_meridians_and_parallels():
    """Meridians keep angles fixed; parallels persist iff G'(t0) = 0."""
    for name, make, _ in CONFIGS:
        fam = make()
        t0 = {"hyperbolic14": 1.0, "hyperbolic23": 0.0,
              "elliptic56": 0.0}[name]
        trajectory = integrate(fam, GeodesicState(0.3, -0.4, t0, 0, 0, 1.0),
                               3.0, 1e-3)
        assert trajectory.termination == "completed"
        drift = max(max(abs(s.state.u - 0.3), abs(s.state.v + 0.4))
                    for s in trajectory.samples)
        _check(f"criterion-5 meridian {name}", drift <= 1e-12,
               f"angle drift={drift:.3e} tol=1e-12")

    fam = _family_14()   # fb = 1 constant: G' = 0
    trajectory = integrate(fam, GeodesicState(0, 0, 1.0, 0, 0.8, 0), 3.0, 1e-3)
    drift = max(max(abs(s.state.t - 1.0), abs(s.state.dt), abs(s.state.u),
                    abs(s.state.du)) for s in trajectory.samples)
    _check("criterion-5 parallel with constant profile", drift <= 1e-10,
           f"drift={drift:.3e} tol=1e-10")

    varying = make_family("hyperbolic14", "A", "t", "1 + t/2", 0.1, 10.0)
    ds = 1e-3
    forced = [GeodesicState(0.0, 0.8 * i * ds, 1.0, 0.0, 0.8, 0.0)
              for i in range(11)]
    from rotsurf import Sample
    samples = [Sample(i * ds, state, 0.0, 0.0, 0.0)
               for i, state in enumerate(forced)]
    residual = flow_residual(varying, samples)
    _check("criterion-5 parallel with varying profile is not geodesic",
           residual > 1e-3, f"residual={residual:.3e} (> 1e-3)")


def test_06_isometry_suite():
    """Group law, metric preservation, geodesics map to geodesics."""
    rng = random.Random(20260810)
    for rotation in Rotation:
        worst_group = 0.0
        for _ in range(40):
            s = rng.uniform(-3, 3)
            u = rng.uniform(-3, 3)
            product = (np.array(rotation_matrix(rotation, s))
                       @ np.array(rotation_matrix(rotation, u)))
            direct = np.array(rotation_matrix(rotation, s + u))
            worst_group = max(worst_group,
                              float(np.max(np.abs(product - direct))))
        _check(f"criterion-6 group law {rotation.label}",
               worst_group <= 1e-12, f"worst={worst_group:.3e} tol=1e-12")

        worst_metric = 0.0
        for _ in range(40):
            s = rng.uniform(-1.5, 1.5)
            matrix = rotation_matrix(rotation, s)
            v = Vector4(*[rng.uniform(-10, 10) for _ in range(4)])
            w = Vector4(*[rng.uniform(-10, 10) for _ in range(4)])
            defect = abs(inner(apply_matrix(matrix, v), apply_matrix(matrix, w))
                         - inner(v, w))
            worst_metric = max(worst_metric, defect)
        _check(f"criterion-6 metric preservation {rotation.label}",
               worst_metric <= 1e-12, f"worst={worst_metric:.3e} tol=1e-12")

    # every generator is the u- or v-rotation of one family: shifting the
    # matching coordinate of a sampled geodesic must leave the geodesic
    # equations satisfied
    for name, make, state in CONFIGS:
        fam = make()
        trajectory = integrate(fam, state, 2.0, 5e-4)
        assert trajectory.termination == "completed"
        for which, shift in (("u", {"du": 0.8}), ("v", {"dv": -0.6})):
            moved = shift_samples(trajectory.samples, **shift)
            residual = flow_residual(fam, moved)
            label = fam.generator(which).label
            _check(f"criterion-6 geodesic mapping {name} {label}",
                   residual <= 1e-6, f"residual={residual:.3e} tol=1e-6")


def test_07_killing_residual():
    """Six-parameter fields are Killing; a perturbation is detected exactly."""
    params = KillingParams(1, 1, 1, 1, 1, 1)
    residual = lie_residual(killing_matrix(params))
    worst = float(np.max(np.abs(residual)))
    _check("criterion-7 killing residual", worst <= 1e-14,
           f"max-abs={worst:.3e} tol=1e-14")

    perturbed = lie_residual(np.array(killing_matrix(params)) + np.eye(4))
    _check("criterion-7 perturbed field detected",
           perturbed[0][0] == -2.0 and perturbed[1][1] == -2.0
           and perturbed[2][2] == 2.0 and perturbed[3][3] == 2.0,
           f"diagonal={np.diag(perturbed)}")

    for rotation in Rotation:
        generator_residual = float(
            np.max(np.abs(lie_residual(generator_matrix(rotation)))))
        _check(f"criterion-7 generator {rotation.label} killing",
               generator_residual == 0.0, f"max-abs={generator_residual}")


def _profile(text):
    return ProfileFunction.from_text(text, -10.0, 10.0)


def test_08_curvature():
    """Flat cases, oracle order, frame orthonormality; closed forms equal
    to the exact oracles."""
    flats = [
        ("hyperbolic14",
         DoubleRotationSurface(
             make_family("hyperbolic14", "A", "2+t", "3+2*t", 0.1, 2.0),
             _profile("1"), _profile("t"))),
        ("hyperbolic23",
         DoubleRotationSurface(
             make_family("hyperbolic23", "A", "2+t", "3+2*t", 0.1, 2.0),
             _profile("t"), _profile("1"))),
        ("elliptic56",
         DoubleRotationSurface(
             make_family("elliptic56", "A", "1", "2+t", 0.1, 2.0),
             _profile("1"), _profile("t"))),
    ]
    for name, srf in flats:
        report = curvature_report(srf, 0.7, 1.1)
        _check(f"criterion-8 flat {name}",
               report.K_formula == 0.0 and abs(report.K_oracle) <= 1e-6,
               f"K_formula={report.K_formula} K_oracle={report.K_oracle:.2e}")
        _check_gaps(f"criterion-8 flat {name} gaps", report)
        if name == "elliptic56":  # a plane region: no mean curvature
            _check("criterion-8 flat elliptic56 h3 = h4 = 0",
                   report.h3 == 0.0 and report.h4 == 0.0,
                   f"h3={report.h3} h4={report.h4}")

    curved = DoubleRotationSurface(
        make_family("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0),
        _profile("t/2"), _profile("t"))
    values = [gaussian_curvature_fd(curved.induced_metric, 0.6, 1.0, h)
              for h in (4e-3, 2e-3, 1e-3)]
    order = math.log2(abs(values[0] - values[1]) / abs(values[1] - values[2]))
    _check("criterion-8 oracle order", order >= 1.8,
           f"observed order={order:.2f} (>= 1.8)")

    frames = [
        ("hyperbolic14", curved, (1.0, -1.0)),
        ("hyperbolic23",
         DoubleRotationSurface(
             make_family("hyperbolic23", "A", "2 + t/2", "1 + t/4", 0.1, 2.0),
             _profile("t"), _profile("t/3")), (1.0, -1.0)),
        ("elliptic56",
         DoubleRotationSurface(
             make_family("elliptic56", "A", "1 + t/8", "2 + t", 0.1, 2.0),
             _profile("t/4"), _profile("t")), (-1.0, -1.0)),
    ]
    rng = random.Random(8675309)
    for name, srf, signature in frames:
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0.15, 1.95)
            s = rng.uniform(0.15, 1.95)
            e3, e4 = normal_frame(srf, t, s)
            st_t, st_s = srf.tangents(t, s)
            worst = max(
                worst,
                abs(inner(e3, e3) - signature[0]),
                abs(inner(e4, e4) - signature[1]),
                abs(inner(e3, e4)),
                abs(inner(e3, st_t)), abs(inner(e3, st_s)),
                abs(inner(e4, st_t)), abs(inner(e4, st_s)))
        _check(f"criterion-8 frame orthonormality {name}", worst <= 1e-10,
               f"worst defect={worst:.3e} tol=1e-10 (100 points)")

    _check_gaps("criterion-8 curved hyperbolic14 gaps",
                curvature_report(curved, 0.6, 1.0))


def _check_gaps(name: str, report):
    """K_gap and H_gap within 1e-9 of max(1, |K_oracle|) and
    max(1, max |H_oracle|)."""
    k_tol = 1e-9 * max(1.0, abs(report.K_oracle))
    h_tol = 1e-9 * max(1.0, max(abs(x) for x in report.H_oracle.components()))
    _check(name, report.K_gap <= k_tol and report.H_gap <= h_tol,
           f"K_gap={report.K_gap:.3e} (tol {k_tol:.1e}) "
           f"H_gap={report.H_gap:.3e} (tol {h_tol:.1e})")


def test_09_parser():
    """Symbolic derivatives match central differences; printing round-trips."""
    profiles = ["t", "1", "2 + t/sqrt(2)", "1 + t/sqrt(2)", "t+2",
                "2 + t^2/8", "3 + t", "cosh(t)", "sinh(t)", "1 + t/2"]
    worst = 0.0
    for text in profiles:
        profile = ProfileFunction.from_text(text, -2.0, 2.0)
        for k in range(100):
            t = -1.98 + 3.96 * k / 99.0
            h = 1e-5 * (1.0 + abs(t))
            d1 = profile.derivative(t)
            numeric = (profile.evaluate(t + h, check=False)
                       - profile.evaluate(t - h, check=False)) / (2 * h)
            worst = max(worst, abs(d1 - numeric) / (1.0 + abs(d1)))
    _check("criterion-9 derivative vs central difference", worst <= 1e-7,
           f"worst relative gap={worst:.3e} tol=1e-7 (100 samples/profile)")

    worst = 0.0
    for text in profiles:
        expr = parse(text)
        printed = parse(to_text(expr))
        twice = parse(to_text(differentiate(expr)))
        for k in range(20):
            t = -1.9 + 0.2 * k
            worst = max(worst, abs(evaluate(printed, t) - evaluate(expr, t)))
            reference = evaluate(differentiate(expr), t)
            worst = max(worst, abs(evaluate(twice, t) - reference))
    _check("criterion-9 print/parse round trip", worst <= 1e-15,
           f"worst gap={worst:.3e} tol=1e-15 (20 points/profile)")


def test_10_determinism(tmp_path):
    """Identical config + command produce byte-identical artifacts."""
    config_doc = {
        "family": "hyperbolic14",
        "variant": "A",
        "profiles": {"fa": "t", "fb": "1"},
        "domain": [0.02, 40],
        "geodesic": {
            "initial": {"u": 0, "v": 0, "t": 1, "du": 0.3, "dv": 0.1,
                        "dt": math.sqrt(1.08)},
            "length": 2.0, "step": 0.001, "normalize": False},
        "curvature": {"xAngle": "t/2", "vAngle": "t",
                      "grid": {"nt": 2, "ns": 2}},
        "output": {"path": str(tmp_path / "traj.csv"), "format": "csv"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc), encoding="utf-8")

    first = {}
    assert main(["invariants", "--config", str(config_path)]) == 0
    first["traj.csv"] = (tmp_path / "traj.csv").read_bytes()
    first["traj.summary.json"] = (tmp_path / "traj.summary.json").read_bytes()

    curvature_doc = dict(config_doc)
    curvature_doc["profiles"] = {"fa": "2 + t^2/8", "fb": "3 + t"}
    curvature_doc["domain"] = [0.1, 2.0]
    del curvature_doc["geodesic"]
    curvature_doc["output"] = {"path": str(tmp_path / "grid.csv"),
                               "format": "csv"}
    curvature_path = tmp_path / "curvature.json"
    curvature_path.write_text(json.dumps(curvature_doc), encoding="utf-8")
    assert main(["curvature", "--config", str(curvature_path)]) == 0
    first["grid.csv"] = (tmp_path / "grid.csv").read_bytes()

    assert main(["invariants", "--config", str(config_path)]) == 0
    assert main(["curvature", "--config", str(curvature_path)]) == 0

    identical = (
        first["traj.csv"] == (tmp_path / "traj.csv").read_bytes()
        and first["traj.summary.json"] == (tmp_path / "traj.summary.json").read_bytes()
        and first["grid.csv"] == (tmp_path / "grid.csv").read_bytes())
    _check("criterion-10 byte-identical artifacts", identical,
           "trajectory CSV, summary JSON, curvature grid")

    from conftest import session_elapsed
    elapsed = session_elapsed()
    _check("criterion-10 wall clock", elapsed <= 60.0,
           f"suite elapsed so far {elapsed:.1f} s (<= 60 s)")
