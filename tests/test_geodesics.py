"""Geodesic integration, conserved momenta, angle decompositions, slopes."""

import builtins
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_expressions import _lowering_func, _lowering_leaf, _tree
from test_golden import CONFIGS

from rotsurf import (DegenerateMetricError, DomainError, FamilyKind,
                     GeodesicState, MeridianUndefinedError, ProfileFunction,
                     Sample, SurfaceFamily, Variant, clairaut_report,
                     extract_angles, integrate, make_family, momenta, slope,
                     state_from_angles)
from rotsurf.geodesics import Trajectory, invariant_rows
from rotsurf.surfaces import MetricOverflowError

H14 = make_family("hyperbolic14", "A", "t", "1", 0.02, 40.0)
H23 = make_family("hyperbolic23", "A", "2 + t/sqrt(2)", "1 + t/sqrt(2)", -1.4, 60.0)
E56 = make_family("elliptic56", "A", "t+2", "1", -1.9, 40.0)
# slope example needs profiles with N = -1 and fa = 2 at the base point
H23_CONST = make_family("hyperbolic23", "A", "2", "t", -5.0, 5.0)

ALL_KINDS = [H14, H23, E56]
B_VARIANTS = [
    make_family("hyperbolic14", "B", "t", "2", 0.1, 5.0),
    make_family("hyperbolic23", "B", "2 + t/2", "1 + t", -0.8, 4.0),
    make_family("elliptic56", "B", "1", "t+3", -2.0, 5.0),
]


def test_rhs_meridian_is_inertial():
    rhs = _reference_rhs(H14, (0, 0, 1.0, 0, 0, 1.0))
    assert rhs == (0.0, 0.0, 1.0, -0.0, -0.0, 0.0)


def test_rhs_derived_example():
    # E = t^2, E' = 2t, G = -1, N = -1 at t = 1:
    # u'' = -(2/1)(0.5)(0.5), t'' = (2*0.25)/(2*(-1))
    rhs = _reference_rhs(H14, (0, 0, 1.0, 0.5, 0, 0.5))
    assert rhs[3] == pytest.approx(-0.5, abs=1e-15)
    assert rhs[4] == 0.0
    assert rhs[5] == pytest.approx(-0.25, abs=1e-15)


def test_rhs_axis_point_degenerates():
    fam = make_family("hyperbolic14", "A", "t", "1", -1.0, 1.0)
    with pytest.raises(DegenerateMetricError):
        _reference_rhs(fam, (0, 0, 0.0, 0.1, 0.1, 1.0))


def test_integrate_meridian_exactly():
    trajectory = integrate(H14, GeodesicState(0, 0, 1.0, 0, 0, 1.0), 1.0, 1e-3)
    assert trajectory.termination == "completed"
    final = trajectory.final.state
    assert final.u == 0.0 and final.v == 0.0
    assert final.t == pytest.approx(2.0, abs=1e-12)
    assert final.dt == pytest.approx(1.0, abs=1e-13)
    assert trajectory.samples[0].s == 0.0
    assert trajectory.final.s == 1.0


def _exact_geodesic(fam, state0):
    """s -> the exact ``GeodesicState`` at s of the geodesic from
    ``state0`` on a flat member of ``fam``: one profile is r = t + c, the
    other constant.  The metric's (r, angle) block is then polar where
    the angle's coefficient (E or G) and N share a sign, Milne otherwise,
    so the geodesic is a straight line in (r cos, r sin) or (r cosh,
    r sinh), and the other angle is linear in s."""
    u0, v0, t0, du0, dv0, dt0 = state0.as_tuple()
    coeffs = fam.metric_coefficients(t0)
    on_u = fam.fa.derivative(t0) == 1.0  # fa = t + c, else fb is
    a0, da0, b0, db0, bend = ((u0, du0, v0, dv0, coeffs.E) if on_u
                              else (v0, dv0, u0, du0, coeffs.G))
    c = (fam.fa if on_u else fam.fb).evaluate(t0) - t0
    polar = bend * coeffs.N > 0.0
    # r^2 = x^2 + sign y^2
    cos, sin, sign = ((math.cos, math.sin, 1.0) if polar
                      else (math.cosh, math.sinh, -1.0))
    r0 = c + t0
    x0, y0 = r0 * cos(a0), r0 * sin(a0)
    dx = dt0 * cos(a0) - sign * r0 * sin(a0) * da0
    dy = dt0 * sin(a0) + r0 * cos(a0) * da0

    def at(s: float) -> GeodesicState:
        x, y = x0 + s * dx, y0 + s * dy
        r = math.sqrt(x * x + sign * y * y)
        a = (a0 + math.atan2(x0 * y - y0 * x, x0 * x + y0 * y) if polar
             else math.atanh(y / x))
        dr, da = (x * dx + sign * y * dy) / r, (x * dy - y * dx) / (r * r)
        b, t = b0 + db0 * s, r - c
        return (GeodesicState(a, b, t, da, db0, dr) if on_u
                else GeodesicState(b, a, t, db0, da, dr))
    return at


def _position_errors(fam, state0, length, steps) -> list:
    """RK4's largest |u|, |v| or |t| error against ``_exact_geodesic``
    over the rows of a run at each of ``steps``."""
    exact, errors = _exact_geodesic(fam, state0), []
    for step in steps:
        trajectory = integrate(fam, state0, length, step)
        assert trajectory.termination == "completed"
        error = 0.0
        for s, u, v, t, *_ in trajectory.rows:
            want = exact(s)
            error = max(error, abs(t - want.t), abs(u - want.u),
                        abs(v - want.v))
        errors.append(error)
    return errors


def test_integrate_converges_to_the_exact_geodesic():
    # fa = t, fb = 1: the metric t^2 du^2 - dv^2 - dt^2 is flat, so
    # (t cosh u, t sinh u) runs on a straight line and v = v'(0) s; from
    # (u, v, t) = (0, 0, 1) with velocity (0.3, 0.1, sqrt(1.08)), unit
    # timelike, the line is (1 + sqrt(1.08) s, 0.3 s)
    fam = make_family("hyperbolic14", "A", "t", "1", 0.05, 10.0)
    state0 = GeodesicState(0.0, 0.0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    errors = _position_errors(fam, state0, 2.8, (4e-3, 2e-3, 1e-3))
    # RK4 is fourth order until rounding: 3.5e-12, 2.2e-13, 1.4e-14
    assert 3.8 <= math.log2(errors[0] / errors[1]) <= 4.2
    assert errors[2] <= 1e-13


# the 12 flat members: each (family, variant) pair with fa = 2 + t and
# fb = 1, or the other way round, over a domain that keeps 2 + t > 0
FLAT_MEMBERS = [(kind, variant, profiles) for kind in FamilyKind
                for variant in Variant
                for profiles in (("2+t", "1"), ("1", "2+t"))]
FLAT_START = GeodesicState(0.1, -0.2, 1.0, 0.25, 0.15, 0.4)


@pytest.mark.parametrize("kind,variant,profiles", FLAT_MEMBERS)
def test_integrate_converges_to_the_exact_geodesic_on_flat_members(
        kind, variant, profiles):
    # stated before the run: order 4 +- 0.2 from step 2e-2 to 1e-2, whose
    # errors are far above roundoff, and at most 1e-12 at 1e-3, on the
    # roundoff floor
    fam = SurfaceFamily(kind, variant, *(ProfileFunction.from_text(
        text, -1.5, 10.0) for text in profiles))
    coarse, fine, floor = _position_errors(fam, FLAT_START, 2.0,
                                           (2e-2, 1e-2, 1e-3))
    assert 3.8 <= math.log2(coarse / fine) <= 4.2
    assert floor <= 1e-12


@pytest.mark.parametrize("kind,variant,profiles", FLAT_MEMBERS)
def test_momenta_are_constant_on_the_exact_geodesic(kind, variant,
                                                    profiles):
    # the package's p_u, p_v and L on the exact line, with no RK4 step
    fam = SurfaceFamily(kind, variant, *(ProfileFunction.from_text(
        text, -1.5, 10.0) for text in profiles))
    exact, columns = _exact_geodesic(fam, FLAT_START), []
    for k in range(201):
        state = exact(k * 0.01)
        coeffs = fam.metric_coefficients(state.t)
        columns.append((*coeffs.momenta(state), coeffs.lagrangian(state)))
    for column in zip(*columns):
        assert max(abs(x - column[0]) for x in column) <= \
            1e-13 * max(1.0, abs(column[0]))


def test_integrate_conserves_cyclic_momentum():
    state0 = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    trajectory = integrate(H14, state0, 5.0, 1e-3)
    assert trajectory.termination == "completed"
    assert trajectory.samples[0].p_u == pytest.approx(0.6, abs=1e-15)
    assert max(abs(s.p_u - 0.6) for s in trajectory.samples) <= 1e-10


def test_integrate_validates_stepping():
    state = GeodesicState(0, 0, 1.0, 0, 0, 1.0)
    with pytest.raises(ValueError):
        integrate(H14, state, 1.0, 2.0)          # step > length
    with pytest.raises(ValueError):
        integrate(H14, state, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(H14, state, -1.0, 0.1)
    for length, step in ((1e300, 1e-10),        # length/step overflows
                         (1e9, 1.0)):           # a billion rows
        with pytest.raises(ValueError, match="step"):
            integrate(H14, state, length, step)


def test_integrate_domain_exit_reports_last_valid_s():
    fam = make_family("hyperbolic14", "A", "t", "1", 0.9, 1.4)
    trajectory = integrate(fam, GeodesicState(0, 0, 1.0, 0, 0, 1.0), 1.0, 1e-2)
    assert trajectory.termination == "domain_exit"
    assert trajectory.reached_length < 0.41
    assert trajectory.final.state.t <= 1.4


def test_momenta_examples():
    assert momenta(H14, GeodesicState(0, 0, 1.0, 0.3, 0.1, 0)) == \
        pytest.approx((0.6, -0.2), abs=1e-15)
    assert momenta(E56, GeodesicState(0, 0, 0.0, 0, 0, 1.0)) == (0.0, -0.0)
    fam = make_family("hyperbolic23", "A", "2", "1", -5.0, 5.0)
    assert momenta(fam, GeodesicState(0, 0, 0.0, 0.25, 1.0, 0)) == \
        pytest.approx((2.0, 2.0), abs=1e-15)


def test_extract_angles_boost_example():
    state = GeodesicState(0, 0, 1.0, 0.5, 0, math.sqrt(2.0))
    angles = extract_angles(H23_CONST, state)
    assert angles.defined
    assert angles.phi == pytest.approx(math.asinh(1.0), abs=1e-12)
    assert angles.theta == 0.0
    assert angles.residual <= 1e-12


def test_extract_angles_meridian_convention():
    angles = extract_angles(H23_CONST, GeodesicState(0, 0, 1.0, 0, 0, 1.0))
    assert angles.defined
    assert angles.phi == 0.0 and angles.theta == 0.0


def test_extract_angles_inconsistent_state_undefined():
    # generic unit-timelike states on this family over-constrain the
    # decomposition; the residual reports 2*((fb*dv)^2 - 1)
    state = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    angles = extract_angles(H14, state)
    assert not angles.defined
    assert angles.residual == pytest.approx(1.98, abs=1e-12)


def test_extract_angles_rejects_unreachable_combination():
    # residual vanishes but cosh(theta)*sin(phi) = fb*dv is unreachable
    # from phi = 0, so no decomposition exists
    state = GeodesicState(0, 0, 1.0, 1.0 / 1.0, 0.7, 0.7)
    angles = extract_angles(H14, state)
    assert not angles.defined


angle_phi = st.floats(0.1, 1.4)
angle_theta = st.floats(-1.2, 1.2)
fraction = st.floats(0.1, 0.9)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_KINDS + B_VARIANTS), angle_phi, angle_theta, fraction)
def test_angle_round_trip(fam, phi, theta, fraction):
    lo, hi = fam.domain
    t = lo + (hi - lo) * fraction
    state = state_from_angles(fam, 0.1, -0.2, t, phi, theta)
    angles = extract_angles(fam, state)
    assert angles.defined
    assert angles.phi == pytest.approx(phi, abs=1e-12)
    assert angles.theta == pytest.approx(theta, abs=1e-12)
    rebuilt = state_from_angles(fam, 0.1, -0.2, t, angles.phi, angles.theta)
    for name in ("du", "dv", "dt"):
        assert getattr(rebuilt, name) == pytest.approx(
            getattr(state, name), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_KINDS + B_VARIANTS), angle_phi, angle_theta, fraction)
def test_clairaut_identity_where_defined(fam, phi, theta, fraction):
    lo, hi = fam.domain
    t = lo + (hi - lo) * fraction
    state = state_from_angles(fam, 0.0, 0.0, t, phi, theta)
    report = clairaut_report(fam, state)
    assert report.angles.defined
    spec = fam.spec
    assert report.invariant1 == pytest.approx(
        spec.mom_sign_u * report.p_u, abs=1e-12)
    assert report.invariant2 == pytest.approx(
        spec.mom_sign_v * report.p_v, abs=1e-12)


def test_clairaut_identity_boost_example():
    state = GeodesicState(0, 0, 1.0, 0.5, 0, math.sqrt(2.0))
    report = clairaut_report(H23_CONST, state)
    # 2 * fa * cos(theta) * sinh(phi) with fa = 2, sinh(phi) = 1, theta = 0
    assert report.invariant1 == pytest.approx(4.0, abs=1e-12)
    assert report.invariant1 == pytest.approx(report.p_u, abs=1e-12)


def test_clairaut_fallback_uses_momenta():
    state = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    report = clairaut_report(H14, state)
    assert not report.angles.defined
    assert report.invariant1 == report.p_u
    assert report.invariant2 == report.p_v


def test_clairaut_report_evaluates_each_profile_value_once(monkeypatch):
    # fa, fb, fa' and fb' once each, on the angle path and on the fallback
    states = [(H23, state_from_angles(H23, 0.0, 0.3, 1.0, 0.6, 0.4)),
              (H14, GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08)))]
    calls = []
    for name in ("evaluate", "derivative", "second_derivative"):
        def counting(self, *args, _method=getattr(ProfileFunction, name),
                     _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(ProfileFunction, name, counting)
    defined = []
    for fam, state in states:
        calls.clear()
        defined.append(clairaut_report(fam, state).angles.defined)
        assert sorted(calls) == ["derivative", "derivative",
                                 "evaluate", "evaluate"]
    assert defined == [True, False]


@pytest.mark.parametrize("fam,start", [
    (H14, (0, 0, 1.0, 0.0, 0.0, 1e200)),    # N dt^2 = -inf
    (H14, (0, 0, 1.0, 1e200, 0.0, 1e200)),  # fsum raises on inf - inf
    # finite terms whose sum overflows: fsum raises OverflowError
    (make_family("hyperbolic23", "A", "1+t", "2+t", 0.05, 10.0),
     (0, 0, 1.0, 5e153, 3.33e153, 0.0)),
], ids=["inf", "inf-minus-inf", "sum-overflow"])
def test_overflowing_lagrangian_is_metric_overflow(fam, start):
    state = GeodesicState(*start)
    for call in (fam.lagrangian, fam.normalize_timelike,
                 lambda state: clairaut_report(fam, state)):
        with pytest.raises(MetricOverflowError):
            call(state)


def test_slope_boost_example():
    # fa = 2, sinh(phi) = 1, L = -1: slope law gives 2*sqrt(2), the state
    # gives sqrt(2)/0.5
    state = GeodesicState(0, 0, 1.0, 0.5, 0, math.sqrt(2.0))
    report = slope(H23_CONST, state)
    assert report.state_slope == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert report.angle_slope == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert abs(report.match) <= 1e-12
    assert not report.imaginary_radicand


def test_slope_meridian_undefined():
    with pytest.raises(MeridianUndefinedError):
        slope(H14, GeodesicState(0, 0, 1.0, 0, 0, 1.0))


def test_slope_undefined_angles_reports_none():
    state = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    report = slope(H14, state)
    assert report.angle_slope is None
    assert report.match is None


# theta away from 0: the slope-law radicand has a double root there, so
# its square root amplifies rounding noise without bound
angle_theta_slope = st.one_of(st.floats(0.05, 1.2), st.floats(-1.2, -0.05))


@settings(max_examples=60, deadline=None)
@given(angle_phi, angle_theta_slope, fraction)
def test_slope_magnitude_match_boost_13_24(phi, theta, fraction):
    t = 0.5 + 5.0 * fraction
    state = state_from_angles(H14, 0, 0, t, phi, theta)
    report = slope(H14, state)
    assert report.angle_slope is not None
    assert abs(report.match) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(angle_phi, angle_theta, fraction)
def test_slope_spin_family_magnitude(phi, theta, fraction):
    lo, hi = E56.domain
    t = lo + (hi - lo) * fraction
    state = state_from_angles(E56, 0, 0, t, phi, theta)
    report = slope(E56, state)
    # unit-timelike spin states always have L + sin(phi)^2 = -cos(phi)^2
    assert report.imaginary_radicand
    assert abs(report.match) <= 1e-9


def test_meridians_stay_meridians():
    for fam, t0 in ((H14, 1.0), (H23, 0.0), (E56, 0.0)):
        trajectory = integrate(fam, GeodesicState(0.4, -0.7, t0, 0, 0, 1.0),
                               2.0, 1e-3)
        assert trajectory.termination == "completed"
        for sample in trajectory.samples:
            assert sample.state.u == 0.4
            assert sample.state.v == -0.7
            assert sample.state.du == 0.0
            assert sample.state.dv == 0.0


def test_parallel_with_constant_profile_stays():
    # G is constant, so a pure-angle state is an exact equilibrium
    trajectory = integrate(H14, GeodesicState(0, 0, 1.0, 0, 0.8, 0), 2.0, 1e-3)
    assert trajectory.termination == "completed"
    for sample in trajectory.samples:
        assert sample.state.t == 1.0
        assert sample.state.dt == 0.0
        assert sample.state.du == 0.0
        assert abs(sample.state.dv - 0.8) <= 1e-10


def test_parallel_with_varying_profile_drifts():
    fam = make_family("hyperbolic14", "A", "t", "1 + t/2", 0.1, 10.0)
    trajectory = integrate(fam, GeodesicState(0, 0, 1.0, 0, 0.8, 0), 1.0, 1e-3)
    assert trajectory.termination == "completed"
    assert abs(trajectory.final.state.t - 1.0) > 1e-4


def test_forced_parallel_fails_geodesic_equations():
    # holding t fixed while v advances violates the t-equation when G' != 0:
    # the defect equals |G' dv^2 / (2N)|
    fam = make_family("hyperbolic14", "A", "t", "1 + t/2", 0.1, 10.0)
    ds = 1e-3
    samples = []
    for i in range(11):
        state = GeodesicState(0.0, 0.8 * i * ds, 1.0, 0.0, 0.8, 0.0)
        samples.append(Sample(i * ds, state, 0.0, 0.0, 0.0))
    assert flow_residual(fam, samples) > 1e-3


def test_geodesics_map_to_geodesics_under_angle_shifts():
    # the u- or v-rotation adds its angle to u or v and keeps s, t and the
    # velocities; the geodesic equations read neither u nor v, so the image
    # has the unshifted path's residual
    state0 = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    trajectory = integrate(H14, state0, 2.0, 5e-4)
    assert trajectory.termination == "completed"
    residual = flow_residual(H14, trajectory.samples)
    assert residual <= 1e-6
    for name, shift in (("u", 0.8), ("v", -1.1)):
        moved = []
        for sample in trajectory.samples:
            state = dict(zip(("u", "v", "t", "du", "dv", "dt"),
                             sample.state.as_tuple()))
            state[name] += shift
            moved.append(Sample(sample.s, GeodesicState(**state), sample.L,
                                sample.p_u, sample.p_v))
        assert flow_residual(H14, moved) == residual


def test_flow_residual_small_on_true_geodesic():
    state0 = GeodesicState(0, 0, 0.0, 0.5, 0.5, 1.5)
    trajectory = integrate(H23, state0, 2.0, 5e-4)
    assert flow_residual(H23, trajectory.samples) <= 1e-6


def test_trajectory_drifts_structure():
    trajectory = integrate(H14, GeodesicState(0, 0, 1.0, 0, 0, 1.0), 0.5, 1e-2)
    drifts = trajectory.drifts()
    assert set(drifts) == {"p_u_drift", "p_v_drift", "L_drift"}
    assert all(value >= 0.0 for value in drifts.values())


_DRIFT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 1e308,
                                           -1e308, 5e-324]),
                          st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@example([(0.0, -0.0, 2.5), (-0.0, 0.0, 2.5), (0.0, -0.0, 2.5)])
@example([(-0.0, -0.0, 1.0), (-0.0, -0.0, 3.0), (-0.0, 0.0, -2.0)])
@example([(1e308, 0.1, 0.0), (-1e308, 0.2, 0.0), (1e308, 0.3, 0.0)])
@given(st.lists(st.tuples(_DRIFT_VALUES, _DRIFT_VALUES, _DRIFT_VALUES),
                min_size=1, max_size=8))
def test_drifts_match_the_largest_absolute_difference(columns):
    rows = tuple((0.1 * k, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, *values)
                 for k, values in enumerate(columns))
    first = rows[0]
    # the formula the column extremes replace
    expected = {name: max([abs(row[k] - first[k]) for row in rows])
                for name, k in (("p_u_drift", 8), ("p_v_drift", 9),
                                ("L_drift", 7))}
    drifts = Trajectory(rows, "completed", 1.0).drifts()
    assert {k: v.hex() for k, v in drifts.items()} == {
        k: v.hex() for k, v in expected.items()}


def test_state_from_angles_requires_nonzero_profiles():
    fam = make_family("hyperbolic14", "A", "t", "1", -1.0, 1.0)
    with pytest.raises(DegenerateMetricError):
        state_from_angles(fam, 0, 0, 0.0, 0.5, 0.5)


# --- integrate against a reference RK4 -----------------------------------

def _reference_rhs(fam, y):
    """The state derivative (du, dv, dt, u'', v'', t'') of the geodesic
    equations at a plain tuple, which may hold non-finite stage values."""
    u, v, t, du, dv, dt = y
    e, g, n, de, dg, dn = fam.metric_bundle(t)
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t)
    return (du, dv, dt, -(de / e) * du * dt, -(dg / g) * dv * dt,
            (de * du * du + dg * dv * dv - dn * dt * dt) / (2.0 * n))


def flow_residual(fam, samples) -> float:
    """Max deviation of a sampled path from the geodesic equations.

    Accelerations are estimated by central differences of the sampled
    velocities (interior points with symmetric spacing only) and compared
    with ``_reference_rhs``, so a geodesic sampled with step h scores
    O(h^2) while a forced non-geodesic path scores its actual defect.
    """
    samples = tuple(samples)    # ``Trajectory.samples`` builds per access
    worst = 0.0
    for before, here, after in zip(samples, samples[1:], samples[2:]):
        left = here.s - before.s
        right = after.s - here.s
        if abs(left - right) > 1e-9 * max(left, right):
            continue
        span = after.s - before.s
        numeric = ((after.state.du - before.state.du) / span,
                   (after.state.dv - before.state.dv) / span,
                   (after.state.dt - before.state.dt) / span)
        analytic = _reference_rhs(fam, here.state.as_tuple())[3:]
        worst = max(worst, max(abs(x - y) for x, y in zip(numeric, analytic)))
    return worst


def _reference_step(fam, y, h):
    """A classical RK4 step as four list comprehensions over the rhs."""
    half = 0.5 * h
    sixth = h / 6.0
    k1 = _reference_rhs(fam, y)
    k2 = _reference_rhs(fam, [a + half * b for a, b in zip(y, k1)])
    k3 = _reference_rhs(fam, [a + half * b for a, b in zip(y, k2)])
    k4 = _reference_rhs(fam, [a + h * b for a, b in zip(y, k3)])
    return tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def _reference_sample(fam, s, y):
    """The sample at ``s``, or None when its L, p_u or p_v is not finite."""
    state = GeodesicState(*y)
    e, g, n = fam.metric_bundle(state.t)[:3]
    try:
        lagr = math.fsum((e * state.du * state.du, g * state.dv * state.dv,
                          n * state.dt * state.dt))
    except (ValueError, OverflowError):
        return None
    sample = Sample(s, state, lagr, 2.0 * e * state.du, 2.0 * g * state.dv)
    if all(map(math.isfinite, (sample.L, sample.p_u, sample.p_v))):
        return sample
    return None


def _reference_integrate(fam, state0, length, step):
    """(samples, termination) of fixed-step RK4, stopping as integrate does."""
    t_min, t_max = fam.domain
    y = state0.as_tuple()
    samples = [_reference_sample(fam, 0.0, y)]
    if samples[0] is None:
        return [], "nonfinite_state"
    n_steps = math.ceil(length / step - 1e-9)
    previous_s = 0.0
    for i in range(1, n_steps + 1):
        s_next = length if i == n_steps else i * step
        try:
            y_next = _reference_step(fam, y, s_next - previous_s)
            if not all(math.isfinite(value) for value in y_next):
                return samples, "nonfinite_state"
            if not (t_min <= y_next[2] <= t_max):
                return samples, "domain_exit"
            sample = _reference_sample(fam, s_next, y_next)
            if sample is None:
                return samples, "nonfinite_state"
            samples.append(sample)
        except DomainError:
            return samples, "domain_exit"
        except DegenerateMetricError:
            return samples, "degenerate_metric"
        y, previous_s = y_next, s_next
    return samples, "completed"


def _bits(samples):
    return [tuple(value.hex() for value in
                  (sample.s, *sample.state.as_tuple(), sample.L, sample.p_u, sample.p_v))
            for sample in samples]


REFERENCE_RUNS = [
    (("hyperbolic14", "A", "t", "1 + t/2", 0.1, 10.0),
     (0.0, 0.0, 1.0, 0.3, 0.1, math.sqrt(1.08)), 2.005, 1e-2, "completed"),
    (("hyperbolic14", "B", "t", "2 + sin(t)/4", 0.1, 5.0),
     (0.2, -0.1, 1.0, 0.4, 0.3, 1.2), 2.0, 1e-2, "completed"),
    (("hyperbolic23", "A", "2 + t/sqrt(2)", "1 + t/sqrt(2)", -1.0, 6.0),
     (0.0, 0.0, 0.0, 0.5, 0.5, 1.5), 2.005, 1e-2, "completed"),
    (("hyperbolic23", "B", "2 + t/2", "1 + t", -0.8, 4.0),
     (0.0, 0.3, 0.5, 0.2, -0.4, 1.3), 2.0, 1e-2, "completed"),
    (("elliptic56", "A", "t+2", "1 + t^2/8", -1.5, 8.0),
     (0.1, 0.0, 0.0, 0.3, 0.6, 1.1), 2.0, 1e-2, "completed"),
    (("elliptic56", "B", "cosh(t/2)", "t+3", -2.0, 5.0),
     (0.0, 0.0, 0.5, 0.2, 0.1, 0.9), 2.0, 1e-2, "completed"),
    # leaves the interval [0.9, 1.4]
    (("hyperbolic14", "A", "t", "1", 0.9, 1.4),
     (0.0, 0.0, 1.0, 0.2, 0.1, 1.0), 1.0, 1e-2, "domain_exit"),
    # sqrt(1.5 - t) faults inside the interval
    (("elliptic56", "B", "sqrt(1.5 - t)", "t + 3", -1.0, 2.0),
     (0.0, 0.0, 1.0, 0.2, 0.1, 1.0), 1.0, 1e-2, "domain_exit"),
    # u = s * 1e307 overflows at s = 18 while t stays put (E = 1e-308
    # keeps L and p_u finite)
    (("hyperbolic14", "A", "1e-154", "t", 0.1, 10.0),
     (0.0, 0.0, 1.0, 1e307, 0.0, 0.0), 30.0, 1.0, "nonfinite_state"),
    # the fourth stage of the sixth step lands on fa = t - 0.5 = 0
    (("hyperbolic14", "A", "t - 0.5", "2*t + 3", -2.0, 2.0),
     (0.1, 0.2, -1.0, 0.0, 0.0, 1.0), 3.0, 0.25, "degenerate_metric"),
    # p_v = 2 G dv overflows at s = 0.19 while the state stays finite
    (("hyperbolic14", "A", "t", "1e153*(9 + t)", 0.1, 10.0),
     (0.0, 0.0, 0.3, 0.5, 0.2, 1.0), 0.5, 1e-2, "nonfinite_state"),
]

# A DomainError inside one RK4 stage of the second step, never at an
# accepted state, from a guard of log, / or ^: fb is 1, and 0 * (guarded
# term) keeps the guard in fb's tree while its derivatives simplify to 0.
STAGE_START = (0.0, 0.0, 1.0, 0.6, 0.3, 1.0)
STAGE_FAULTS = [
    (("hyperbolic14", "A", "t", "1 + 0*log(1.30032 - t)", 0.1, 10.0),
     2, "log of a non-positive number"),
    # 1.3948937463687903 is exactly t of the second step's third stage
    (("elliptic56", "A", "t", "1 + 0*(1/(t - 1.3948937463687903))", 0.1, 10.0),
     3, "division by zero"),
    (("hyperbolic23", "B", "t", "1 + 0*(1.41405 - t)^0.5", 0.1, 10.0),
     4, "negative base with non-integer exponent"),
]
REFERENCE_RUNS += [(family, STAGE_START, 2.0, 0.25, "domain_exit")
                   for family, _, _ in STAGE_FAULTS]


def _count_bundles(monkeypatch):
    """A list that grows by the t of every ``metric_bundle`` call."""
    calls = []
    bundle = SurfaceFamily.metric_bundle

    def counted(self, t):
        calls.append(t)
        return bundle(self, t)

    monkeypatch.setattr(SurfaceFamily, "metric_bundle", counted)
    return calls


@pytest.mark.parametrize("family,stage,message", STAGE_FAULTS)
def test_stage_faults_fire_inside_their_stage(family, stage, message,
                                              monkeypatch):
    fam = make_family(*family)
    samples, termination = _reference_integrate(
        fam, GeodesicState(*STAGE_START), 0.25, 0.25)
    assert termination == "completed"
    calls = _count_bundles(monkeypatch)
    with pytest.raises(DomainError, match=message):
        _reference_step(fam, samples[-1].state.as_tuple(), 0.25)
    # one bundle per stage: the call that raised is the stage's
    assert len(calls) == stage


@pytest.mark.parametrize("family,start,length,step,termination", REFERENCE_RUNS)
def test_integrate_matches_reference_rk4(family, start, length, step,
                                         termination):
    fam = make_family(*family)
    state0 = GeodesicState(*start)
    samples, expected = _reference_integrate(fam, state0, length, step)
    trajectory = integrate(fam, state0, length, step)
    assert expected == termination
    assert trajectory.termination == termination
    assert _bits(trajectory.samples) == _bits(samples)
    assert trajectory.reached_length == samples[-1].s


@pytest.mark.parametrize("family,start,length,step,termination", REFERENCE_RUNS)
def test_samples_view_matches_reference(family, start, length, step,
                                        termination):
    fam = make_family(*family)
    samples, _ = _reference_integrate(fam, GeodesicState(*start), length, step)
    view = integrate(fam, GeodesicState(*start), length, step).samples
    assert len(view) == len(samples)
    assert _bits([view[0], view[-1]]) == _bits([samples[0], samples[-1]])
    assert isinstance(view[1:-1:2], tuple)
    assert _bits(view[1:-1:2]) == _bits(samples[1:-1:2])
    assert _bits(view[-3:]) == _bits(samples[-3:])
    assert _bits(iter(view)) == _bits(samples)
    with pytest.raises(IndexError):
        view[len(samples)]


@pytest.mark.parametrize("fa,fb,start", [
    # G = -(1e200)^2 = -inf: L = fsum((..., -inf * 0, ...)) is nan
    ("t", "1e200", (0.0, 0.0, 1.0, 0.5, 0.0, 1.0)),
    # E = +inf and G = -inf: fsum raises on inf - inf
    ("1e200", "1e200", (0.0, 0.0, 1.0, 0.5, 0.5, 1.0)),
    # G = -1e308 is finite, but p_v = 2 G dv is not
    ("t", "1e154", (0.0, 0.0, 1.0, 0.5, 1.0, 1.0)),
    # E du^2 = 4e614 is inf
    ("2", "t", (0.0, 0.0, 1.0, 1e307, 0.0, 0.0)),
], ids=["nan-L", "fsum-raises", "p_v", "inf-L"])
def test_integrate_stops_before_a_non_finite_first_row(fa, fb, start):
    fam = make_family("hyperbolic14", "A", fa, fb, 0.5, 3.0)
    trajectory = integrate(fam, GeodesicState(*start), 0.01, 0.001)
    assert trajectory.termination == "nonfinite_state"
    assert trajectory.rows == ()
    assert trajectory.reached_length == 0.0
    assert trajectory.drifts() == {"p_u_drift": 0.0, "p_v_drift": 0.0,
                                   "L_drift": 0.0}
    with pytest.raises(ValueError, match="ended as nonfinite_state"):
        trajectory.final
    assert _reference_integrate(fam, GeodesicState(*start), 0.01, 0.001) == (
        [], "nonfinite_state")


def _count_states(monkeypatch):
    """A list that grows by one for every ``GeodesicState`` constructed."""
    built = []
    check = GeodesicState.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GeodesicState, "__post_init__", counting)
    return built


def test_integrate_builds_no_state_per_step(monkeypatch):
    state0 = GeodesicState(0.0, 0.0, 0.0, 0.5, 0.5, 1.5)
    built = _count_states(monkeypatch)
    trajectory = integrate(H23, state0, 1.0, 1e-2)
    assert len(trajectory.rows) == 101
    assert built == []
    # the view builds one state per sample and per access
    trajectory.final
    trajectory.samples[3]
    assert len(built) == 2
    built.clear()
    assert flow_residual(H23, trajectory.samples) <= 1e-3
    assert len(built) == len(trajectory.rows)


def _run_source(fam, monkeypatch):
    """The source of ``fam``'s generated RK4 run, as it is compiled."""
    sources, real_compile = [], builtins.compile

    def recording(source, filename, *args, **kwargs):
        if filename == "<generated RK4 run>":
            sources.append(source)
        return real_compile(source, filename, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "compile", recording)
        fam._run_fn
    return sources[0]


def _golden_family(name):
    config = CONFIGS[name]
    return (config["family"], config["variant"], config["profiles"]["fa"],
            config["profiles"]["fb"], *config["domain"])


# linear profiles: (family, the metric coefficients the run still tests
# for 0); fa and fb are bounded away from 0 on the domain and N is a
# nonzero constant, unless noted
LINEAR_RUNS = [(REFERENCE_RUNS[k][0], []) for k in (0, 2, 3, 6, 10)] + [
    # E = (1e-154)^2 is folded to a nonzero (subnormal) constant
    (REFERENCE_RUNS[8][0], []),
    # fa = t - 0.5 and fb = 2*t + 3 cross 0 on [-2, 2]
    (REFERENCE_RUNS[9][0], ["e", "g"]),
    (_golden_family("e56-unit"), []),
    (_golden_family("h23-B"), []),
    # fa in [1e-170, 2e-170] is nonzero, but fa * fa underflows to 0
    (("hyperbolic14", "A", "1e-170*t", "1 + t", 1.0, 2.0), ["e"]),
]


@pytest.mark.parametrize("family,tested", LINEAR_RUNS)
def test_run_on_linear_profiles_drops_what_the_domain_rules_out(
        family, tested, monkeypatch):
    source = _run_source(make_family(*family), monkeypatch)
    lines = source.splitlines()
    # isfinite only on the row and on the new state: none in the bundle
    assert source.count("isfinite(") == 2
    assert [line for line in lines
            if line.lstrip().startswith(("n = ", "dn = ", "n2 = "))] == []
    # the RHS divides by the folded constant n2, not by 2.0 * n per stage
    assert "2.0 * n" not in source and source.count("/ n2") == 4
    tests = {line.strip() for line in lines if "degenerate_metric" in line}
    if tested:
        operands = " or ".join(f"{name} == 0.0" for name in tested)
        assert tests == {f'if {operands}: return "degenerate_metric"'}
    else:
        assert tests == set()


def test_underflowing_square_is_still_degenerate():
    fam = make_family(*LINEAR_RUNS[-1][0])
    state0 = GeodesicState(0.0, 0.0, 1.5, 0.1, 0.1, 1.0)
    samples, termination = _reference_integrate(fam, state0, 0.1, 0.01)
    trajectory = integrate(fam, state0, 0.1, 0.01)
    assert termination == trajectory.termination == "degenerate_metric"
    assert _bits(trajectory.samples) == _bits(samples)


def test_run_keeps_the_guards_the_domain_cannot_rule_out(monkeypatch):
    # 1.30032 - t crosses 0 on [0.1, 10]: the log guard and the checks
    # after the unbounded log stay
    source = _run_source(make_family(*STAGE_FAULTS[0][0]), monkeypatch)
    assert "log of a non-positive number" in source
    assert "multiplication produced a non-finite value" in source


def test_integrate_never_calls_metric_bundle(monkeypatch):
    calls = _count_bundles(monkeypatch)
    state0 = GeodesicState(0.0, 0.0, 0.0, 0.5, 0.5, 1.5)
    assert len(integrate(H23, state0, 1.0, 1e-2).rows) == 101
    # nor does a run that ends in a stage's DomainError
    fam = make_family(*STAGE_FAULTS[0][0])
    run = integrate(fam, GeodesicState(*STAGE_START), 2.0, 0.25)
    assert run.termination == "domain_exit"
    assert calls == []
    # a start outside the domain raises metric_bundle's own DomainError
    outside = GeodesicState(0.0, 0.0, 12.0, 0.5, 0.5, 1.5)
    with pytest.raises(DomainError) as direct:
        fam.metric_bundle(outside.t)
    with pytest.raises(DomainError) as integrated:
        integrate(fam, outside, 1.0, 0.25)
    assert type(integrated.value) is type(direct.value)
    assert str(integrated.value) == str(direct.value)
    assert calls == [12.0]


_PAIRS = [(kind, variant) for kind in ("hyperbolic14", "hyperbolic23",
                                       "elliptic56") for variant in "AB"]
_PROFILE = _tree(3, _lowering_leaf, _lowering_func, ("+", "-", "*", "/", "^"))
_SPEED = st.floats(-2.0, 2.0)


@pytest.mark.parametrize("kind,variant", _PAIRS)
@settings(max_examples=40, deadline=None)
@given(_PROFILE, _PROFILE, st.floats(-1.0, 2.0), _SPEED, _SPEED, _SPEED)
def test_integrate_matches_reference_on_random_profiles(kind, variant, fa, fb,
                                                        t0, du, dv, dt):
    """Every termination, bit for bit, on profiles whose lowering emits
    many ``c<k>`` and ``v<k>`` names into the generated run; the linear
    terms keep most metrics from vanishing at the first row."""
    fam = make_family(kind, variant, f"{fa} + t + 3", f"{fb} - 2*t + 4",
                      -1.0, 2.0)
    state0 = GeodesicState(0.1, -0.2, t0, du, dv, dt)
    try:
        samples, termination = _reference_integrate(fam, state0, 0.2, 0.02)
    except DomainError:  # at the first row: integrate raises too
        with pytest.raises(DomainError):
            integrate(fam, state0, 0.2, 0.02)
        return
    trajectory = integrate(fam, state0, 0.2, 0.02)
    assert trajectory.termination == termination
    assert _bits(trajectory.samples) == _bits(samples)


def _unit_and_scaled_runs():
    """(id, family, start, defined): the angle path on every row (unit speed
    from angles) and the fallback on every row (the same start at 1.5x the
    speed), for every (family, variant) pair."""
    runs = []
    for kind in ("hyperbolic14", "hyperbolic23", "elliptic56"):
        for variant in ("A", "B"):
            fam = make_family(kind, variant, "1.5 + t", "1.2", 0.1, 3.0)
            unit = state_from_angles(fam, 0.1, -0.2, 1.0, 0.7, 0.2)
            scaled = GeodesicState(unit.u, unit.v, unit.t, 1.5 * unit.du,
                                   1.5 * unit.dv, 1.5 * unit.dt)
            runs.append((f"{kind}-{variant}-angles", fam, unit, True))
            runs.append((f"{kind}-{variant}-fallback", fam, scaled, False))
    return runs


INVARIANT_RUNS = _unit_and_scaled_runs()


@pytest.mark.parametrize("name,fam,state0,defined", INVARIANT_RUNS,
                         ids=[run[0] for run in INVARIANT_RUNS])
def test_invariant_rows_match_clairaut_report(name, fam, state0, defined,
                                              monkeypatch):
    trajectory = integrate(fam, state0, 0.5, 1e-2)
    assert trajectory.termination == "completed"
    calls = {"evaluate": 0, "derivative": 0, "pair": 0}
    for method in ("evaluate", "derivative"):
        original = getattr(ProfileFunction, method)

        def counted(self, *args, _method=method, _original=original):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(ProfileFunction, method, counted)
    pair = fam._pair_fn

    def counted_pair(t):
        calls["pair"] += 1
        return pair(t)

    monkeypatch.setitem(vars(fam), "_pair_fn", counted_pair)
    rows = invariant_rows(fam, trajectory.rows)
    # one lowered (fa, fb) call per row; no profile is walked
    assert calls == {"evaluate": 0, "derivative": 0, "pair": len(rows)}
    for row, flat, sample in zip(rows, trajectory.rows, trajectory.samples,
                                 strict=True):
        report = clairaut_report(fam, sample.state)
        assert report.angles.defined is defined
        assert row[:10] == flat
        assert [x.hex() for x in row[7:]] == [
            x.hex() for x in (report.L, report.p_u, report.p_v,
                              report.invariant1, report.invariant2)]


@given(st.lists(st.tuples(*[_DRIFT_VALUES] * 10), max_size=12))
def test_drifts_read_three_columns_as_the_transpose_did(rows):
    """``drifts`` reads columns 7-9 alone, with the floats of the 10-column
    transpose it replaces; no rows give 0.0."""
    rows = tuple(rows)
    columns = tuple(zip(*rows)) or ((0.0,),) * 10

    def drift(column):
        return max(max(column) - column[0], column[0] - min(column))

    expected = {"p_u_drift": drift(columns[8]),
                "p_v_drift": drift(columns[9]),
                "L_drift": drift(columns[7])}
    drifts = Trajectory(rows, "completed", 1.0).drifts()
    assert {k: v.hex() for k, v in drifts.items()} == {
        k: v.hex() for k, v in expected.items()}


# The family laws as three methods each, before they were fused into one:
# (velocity, invert, invariants) by family, and the decision between them.
def _h14_invert(a, b, dt, tol):
    residual = abs(a * a + b * b - dt * dt - 1.0)
    ok = abs(a) <= 1.0 + tol and b >= -tol and residual <= tol
    phi = math.acos(min(1.0, max(-1.0, a))) if ok else 0.0
    sin_phi = math.sin(phi)
    theta = math.asinh(dt / sin_phi) if ok and sin_phi > 1e-15 else 0.0
    return phi, theta, ok, residual


def _h23_invert(a, b, dt, tol):
    sq = (dt - 1.0) * (dt + 1.0)
    residual = abs(a * a + b * b - sq)
    ok = dt >= 1.0 - tol and residual <= tol
    phi = math.acosh(max(1.0, dt)) if ok else 0.0
    theta = math.atan2(b, a) if ok and (a != 0.0 or b != 0.0) else 0.0
    return phi, theta, ok, residual


def _e56_invert(a, b, dt, tol):
    sq = (1.0 - dt) * (1.0 + dt)
    residual = abs(a * a - b * b - sq)
    ok = abs(dt) <= 1.0 + tol and a >= -tol and residual <= tol
    phi = math.acos(min(1.0, max(-1.0, dt))) if ok else 0.0
    sin_phi = math.sin(phi)
    theta = math.asinh(b / sin_phi) if ok and sin_phi > 1e-15 else 0.0
    return phi, theta, ok, residual


_SEPARATE_LAWS = {
    "hyperbolic14": (
        lambda p, q: (math.cos(p), math.cosh(q) * math.sin(p),
                      math.sinh(q) * math.sin(p)),
        _h14_invert,
        lambda fa, fb, p, q: (2.0 * fa * math.cos(p),
                              -2.0 * fb * math.cosh(q) * math.sin(p))),
    "hyperbolic23": (
        lambda p, q: (math.sinh(p) * math.cos(q), math.sinh(p) * math.sin(q),
                      math.cosh(p)),
        _h23_invert,
        lambda fa, fb, p, q: (2.0 * fa * math.cos(q) * math.sinh(p),
                              2.0 * fb * math.sin(q) * math.sinh(p))),
    "elliptic56": (
        lambda p, q: (math.sin(p) * math.cosh(q), math.sin(p) * math.sinh(q),
                      math.cos(p)),
        _e56_invert,
        lambda fa, fb, p, q: (2.0 * fa * math.sin(p) * math.cosh(q),
                              2.0 * fb * math.sinh(q) * math.sin(p))),
}


def _separate_clairaut(fam, fa, fb, du, dv, dt, p_u, p_v):
    velocity, invert, invariants = _SEPARATE_LAWS[fam.kind.value]
    a, b = fa * du, fb * dv
    phi, theta, ok, residual = invert(a, b, dt, 1e-9)
    if ok:
        ra, rb, rdt = velocity(phi, theta)
        if max(abs(ra - a), abs(rb - b), abs(rdt - dt)) > (
                10.0 * 1e-9 * (1.0 + max(abs(a), abs(b), abs(dt)))):
            phi, theta, ok = 0.0, 0.0, False
    if ok:
        return (*invariants(fa, fb, phi, theta), phi, theta, ok, residual)
    spec = fam.spec
    return (spec.mom_sign_u * p_u, spec.mom_sign_v * p_v, phi, theta, ok,
            residual)


def _branch_velocities(kind):
    """(label, (fa*du, fb*dv, dt), defined) reaching each branch of the
    decision for ``kind``: a velocity from angles, its 1.5x multiple (the
    momentum fallback), one component moved just inside and just outside
    10 TOL (1 + max) of its reconstruction, sin(phi) <= 1e-15 and dt = +-1."""
    spec = make_family(kind, "A", "t", "t*t", 0.5, 2.0).spec
    unit = spec.law(1.0, 1.0, angles=(0.7, 0.3))[4][:3]
    near = spec.law(1.0, 1.0, angles=(0.01, 0.0))[4][:3]  # moved below
    index = 1 if kind == "hyperbolic14" else 0
    bound = 10.0 * 1e-9 * (1.0 + max(map(abs, near)))

    def moved(factor):
        return tuple(x + factor * bound if k == index else x
                     for k, x in enumerate(near))

    cases = [("angles", unit, True), ("fallback", tuple(1.5 * x for x in unit),
                                      False),
             ("inside-10tol", moved(0.99), True),
             ("outside-10tol", moved(1.01), False)]
    if kind == "hyperbolic14":
        cases += [("sin-phi-0", (1.0, 0.0, 0.0), True),
                  ("sin-phi-pi", (-1.0, 0.0, 0.0), True),
                  ("dt+1", (0.0, math.sqrt(2.0), 1.0), True),
                  ("dt-1", (0.0, math.sqrt(2.0), -1.0), True)]
    elif kind == "hyperbolic23":
        cases += [("dt+1", (0.0, 0.0, 1.0), True),
                  ("dt-1", (0.0, 0.0, -1.0), False)]
    else:
        cases += [("sin-phi-0/dt+1", (0.0, 0.0, 1.0), True),
                  ("sin-phi-pi/dt-1", (0.0, 0.0, -1.0), True)]
    return cases


_BRANCHES = [(kind, variant, *case) for kind, variant in _PAIRS
             for case in _branch_velocities(kind)]


@pytest.mark.parametrize("kind,variant,label,velocity,defined", _BRANCHES,
                         ids=[f"{k}-{v}-{label}"
                              for k, v, label, *_ in _BRANCHES])
def test_fused_invariants_match_on_every_branch(kind, variant, label,
                                                velocity, defined):
    """The fused pass (``invariant_rows``: the lowered pair, then one law
    call) gives ``clairaut_report``'s invariants bit for bit, and both give
    the three separate laws' floats, on a hand-built row of each branch;
    fa = fb = 1 at t = 1, so (du, dv, dt) is the velocity triple."""
    fam = make_family(kind, variant, "t", "t*t", 0.5, 2.0)
    state = GeodesicState(0.1, -0.2, 1.0, *velocity)
    report = clairaut_report(fam, state)
    assert report.angles.defined is defined
    if label.endswith("10tol"):  # the inversion holds; only its check moves
        assert report.angles.residual <= 1e-9
    row = (0.0, *state.as_tuple()[:3], *velocity, report.L, report.p_u,
           report.p_v)
    (fused,) = invariant_rows(fam, [row])
    assert fused[:10] == row
    expected = _separate_clairaut(fam, 1.0, 1.0, *velocity, report.p_u,
                                  report.p_v)
    got = (report.invariant1, report.invariant2, report.angles.phi,
           report.angles.theta, report.angles.defined, report.angles.residual)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
    assert [x.hex() for x in fused[10:]] == [x.hex() for x in got[:2]]
