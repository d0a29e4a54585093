"""Geodesic integration, conserved momenta, angle decompositions, slopes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsurf import (DegenerateMetricError, GeodesicState,
                     MeridianUndefinedError, ProfileFunction, Sample,
                     clairaut_report, extract_angles, flow_residual,
                     geodesic_rhs, integrate, make_family, momenta,
                     shift_samples, slope, state_from_angles)

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
    state = GeodesicState(0, 0, 1.0, 0, 0, 1.0)
    rhs = geodesic_rhs(H14, state)
    assert rhs == (0.0, 0.0, 1.0, -0.0, -0.0, 0.0)


def test_rhs_derived_example():
    # E = t^2, E' = 2t, G = -1, N = -1 at t = 1:
    # u'' = -(2/1)(0.5)(0.5), t'' = (2*0.25)/(2*(-1))
    state = GeodesicState(0, 0, 1.0, 0.5, 0, 0.5)
    rhs = geodesic_rhs(H14, state)
    assert rhs[3] == pytest.approx(-0.5, abs=1e-15)
    assert rhs[4] == 0.0
    assert rhs[5] == pytest.approx(-0.25, abs=1e-15)


def test_rhs_axis_point_degenerates():
    fam = make_family("hyperbolic14", "A", "t", "1", -1.0, 1.0)
    with pytest.raises(DegenerateMetricError):
        geodesic_rhs(fam, GeodesicState(0, 0, 0.0, 0.1, 0.1, 1.0))


def test_integrate_meridian_exactly():
    trajectory = integrate(H14, GeodesicState(0, 0, 1.0, 0, 0, 1.0), 1.0, 1e-3)
    assert trajectory.termination == "completed"
    final = trajectory.final.state
    assert final.u == 0.0 and final.v == 0.0
    assert final.t == pytest.approx(2.0, abs=1e-12)
    assert final.dt == pytest.approx(1.0, abs=1e-13)
    assert trajectory.samples[0].s == 0.0
    assert trajectory.final.s == 1.0


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
    layout = fam.layout
    assert report.invariant1 == pytest.approx(
        layout.mom_sign_u * report.p_u, abs=1e-12)
    assert report.invariant2 == pytest.approx(
        layout.mom_sign_v * report.p_v, abs=1e-12)


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
    state0 = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    trajectory = integrate(H14, state0, 2.0, 5e-4)
    assert trajectory.termination == "completed"
    for shift in ({"du": 0.8}, {"dv": -1.1}):
        moved = shift_samples(trajectory.samples, **shift)
        assert flow_residual(H14, moved) <= 1e-6


def test_flow_residual_small_on_true_geodesic():
    state0 = GeodesicState(0, 0, 0.0, 0.5, 0.5, 1.5)
    trajectory = integrate(H23, state0, 2.0, 5e-4)
    assert flow_residual(H23, trajectory.samples) <= 1e-6


def test_trajectory_drifts_structure():
    trajectory = integrate(H14, GeodesicState(0, 0, 1.0, 0, 0, 1.0), 0.5, 1e-2)
    drifts = trajectory.drifts()
    assert set(drifts) == {"p_u_drift", "p_v_drift", "L_drift"}
    assert all(value >= 0.0 for value in drifts.values())


def test_state_from_angles_requires_nonzero_profiles():
    fam = make_family("hyperbolic14", "A", "t", "1", -1.0, 1.0)
    with pytest.raises(DegenerateMetricError):
        state_from_angles(fam, 0, 0, 0.0, 0.5, 0.5)
