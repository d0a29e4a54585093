"""Closed-form curvature versus finite-difference oracles."""

import math
import random

import numpy as np
import pytest

from rotsurf import (DegenerateMetricError, DoubleRotationSurface,
                     FrameDegenerateError, ProfileFunction, Vector4,
                     curvature_report, gaussian_curvature_fd, inner,
                     make_family, mean_curvature_fd, normal_frame)


def profile(text, lo=-10.0, hi=10.0):
    return ProfileFunction.from_text(text, lo, hi)


def surface(kind, variant, fa, fb, lo, hi, angle_u, angle_v):
    fam = make_family(kind, variant, fa, fb, lo, hi)
    return DoubleRotationSurface(fam, profile(angle_u), profile(angle_v))


# --- the intrinsic-curvature oracle against classical metrics -------------

def test_oracle_unit_sphere_metric():
    def metric(t, s):
        return np.array([[1.0, 0.0], [0.0, math.sin(t) ** 2]])
    assert gaussian_curvature_fd(metric, 0.8, 0.3, 1e-4) == \
        pytest.approx(1.0, abs=1e-6)


def test_oracle_hyperbolic_plane_metric():
    def metric(t, s):
        return np.array([[1.0, 0.0], [0.0, math.sinh(t) ** 2]])
    assert gaussian_curvature_fd(metric, 0.8, 0.3, 1e-4) == \
        pytest.approx(-1.0, abs=1e-6)


def test_oracle_flat_polar_metric():
    def metric(t, s):
        return np.array([[1.0, 0.0], [0.0, t * t]])
    assert abs(gaussian_curvature_fd(metric, 1.3, 0.0, 1e-4)) <= 1e-8


def test_oracle_reads_each_metric_once_and_accepts_tuples():
    # 5 Christoffel evaluations of 5 metric values each; the centre one
    # reuses the metric the determinant was taken from
    calls = []

    def metric(t, s):
        calls.append((t, s))
        return ((1.0, 0.0), (0.0, math.sin(t) ** 2))

    k = gaussian_curvature_fd(metric, 0.8, 0.3, 1e-4)
    assert len(calls) == 25
    assert k == pytest.approx(1.0, abs=1e-6)
    assert k == gaussian_curvature_fd(
        lambda t, s: np.array(metric(t, s)), 0.8, 0.3, 1e-4)


def test_oracle_rejects_degenerate_metric():
    def metric(t, s):
        return np.zeros((2, 2))
    with pytest.raises(DegenerateMetricError):
        gaussian_curvature_fd(metric, 0.5, 0.5, 1e-4)


# --- frozen independent values on a spin-family surface -------------------
# With fa = c constant, fb(s) = s and angles (t, omega t) the immersion is
# (c sin t, c cos t, s sin(omega t), s cos(omega t)) with induced metric
# diag(omega^2 s^2 - c^2, 1).  For diag(E(s), 1) the curvature is
# -(sqrt(E))''/sqrt(E) = omega^2 c^2 / E^2, and removing the tangential
# part of the second partials by hand gives
# H = -c/(2 E) (sin t, cos t, 0, 0).

C0, OMEGA = 1.5, 2.0
TORUS = surface("elliptic56", "A", "1.5", "t", 0.5, 3.0, "t", "2*t")


def torus_expected(t, s):
    e = OMEGA ** 2 * s ** 2 - C0 ** 2
    k = (OMEGA * C0) ** 2 / e ** 2
    h = Vector4(-C0 / (2 * e) * math.sin(t), -C0 / (2 * e) * math.cos(t),
                0.0, 0.0)
    return k, h


def test_curvature_oracle_matches_independent_value():
    t, s = 0.3, 1.2
    k_true, h_true = torus_expected(t, s)
    report = curvature_report(TORUS, t, s)
    assert report.K_oracle == pytest.approx(k_true, abs=1e-5)
    for got, want in zip(report.H_oracle.components(), h_true.components()):
        assert got == pytest.approx(want, abs=1e-5)


def test_curvature_oracle_second_point():
    t, s = 1.1, 2.0
    k_true, h_true = torus_expected(t, s)
    report = curvature_report(TORUS, t, s)
    assert report.K_oracle == pytest.approx(k_true, abs=1e-5)
    for got, want in zip(report.H_oracle.components(), h_true.components()):
        assert got == pytest.approx(want, abs=1e-5)


# --- flat configurations ---------------------------------------------------
# Linear profiles kill the second closed-form curvature term; freezing one
# angle kills the first.  Each configuration is genuinely flat (the induced
# metric is diag(+-a(s)^2, const) with linear a).

FLAT_CASES = [
    # (surface, h4 vanishes too): linear profiles kill h4's numerator for
    # the boost-13/24 and spin families; the boost-14/23 h4 keeps
    # first-derivative terms
    (surface("hyperbolic14", "A", "2+t", "3+2*t", 0.1, 2.0, "1", "t"), True),
    (surface("hyperbolic23", "A", "2+t", "3+2*t", 0.1, 2.0, "t", "1"), False),
    (surface("elliptic56", "A", "1", "2+t", 0.1, 2.0, "1", "t"), True),
]


@pytest.mark.parametrize("srf,h4_zero", FLAT_CASES)
def test_flat_configurations(srf, h4_zero):
    for (t, s) in ((0.5, 0.8), (1.2, 1.5)):
        report = curvature_report(srf, t, s)
        assert report.K_formula == 0.0
        assert abs(report.K_oracle) <= 1e-6
        if h4_zero:
            assert report.h4 == 0.0


# --- convergence orders -----------------------------------------------------

CURVED = surface("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0,
                 "t/2", "t")


def test_oracle_richardson_order():
    t, s = 0.6, 1.0
    steps = (4e-3, 2e-3, 1e-3)
    values = [gaussian_curvature_fd(CURVED.induced_metric, t, s, h)
              for h in steps]
    first = abs(values[0] - values[1])
    second = abs(values[1] - values[2])
    order = math.log2(first / second)
    assert order >= 1.8


def test_mean_curvature_oracle_order():
    t, s = 0.3, 1.2
    _, h_true = torus_expected(t, s)
    errors = []
    for h in (8e-3, 4e-3, 2e-3):
        got = mean_curvature_fd(TORUS.point, TORUS.tangents, t, s, h)
        errors.append(max(abs(a - b) for a, b in
                          zip(got.components(), h_true.components())))
    assert math.log2(errors[0] / errors[1]) >= 1.8
    assert math.log2(errors[1] / errors[2]) >= 1.8


def test_oracle_self_consistency_at_default_step():
    t, s = 0.6, 1.0
    h = 1e-4 * (1.0 + abs(t) + abs(s))
    coarse = gaussian_curvature_fd(CURVED.induced_metric, t, s, h)
    fine = gaussian_curvature_fd(CURVED.induced_metric, t, s, h / 2)
    assert abs(coarse - fine) <= 1e-6


# --- normal frames ----------------------------------------------------------

FRAME_CASES = [
    # surface, expected (e3.e3, e4.e4)
    (surface("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0, "t/2", "t"),
     (1.0, -1.0)),
    (surface("hyperbolic23", "A", "2 + t/2", "1 + t/4", 0.1, 2.0, "t", "t/3"),
     (1.0, -1.0)),
    (surface("elliptic56", "A", "1 + t/8", "2 + t", 0.1, 2.0, "t/4", "t"),
     (-1.0, -1.0)),
]


@pytest.mark.parametrize("srf,signature", FRAME_CASES)
def test_frame_orthonormality_at_random_points(srf, signature):
    rng = random.Random(20260810)
    for _ in range(100):
        t = rng.uniform(0.15, 1.95)
        s = rng.uniform(0.15, 1.95)
        e3, e4 = normal_frame(srf, t, s)
        assert abs(inner(e3, e3) - signature[0]) <= 1e-10
        assert abs(inner(e4, e4) - signature[1]) <= 1e-10
        assert abs(inner(e3, e4)) <= 1e-10
        st, ss = srf.tangents(t, s)
        for normal in (e3, e4):
            assert abs(inner(normal, st)) <= 1e-10
            assert abs(inner(normal, ss)) <= 1e-10


def test_frame_degenerate_raises():
    # freezing the v-angle makes the first radicand negative here
    srf = surface("hyperbolic14", "A", "2+t", "3+2*t", 0.1, 2.0, "t", "1")
    with pytest.raises(FrameDegenerateError):
        normal_frame(srf, 0.7, 1.1)
    with pytest.raises(FrameDegenerateError):
        curvature_report(srf, 0.7, 1.1)


def test_degenerate_induced_metric_raises():
    # equal profile slopes make the s-direction null
    srf = surface("hyperbolic14", "A", "2+t", "3+t", 0.1, 2.0, "1", "t")
    with pytest.raises(DegenerateMetricError):
        gaussian_curvature_fd(srf.induced_metric, 0.7, 1.1, 1e-4)


# --- report structure -------------------------------------------------------

def test_report_decomposes_formula_vector():
    report = curvature_report(CURVED, 0.6, 1.0)
    rebuilt = report.e3 * report.h3 + report.e4 * report.h4
    for got, want in zip(report.H_formula.components(), rebuilt.components()):
        assert got == pytest.approx(want, abs=1e-12)
    assert report.K_gap == abs(report.K_formula - report.K_oracle)
    assert report.H_gap >= 0.0


def test_oracle_mean_curvature_is_normal():
    for srf, _ in FRAME_CASES:
        report = curvature_report(srf, 0.7, 1.3)
        st, ss = srf.tangents(0.7, 1.3)
        assert abs(inner(report.H_oracle, st)) <= 1e-8
        assert abs(inner(report.H_oracle, ss)) <= 1e-8


def test_gaps_are_reported_not_asserted():
    # the closed form disagrees with the oracle on this surface;
    # the report carries the discrepancy as data
    report = curvature_report(TORUS, 0.3, 1.2)
    assert report.K_gap > 1.0
    assert math.isfinite(report.H_gap)


def test_fd_step_validation():
    with pytest.raises(ValueError):
        curvature_report(TORUS, 0.3, 1.2, fd_step=0.0)
