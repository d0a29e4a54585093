"""Closed-form curvature versus the exact and finite-difference oracles."""

import importlib.util
import math
import pathlib
import pickle
import random

import mpmath
import numpy as np
import pytest
import sympy as sp

from rotsurf import (DegenerateMetricError, DomainError,
                     DoubleRotationSurface, FrameDegenerateError,
                     ProfileFunction, Vector4, curvature_grid,
                     curvature_report, gaussian_curvature_fd, inner,
                     make_family, mean_curvature_fd, normal_frame)
from rotsurf.curvature import GridPointError
from rotsurf.config import ConfigError, parse_config


def profile(text, lo=-10.0, hi=10.0):
    return ProfileFunction.from_text(text, lo, hi)


def surface(kind, variant, fa, fb, lo, hi, angle_u, angle_v):
    fam = make_family(kind, variant, fa, fb, lo, hi)
    return DoubleRotationSurface(fam, profile(angle_u), profile(angle_v))


def assert_gaps_small(report):
    """The closed forms agree with the exact oracles to 1e-9, relative to
    max(1, |K_oracle|) and max(1, max |H_oracle|)."""
    assert report.K_gap <= 1e-9 * max(1.0, abs(report.K_oracle))
    scale = max(1.0, max(abs(x) for x in report.H_oracle.components()))
    assert report.H_gap <= 1e-9 * scale


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
    # the centre metric and its 4 neighbours feed the centre Christoffel
    # symbols; each neighbour is the centre of one shifted evaluation,
    # which reads 4 more: 1 + 4 + 4 * 4 = 21
    calls = []

    def metric(t, s):
        calls.append((t, s))
        return ((1.0, 0.0), (0.0, math.sin(t) ** 2))

    k = gaussian_curvature_fd(metric, 0.8, 0.3, 1e-4)
    assert len(calls) == 21
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
    assert report.K_oracle == pytest.approx(k_true, abs=1e-12)
    for got, want in zip(report.H_oracle.components(), h_true.components()):
        assert got == pytest.approx(want, abs=1e-12)


def test_curvature_oracle_second_point():
    t, s = 1.1, 2.0
    k_true, h_true = torus_expected(t, s)
    report = curvature_report(TORUS, t, s)
    assert report.K_oracle == pytest.approx(k_true, abs=1e-12)
    for got, want in zip(report.H_oracle.components(), h_true.components()):
        assert got == pytest.approx(want, abs=1e-12)


# --- flat configurations ---------------------------------------------------
# Linear profiles kill B4 = <S_ss, e4~>; freezing one angle kills
# C3 = <S_ts, e3~>, so the closed-form K is exactly zero.  Each
# configuration is genuinely flat (the induced metric is
# diag(+-a(s)^2, const) with linear a).  Freezing an angle also puts e3 in
# the plane of the frozen rotation: the other plane's part of e3~ carries
# the frozen angle's derivative as a factor.

FLAT_CASES = [
    # (surface, the frozen angle is the u-angle)
    (surface("hyperbolic14", "A", "2+t", "3+2*t", 0.1, 2.0, "1", "t"), True),
    (surface("hyperbolic23", "A", "2+t", "3+2*t", 0.1, 2.0, "t", "1"), False),
    (surface("elliptic56", "A", "1", "2+t", 0.1, 2.0, "1", "t"), True),
]


@pytest.mark.parametrize("srf,u_frozen", FLAT_CASES)
def test_flat_configurations(srf, u_frozen):
    lay = srf.family.spec
    off_plane = lay.plane_v if u_frozen else lay.plane_u
    for (t, s) in ((0.5, 0.8), (1.2, 1.5)):
        report = curvature_report(srf, t, s)
        assert report.K_formula == 0.0
        assert abs(report.K_oracle) <= 1e-6
        assert_gaps_small(report)
        e3 = report.e3.components()
        assert [e3[i] for i in off_plane] == [0.0, 0.0]


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
    # surface, expected (e3.e3, e4.e4), or None where they change sign
    # over the sampled box
    (surface("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0, "t/2", "t"),
     (1.0, -1.0)),
    (surface("hyperbolic23", "A", "2 + t/2", "1 + t/4", 0.1, 2.0, "t", "t/3"),
     (1.0, -1.0)),
    (surface("elliptic56", "A", "1 + t/8", "2 + t", 0.1, 2.0, "t/4", "t"),
     (-1.0, -1.0)),
    # the B surfaces of EXACT_CASES
    (surface("hyperbolic14", "B", "1 + t/4", "2 + t^2/4", 0.1, 2.0, "t/3",
             "t"), None),
    (surface("hyperbolic23", "B", "2 + t/sqrt(2)", "1 + t/sqrt(2)", 0.1, 2.0,
             "t/2", "sin(t)"), (-1.0, 1.0)),
    (surface("elliptic56", "B", "1 + t/8", "2 + t^2/4", 0.1, 2.0, "t/4", "t"),
     None),
]


@pytest.mark.parametrize("srf,signature", FRAME_CASES)
def test_frame_orthonormality_at_random_points(srf, signature):
    rng = random.Random(20260810)
    for _ in range(100):
        t = rng.uniform(0.15, 1.95)
        s = rng.uniform(0.15, 1.95)
        e3, e4 = normal_frame(srf, t, s)
        st, ss = srf.tangents(t, s)
        expected = signature
        if signature is None:
            # the law of inertia: an orthogonal basis of (-, -, +, +) has
            # two timelike vectors
            squares = [inner(v, v) for v in (st, ss, e3, e4)]
            assert sum(x < 0.0 for x in squares) == 2
            expected = (math.copysign(1.0, squares[2]),
                        math.copysign(1.0, squares[3]))
        assert abs(inner(e3, e3) - expected[0]) <= 1e-10
        assert abs(inner(e4, e4) - expected[1]) <= 1e-10
        assert abs(inner(e3, e4)) <= 1e-10
        for normal in (e3, e4):
            assert abs(inner(normal, st)) <= 1e-10
            assert abs(inner(normal, ss)) <= 1e-10


def test_frame_degenerate_raises():
    # a null normal: e3~ is null where P = 0, e4~ where Q = 0
    for fb, angle_u, angle_v in (
            ("2+t", "t", "t"),       # fa = fb and x = w: P = Q = 0
            ("4+2*t", "t", "t/2"),   # fb w' = fa x': P = 0, Q = 3
            # fa' = fb': Q = 0, reported before cosh(1000) overflows
            ("2+t", "t", "1000")):
        srf = surface("hyperbolic14", "A", "2+t", fb, 0.1, 2.0, angle_u,
                      angle_v)
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


def test_closed_forms_match_the_torus_oracles():
    for t, s in ((0.3, 1.2), (1.1, 2.0)):
        assert_gaps_small(curvature_report(TORUS, t, s))


def test_fd_step_is_an_unknown_key():
    # the exact oracles take no step, so a config that sets one is refused
    document = {"family": "elliptic56", "profiles": {"fa": "1.5", "fb": "t"},
                "domain": [0.5, 3.0],
                "curvature": {"xAngle": "t", "vAngle": "2*t",
                              "fd_step": 1e-4}}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document)
    assert excinfo.value.field == "curvature.fd_step"
    assert str(excinfo.value) == "curvature.fd_step: unknown key"


# --- the exact oracles ------------------------------------------------------
# bench/reference.py rebuilds each family's immersion without rotsurf; sympy
# pulls the 4-space metric back to (t, s) and applies Brioschi's formula.

_REFERENCE_PATH = (pathlib.Path(__file__).resolve().parent.parent
                   / "bench" / "reference.py")
_spec = importlib.util.spec_from_file_location("bench_reference",
                                               _REFERENCE_PATH)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# one surface per (family, variant), with P and Q nonzero at every point
EXACT_CASES = [
    ("hyperbolic14", "A", "2 + t^2/8", "3 + t", "t/2", "t"),
    ("hyperbolic14", "B", "1 + t/4", "2 + t^2/4", "t/3", "t"),
    ("hyperbolic23", "A", "2 + t^2/8", "1 + t/sqrt(2)", "t", "t/3"),
    ("hyperbolic23", "B", "2 + t/sqrt(2)", "1 + t/sqrt(2)", "t/2", "sin(t)"),
    ("elliptic56", "A", "1 + t/8", "2 + t^2/2", "t/4", "t/2"),
    ("elliptic56", "B", "1 + t/8", "2 + t^2/4", "t/4", "t"),
]
EXACT_POINTS = [(t, s) for t in (0.7, 1.1, 1.6) for s in (0.7, 1.1, 1.6)]


def brioschi_k(kind, variant, fa, fb, angle_u, angle_v):
    """K(t, s) from sympy's Brioschi formula on the immersion, evaluated
    with 30 significant digits."""
    t, s = reference.T, reference.S
    immersed = reference.immersion(kind, variant).subs(
        {reference._FA: reference.profile_expr(fa, s),
         reference._FB: reference.profile_expr(fb, s)}).doit()
    immersed = immersed.subs({reference.U: reference.profile_expr(angle_u),
                              reference.V: reference.profile_expr(angle_v)})
    st, ss = immersed.diff(t), immersed.diff(s)
    e, f, g = [(a.T * reference.ETA * b)[0]
               for a, b in ((st, st), (st, ss), (ss, ss))]
    fn = sp.lambdify((t, s), reference.brioschi(e, f, g, t, s), "mpmath")

    def k(t_value, s_value):
        with mpmath.workdps(30):
            return float(fn(mpmath.mpf(t_value), mpmath.mpf(s_value)))
    return k


@pytest.mark.parametrize("case", EXACT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_exact_k_matches_sympy_brioschi(case):
    srf = surface(case[0], case[1], case[2], case[3], 0.1, 2.0, case[4],
                  case[5])
    k_exact = brioschi_k(*case)
    for t, s in EXACT_POINTS:
        k = k_exact(t, s)
        assert abs(curvature_report(srf, t, s).K_oracle - k) \
            <= 1e-12 * max(1.0, abs(k))


@pytest.mark.parametrize("case", EXACT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_exact_oracles_match_finite_differences(case):
    srf = surface(case[0], case[1], case[2], case[3], 0.1, 2.0, case[4],
                  case[5])
    for t, s in EXACT_POINTS:
        h = 1e-4 * (1.0 + abs(t) + abs(s))  # as in the self-consistency test
        report = curvature_report(srf, t, s)
        k_fd = gaussian_curvature_fd(srf.induced_metric, t, s, h)
        assert abs(report.K_oracle - k_fd) \
            <= 1e-6 * max(1.0, abs(report.K_oracle))
        h_fd = mean_curvature_fd(srf.point, srf.tangents, t, s, h)
        exact = report.H_oracle.components()
        scale = max(1.0, max(abs(x) for x in exact))
        for got, want in zip(exact, h_fd.components()):
            assert abs(got - want) <= 1e-6 * scale


@pytest.mark.parametrize("case", EXACT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_closed_forms_match_exact_oracles(case):
    srf = surface(case[0], case[1], case[2], case[3], 0.1, 2.0, case[4],
                  case[5])
    for t, s in EXACT_POINTS:
        assert_gaps_small(curvature_report(srf, t, s))


def erratum_forms(kind, fa, fb, dfa, dfb, d2fa, d2fb, dx, dw, d2x, d2w):
    """The corrected (K, h3, h4) of README.md's erratum table, variant A,
    in the family's radicands; None where a radicand is not positive."""
    d = dfa * fb - fa * dfb
    w = dfa * d2fb - d2fa * dfb
    m = dfa * fb * dw * dw - fa * dfb * dx * dx
    if kind == "hyperbolic23":
        rad3, rad4 = fb * fb * dw * dw + fa * fa * dx * dx, dfa ** 2 + dfb ** 2
    else:
        rad3, rad4 = fb * fb * dw * dw - fa * fa * dx * dx, dfb ** 2 - dfa ** 2
    if rad3 <= 0.0 or rad4 <= 0.0:
        return None
    k = (d * d * (dx * dw) ** 2 / rad3 + m * w / rad4) / (rad3 * rad4)
    h3 = fa * fb * (dx * d2w - d2x * dw) / (2.0 * rad3 ** 1.5)
    h4 = (m / rad3 - w / rad4) / (2.0 * math.sqrt(rad4))
    if kind != "hyperbolic14":
        h3 = -h3
    if kind == "hyperbolic23":
        h4 = -h4
    return k, h3, h4


@pytest.mark.parametrize("kind,variant", [
    (kind, variant) for kind in ("hyperbolic14", "hyperbolic23", "elliptic56")
    for variant in "AB"])
def test_closed_forms_match_exact_oracles_at_random_draws(kind, variant):
    # random quadratic profiles and angles, one random point each; on
    # variant A, where both radicands are positive, the README's erratum
    # table gives the same K, h3 and h4
    rng = random.Random(f"{kind}-{variant}")

    def quadratic(c0):
        return (f"{c0 + rng.uniform(0.5, 2.0)!r} + {rng.uniform(-1, 1)!r}*t"
                f" + {rng.uniform(-0.5, 0.5)!r}*t^2")

    erratum_checked = 0
    for _ in range(40):
        srf = surface(kind, variant, quadratic(1.0), quadratic(1.0), 0.1,
                      2.0, quadratic(-1.0), quadratic(-1.0))
        t, s = rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8)
        report = curvature_report(srf, t, s)
        assert_gaps_small(report)
        forms = erratum_forms(kind, *srf._profile_values(s),
                              *srf._angle_values(t)[2:])
        if variant == "A" and forms is not None:
            for want, got in zip(forms, (report.K_formula, report.h3,
                                         report.h4)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            erratum_checked += 1
    assert variant == "B" or erratum_checked >= 5


def test_exact_k_vanishes_on_h23_audit_surface():
    # sympy's K is 0 on this surface, where the printed closed form stays
    # near -0.027 (README.md's erratum table)
    srf = surface("hyperbolic23", "A", "2 + t/2", "1 + t/4", 0.1, 2.0,
                  "t", "t/3")
    for i in range(6):
        for j in range(6):
            report = curvature_report(srf, 0.2 + 1.6 * i / 5,
                                      0.2 + 1.6 * j / 5)
            assert abs(report.K_oracle) <= 1e-12


# --- the grid kernel --------------------------------------------------------

GRIDS = {"3x4": ((0.7, 1.1, 1.6), (0.7, 0.9, 1.1, 1.6)),
         "1x1": ((1.1,), (0.9,))}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("case", EXACT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_grid_matches_per_point_reports(case, grid):
    srf = surface(case[0], case[1], case[2], case[3], 0.1, 2.0, case[4],
                  case[5])
    ts, ss = GRIDS[grid]
    expected = []
    for t in ts:
        for s in ss:
            r = curvature_report(srf, t, s)
            expected.append((t, s, r.K_formula, r.K_oracle, r.K_gap, r.h3,
                             r.h4, r.H_gap))
    rows = curvature_grid(srf, ts, ss)
    assert [[float.hex(v) for v in row] for row in rows] == \
        [[float.hex(v) for v in row] for row in expected]


def test_grid_locates_the_first_failing_point():
    # P = (2 + s)^2 - (2 s)^2 vanishes at s = 2 only: e3~ is null there
    srf = surface("hyperbolic14", "A", "2+t", "2*t", 0.1, 2.0, "t", "t")
    with pytest.raises(GridPointError) as excinfo:
        curvature_grid(srf, (1.5, 0.7), (1.8, 2.0))
    assert (excinfo.value.t, excinfo.value.s) == (1.5, 2.0)
    assert isinstance(excinfo.value.error, FrameDegenerateError)


def _reports_or_first_failure(srf, ts, ss):
    """The grid's rows from ``curvature_report`` in row-major order, or
    (t, s, error) of the first point it fails at."""
    rows = []
    for t in ts:
        for s in ss:
            try:
                r = curvature_report(srf, t, s)
            except (FrameDegenerateError, DomainError) as exc:
                return t, s, exc
            rows.append((t, s, r.K_formula, r.K_oracle, r.K_gap, r.h3, r.h4,
                         r.H_gap))
    return rows


def _random_grid_case(rng, kind, variant):
    """A random surface on [0.1, 2] and a grid of up to 4 x 4 points that
    may cross P = 0 or Q = 0, the domain edges, and overflows of a profile
    (exp(400 t) past t = 1.77) or of a rotation block (cosh(1000 t))."""
    def poly():
        return (f"{rng.uniform(0.5, 3.0)!r} + {rng.uniform(-1.0, 1.0)!r}*t"
                f" + {rng.uniform(-0.5, 0.5)!r}*t^2")

    texts = [poly(), poly(), poly(), poly()]  # fa, fb, angle_u, angle_v
    special = rng.randrange(12)
    if special == 0:    # P = 16 (e + g) at s = 2: 0 where e g < 0
        texts = ["2+t", "2*t", "t", "t"]
    elif special == 1:  # Q = na + nb: 0 where na nb < 0
        texts[:2] = ["2+t", "3+t"]
    elif special == 2:  # fixed angles: P = 0
        texts[2:] = ["0.5", "1"]
    elif special == 3:  # fixed profiles: Q = 0
        texts[:2] = ["2", "3"]
    elif special == 4:
        texts[rng.randrange(4)] = "exp(400*t)"
    elif special == 5:
        texts[rng.randrange(2, 4)] = "1000*t"
    fam = make_family(kind, variant, texts[0], texts[1], 0.1, 2.0)
    angles = [profile(text, 0.1, 2.0) if rng.random() < 0.5
              else profile(text) for text in texts[2:]]
    pool = [0.05, 0.1, 0.7, 1.3, 1.75, 1.8, 2.0, 2.05]
    grid = [[rng.choice(pool) if rng.random() < 0.1 else rng.uniform(0.1, 2.0)
             for _ in range(rng.randint(1, 4))] for _ in range(2)]
    return DoubleRotationSurface(fam, *angles), *grid


@pytest.mark.parametrize("kind,variant", [
    (kind, variant) for kind in ("hyperbolic14", "hyperbolic23", "elliptic56")
    for variant in "AB"])
def test_grid_errors_are_the_first_failing_reports(kind, variant):
    # 200 seeded (surface, grid) cases per pair, 1,200 in all: the grid
    # fails where the first report does, with its message, or its rows are
    # the reports' bit for bit
    rng = random.Random(f"grid-{kind}-{variant}")
    seen = set()
    for _ in range(200):
        srf, ts, ss = _random_grid_case(rng, kind, variant)
        expected = _reports_or_first_failure(srf, ts, ss)
        if isinstance(expected, list):
            rows = curvature_grid(srf, ts, ss)
            assert [[float.hex(v) for v in row] for row in rows] == \
                [[float.hex(v) for v in row] for row in expected]
            seen.add("passed")
            continue
        t, s, error = expected
        with pytest.raises(GridPointError) as excinfo:
            curvature_grid(srf, ts, ss)
        got = excinfo.value
        assert (got.t, got.s, type(got.error), str(got.error)) == \
            (t, s, type(error), str(error))
        seen.add("degenerate" if isinstance(error, FrameDegenerateError)
                 else "outside" if "outside" in str(error) else "overflow")
    assert seen == {"passed", "degenerate", "outside", "overflow"}


def test_profile_error_comes_before_angle_error():
    # both the profile at s and the angle at t fail: the profile's error
    # is raised, by the report, the frame and the grid alike
    srf = surface("hyperbolic14", "A", "2 + log(t - 0.5)", "3 + t", 0.1, 2.0,
                  "sqrt(t - 0.5)", "t")
    for call in (curvature_report, normal_frame):
        with pytest.raises(DomainError, match="log of a non-positive"):
            call(srf, 0.3, 0.3)
    with pytest.raises(GridPointError, match="log of a non-positive"):
        curvature_grid(srf, (0.3,), (0.3,))


def test_points_outside_the_domains_are_rejected():
    # s must lie in the family profiles' domain and t in both angles'; at
    # (50, -40) the report once read K_formula 9.04e-09
    fam = make_family("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0)
    srf = DoubleRotationSurface(fam, profile("t/2", 0.1, 2.0),
                                profile("t", 0.1, 1.5))
    outside = "t={} outside profile domain \\[0.1, {}\\]"
    for (t, s), message in (((50.0, -40.0), outside.format(-40.0, 2.0)),
                            ((50.0, 1.0), outside.format(50.0, 2.0)),
                            ((1.8, 1.0), outside.format(1.8, 1.5)),
                            ((1.0, math.nan), outside.format("nan", 2.0))):
        for call in (curvature_report, normal_frame):
            with pytest.raises(DomainError, match=message):
                call(srf, t, s)
        with pytest.raises(GridPointError, match=message) as excinfo:
            curvature_grid(srf, (1.0, t), (1.0, s))
        assert isinstance(excinfo.value.error, DomainError)
        # the first point in row-major order that needs the value
        assert (excinfo.value.t, excinfo.value.s) == (
            (1.0, s) if s != 1.0 else (t, 1.0))
    # the ends are inside; the finite-difference oracles' tangents are
    # not guarded, since central differences straddle the point
    curvature_report(srf, 1.5, 0.1)
    normal_frame(srf, 0.1, 2.0)
    srf.induced_metric(50.0, -40.0)


def test_overflow_is_a_domain_error():
    # cosh(1000 t) overflows in the rotation block of the v-angle
    srf = surface("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0,
                  "t/2", "1000*t")
    for call in (curvature_report, normal_frame):
        with pytest.raises(DomainError, match="cosh overflow"):
            call(srf, 0.8, 0.5)
    # cosh(w) is finite, but fa x' / sqrt|P| cosh(w) in e3 is not: P is
    # small, fb w' is close to fa x'
    srf = surface("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0,
                  "t", "t/2 + 709")
    with pytest.raises(DomainError, match="curvature overflow"):
        curvature_report(srf, 1.05, 1.05)
    with pytest.raises(ValueError, match="must be finite"):
        normal_frame(srf, 1.05, 1.05)
    # fb^2 w'^2 in P overflows, so the frame has no finite P Q
    srf = surface("hyperbolic14", "A", "2 + t^2/8", "1e160*(3 + t)", 0.1,
                  2.0, "t/2", "t")
    for call in (curvature_report, normal_frame):
        with pytest.raises(DomainError, match="curvature overflow"):
            call(srf, 0.7, 0.9)
    # the frame is finite, but A3 = e fa fb (x'' w' - x' w'') is not, at
    # t = 1 where x' = 1 and x'' = 2e307
    srf = surface("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0,
                  "t + 1e307*(t - 1)^2", "3*t")
    normal_frame(srf, 1.0, 1.0)
    with pytest.raises(DomainError, match="curvature overflow"):
        curvature_report(srf, 1.0, 1.0)


def test_surface_pickles_after_grid():
    # a surface holds nothing but its fields, so a grid run leaves it equal
    # to a fresh one and picklable
    srf = surface(*EXACT_CASES[0][:4], 0.1, 2.0, *EXACT_CASES[0][4:])
    fresh = surface(*EXACT_CASES[0][:4], 0.1, 2.0, *EXACT_CASES[0][4:])
    rows = curvature_grid(srf, (0.7, 1.1), (0.9,))
    assert srf == fresh and repr(srf) == repr(fresh)
    assert hash(srf) == hash(fresh)
    restored = pickle.loads(pickle.dumps(srf))
    assert restored == fresh
    assert curvature_grid(restored, (0.7, 1.1), (0.9,)) == rows
