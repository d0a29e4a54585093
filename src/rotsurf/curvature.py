"""Curvature of 2-surfaces traced by rotating a profile curve.

A ``DoubleRotationSurface`` immerses (t, s) -> family point at angles
(x(t), w(t)) and profile parameter s, i.e. both rotation angles follow a
path while s runs along the profile.  ``curvature_report`` puts two
computations side by side:

* closed-form values ``K_formula`` and ``H_formula = h3 e3 + h4 e4`` in
  each family's closed-form normal frame (these formulas are under
  audit: gaps are data, not failures);
* exact oracles: the family metric is diagonal, so the induced 2-metric
  is diag(E x'^2 + G w'^2, N), and ``K_oracle`` (Brioschi's formula) and
  ``H_oracle`` (the Gauss formula) are closed expressions in the profile
  and angle values and their first two derivatives at the point.

The finite-difference oracles ``gaussian_curvature_fd`` (Christoffel
symbols and the single independent curvature component of any 2-metric)
and ``mean_curvature_fd`` (second partials of the immersion with the
tangential part projected away) are the independent cross-check of the
exact oracles; they are not on the report path.

The induced 2-metric is a plain 2x2 tuple of floats, indexed g[i][j];
``_inverse`` is the one place its determinant and inverse are computed.

Profile and angle expressions are evaluated without the domain-interval
guard here, because central differences must straddle the evaluation
point; grid drivers keep the sample points themselves inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ambient import Vector4, inner
from .expressions import ProfileFunction
from .surfaces import DegenerateMetricError, SurfaceFamily, _turn

__all__ = [
    "DoubleRotationSurface",
    "CurvatureReport",
    "FrameDegenerateError",
    "normal_frame",
    "curvature_report",
    "gaussian_curvature_fd",
    "mean_curvature_fd",
]


class FrameDegenerateError(ValueError):
    """A normal-frame radicand was not strictly positive."""


def _gram(st: Vector4, ss: Vector4) -> tuple:
    """The 2-metric ((g00, g01), (g10, g11)) of the tangents (S_t, S_s)."""
    return ((inner(st, st), inner(st, ss)), (inner(ss, st), inner(ss, ss)))


@dataclass(frozen=True)
class DoubleRotationSurface:
    """A 2-surface (t, s) -> immersion(x(t), w(t), s) over one family."""

    family: SurfaceFamily
    angle_u: ProfileFunction
    angle_v: ProfileFunction

    def point(self, t: float, s: float) -> Vector4:
        fam = self.family
        return fam.immerse_values(fam.fa.evaluate(s, check=False),
                                  fam.fb.evaluate(s, check=False),
                                  self.angle_u.evaluate(t, check=False),
                                  self.angle_v.evaluate(t, check=False))

    def tangents(self, t: float, s: float) -> tuple[Vector4, Vector4]:
        """Exact tangent vectors (d/dt, d/ds) by the chain rule."""
        fam = self.family
        u = self.angle_u.evaluate(t, check=False)
        v = self.angle_v.evaluate(t, check=False)
        du = self.angle_u.derivative(t, check=False)
        dv = self.angle_v.derivative(t, check=False)
        frame = fam.frame_values(fam.fa.evaluate(s, check=False),
                                 fam.fb.evaluate(s, check=False),
                                 fam.fa.derivative(s, check=False),
                                 fam.fb.derivative(s, check=False), u, v)
        tangent_t = frame[0] * du + frame[1] * dv
        tangent_s = frame[2]
        return tangent_t, tangent_s

    def induced_metric(self, t: float, s: float) -> tuple:
        return _gram(*self.tangents(t, s))

    def _frame_scalars(self, t: float, s: float) -> dict[str, float]:
        """Profile and angle values at (t, s), with both normal-frame
        radicands (``rad3``, ``rad4``) and their roots (``q3``, ``q4``).

        Both radicands must be strictly positive, else the closed-form
        normal frame does not exist and ``FrameDegenerateError`` is raised.
        """
        fam = self.family
        c = {
            "fa": fam.fa.evaluate(s, check=False),
            "fb": fam.fb.evaluate(s, check=False),
            "dfa": fam.fa.derivative(s, check=False),
            "dfb": fam.fb.derivative(s, check=False),
            "d2fa": fam.fa.second_derivative(s, check=False),
            "d2fb": fam.fb.second_derivative(s, check=False),
            "x": self.angle_u.evaluate(t, check=False),
            "w": self.angle_v.evaluate(t, check=False),
            "dx": self.angle_u.derivative(t, check=False),
            "dw": self.angle_v.derivative(t, check=False),
            "d2x": self.angle_u.second_derivative(t, check=False),
            "d2w": self.angle_v.second_derivative(t, check=False),
        }
        rad3, rad4 = fam.spec.radicands(**c)
        if rad3 <= 0.0 or rad4 <= 0.0:
            raise FrameDegenerateError(
                f"normal frame degenerate at t={t!r}, s={s!r} "
                f"(radicands {rad3!r}, {rad4!r})")
        c.update(rad3=rad3, rad4=rad4, q3=math.sqrt(rad3), q4=math.sqrt(rad4))
        return c


def normal_frame(surface: DoubleRotationSurface, t: float,
                 s: float) -> tuple[Vector4, Vector4]:
    """The closed-form unit normals (e3, e4) of the surface.

    Both radicands must be strictly positive; e3/e4 are then unit vectors
    (spacelike or timelike depending on the family) orthogonal to the
    surface tangents and to each other.
    """
    return surface.family.spec.normal_frame(**surface._frame_scalars(t, s))


def _inverse(g, t: float) -> tuple[tuple, float]:
    """Inverse and determinant of a 2-metric ``g`` (indexed g[i][j]);
    a zero determinant raises ``DegenerateMetricError``."""
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if det == 0.0:
        raise DegenerateMetricError(t, which="induced 2-metric")
    return ((g[1][1] / det, -g[0][1] / det),
            (-g[1][0] / det, g[0][0] / det)), det


# ---------------------------------------------------------------------------
# finite-difference oracles

def _central(plus, minus, h: float):
    """Central difference of two 2-metrics, entry by entry."""
    return [[(plus[i][j] - minus[i][j]) / (2.0 * h) for j in range(2)]
            for i in range(2)]


def _shifts(t: float, s: float, h: float) -> tuple:
    """The four neighbours (t+h, s), (t-h, s), (t, s+h), (t, s-h)."""
    return ((t + h, s), (t - h, s), (t, s + h), (t, s - h))


def _around(metric_fn, t: float, s: float, h: float) -> list:
    """The metric at the four ``_shifts`` of (t, s)."""
    return [metric_fn(*point) for point in _shifts(t, s, h)]


def _christoffel(g, near, t: float, h: float):
    """Gamma[a][b][c] of a 2-metric whose value at (t, s) is ``g`` and at
    the ``_shifts`` of (t, s) is ``near``, metric derivatives by central
    differences of step h (coordinate 0 is t, coordinate 1 is s)."""
    dg = (_central(near[0], near[1], h), _central(near[2], near[3], h))
    ginv, _ = _inverse(g, t)
    gamma = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                total = 0.0
                for d in range(2):
                    total += ginv[a][d] * (dg[b][d][c] + dg[c][b][d] - dg[d][b][c])
                gamma[a][b][c] = 0.5 * total
    return gamma


def gaussian_curvature_fd(metric_fn, t: float, s: float, h: float) -> float:
    """Intrinsic curvature of a 2-metric from the single independent
    curvature component: K = R_0101 / det(g), all derivatives by central
    differences of step ``h``.  Works for either metric signature;
    ``metric_fn(t, s)`` returns the metric indexed as g[i][j]."""
    g = metric_fn(t, s)
    _, det = _inverse(g, t)
    near = _around(metric_fn, t, s, h)
    gamma = _christoffel(g, near, t, h)
    # the centre's neighbours are the centres of the four shifted symbols
    t_plus, t_minus, s_plus, s_minus = [
        _christoffel(g_near, _around(metric_fn, tn, sn, h), tn, h)
        for g_near, (tn, sn) in zip(near, _shifts(t, s, h))]
    # R^l_{101} = d_0 Gamma^l_{11} - d_1 Gamma^l_{01} + quadratic terms
    riemann = []
    for l in range(2):
        quad = 0.0
        for m in range(2):
            quad += (gamma[l][0][m] * gamma[m][1][1]
                     - gamma[l][1][m] * gamma[m][0][1])
        riemann.append((t_plus[l][1][1] - t_minus[l][1][1]) / (2.0 * h)
                       - (s_plus[l][0][1] - s_minus[l][0][1]) / (2.0 * h)
                       + quad)
    r_0101 = g[0][0] * riemann[0] + g[0][1] * riemann[1]
    return r_0101 / det


def mean_curvature_fd(point_fn, tangents_fn, t: float, s: float,
                      h: float) -> Vector4:
    """Mean curvature vector: half the metric trace of the second partials
    of the immersion, with the tangential part projected away.

    Second partials use central differences of step ``h``; tangents and
    the induced metric come from ``tangents_fn`` exactly, so the result is
    independent of any closed-form normal frame.
    """
    st, ss = tangents_fn(t, s)
    ginv, _ = _inverse(_gram(st, ss), t)

    center = point_fn(t, s)
    stt = (point_fn(t + h, s) - 2.0 * center + point_fn(t - h, s)) / (h * h)
    sss = (point_fn(t, s + h) - 2.0 * center + point_fn(t, s - h)) / (h * h)
    sts = (point_fn(t + h, s + h) - point_fn(t + h, s - h)
           - point_fn(t - h, s + h) + point_fn(t - h, s - h)) / (4.0 * h * h)

    trace = (stt * ginv[0][0] + sss * ginv[1][1]
             + sts * (ginv[0][1] + ginv[1][0])) * 0.5
    # remove the tangential projection g^{ab} <trace, S_a> S_b
    trace_st, trace_ss = inner(trace, st), inner(trace, ss)
    coeff0 = ginv[0][0] * trace_st + ginv[0][1] * trace_ss
    coeff1 = ginv[1][0] * trace_st + ginv[1][1] * trace_ss
    return trace - (st * coeff0 + ss * coeff1)


# ---------------------------------------------------------------------------
# exact oracles

def _plane_part(rotation, angle: float, pos: int, along_block: float,
                along_deriv: float) -> tuple[float, float]:
    """``along_block`` times column ``pos`` of ``rotation.block(angle)``
    plus ``along_deriv`` times that column of its angle derivative."""
    r = _turn(rotation.block(angle), pos, along_block)
    dr = _turn(rotation.block_deriv(angle), pos, along_deriv)
    return (r[0] + dr[0], r[1] + dr[1])


def _exact_oracles(lay, t: float, fa, fb, dfa, dfb, d2fa, d2fb, x, w, dx, dw,
                   d2x, d2w, **_) -> tuple[float, Vector4]:
    """Exact (K, H) of the surface at one point, from the profile values at
    s and the angle values at t (``_frame_scalars``' keywords).

    The family metric is diag(E, G, N)(s) in (u, v, s), so the induced
    2-metric is diag(P, Q) with P = E x'^2 + G w'^2 and Q = N.  With no
    off-diagonal term and Q free of t, Brioschi's formula reduces to

        K = (-P_ss P Q / 2 + P P_s Q_s / 4 + P_s^2 Q / 4) / (P Q)^2.

    H is half the trace of the second fundamental form (Gauss formula),
    H = g^tt (S_tt - Gamma^a_tt S_a) / 2 + g^ss (S_ss - Gamma^a_ss S_a) / 2,
    with Gamma^t_tt = P_t / 2P, Gamma^s_tt = -P_s / 2Q, Gamma^t_ss = 0 and
    Gamma^s_ss = Q_s / 2Q.  In each rotation plane, S_t, S_tt, S_s and
    S_ss are combinations of the profile column of the rotation block R
    and of R' (R'' = R for a boost, -R for a spin; the two planes do not
    mix, so S_tt has no u-v cross term), so H is assembled plane by plane.
    """
    e, g = lay.e_sign * fa * fa, lay.g_sign * fb * fb
    dx2, dw2 = dx * dx, dw * dw
    p = e * dx2 + g * dw2
    p_t = 2.0 * (e * dx * d2x + g * dw * d2w)
    p_s = 2.0 * (lay.e_sign * fa * dfa * dx2 + lay.g_sign * fb * dfb * dw2)
    p_ss = 2.0 * (lay.e_sign * (dfa * dfa + fa * d2fa) * dx2
                  + lay.g_sign * (dfb * dfb + fb * d2fb) * dw2)
    q = lay.na_sign * dfa * dfa + lay.nb_sign * dfb * dfb
    q_s = 2.0 * (lay.na_sign * dfa * d2fa + lay.nb_sign * dfb * d2fb)
    ginv, det = _inverse(((p, 0.0), (0.0, q)), t)
    k = (-0.5 * p_ss * p * q + 0.25 * p * p_s * q_s
         + 0.25 * p_s * p_s * q) / (det * det)

    # H = a S_tt + b S_ss + c_t S_t + c_s S_s
    g_tt, g_ss = ginv[0][0], ginv[1][1]
    a, b = 0.5 * g_tt, 0.5 * g_ss
    c_t = -0.25 * g_tt * g_tt * p_t
    c_s = 0.25 * g_ss * (g_tt * p_s - g_ss * q_s)
    rot_u, rot_v = lay.rot_u, lay.rot_v
    sign_u = 1.0 if rot_u.hyperbolic else -1.0
    sign_v = 1.0 if rot_v.hyperbolic else -1.0
    h_u = _plane_part(rot_u, x, lay.fa_pos,
                      a * sign_u * dx2 * fa + b * d2fa + c_s * dfa,
                      (a * d2x + c_t * dx) * fa)
    h_v = _plane_part(rot_v, w, lay.fb_pos,
                      a * sign_v * dw2 * fb + b * d2fb + c_s * dfb,
                      (a * d2w + c_t * dw) * fb)
    return k, lay.vector(h_u, h_v)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureReport:
    """Closed-form versus oracle curvature at one (t, s) point.

    ``K_gap`` and ``H_gap`` are reported discrepancies, not assertions:
    the closed forms are under numerical audit.
    """

    K_formula: float
    K_oracle: float
    h3: float
    h4: float
    e3: Vector4
    e4: Vector4
    H_formula: Vector4
    H_oracle: Vector4
    K_gap: float
    H_gap: float


def curvature_report(surface: DoubleRotationSurface, t: float,
                     s: float) -> CurvatureReport:
    """Evaluate closed forms and exact oracles at (t, s) and report the gaps."""
    c = surface._frame_scalars(t, s)
    spec = surface.family.spec
    k_formula, h3, h4 = spec.closed_forms(**c)
    e3, e4 = spec.normal_frame(**c)
    h_formula = e3 * h3 + e4 * h4
    k_oracle, h_oracle = _exact_oracles(surface.family.layout, t, **c)
    delta = h_formula - h_oracle
    h_gap = max(abs(x) for x in delta.components())
    return CurvatureReport(
        K_formula=k_formula,
        K_oracle=k_oracle,
        h3=h3,
        h4=h4,
        e3=e3,
        e4=e4,
        H_formula=h_formula,
        H_oracle=h_oracle,
        K_gap=abs(k_formula - k_oracle),
        H_gap=h_gap,
    )
