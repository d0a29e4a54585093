"""Curvature of 2-surfaces traced by rotating a profile curve.

A ``DoubleRotationSurface`` immerses (t, s) -> family point at angles
(x(t), w(t)) and profile parameter s, i.e. both rotation angles follow a
path while s runs along the profile.  Two independent computations are
reported side by side:

* closed-form values ``K_formula`` and ``H_formula = h3 e3 + h4 e4`` in
  each family's closed-form normal frame (these formulas are under
  audit: gaps are data, not failures);
* finite-difference oracles: intrinsic ``K_oracle`` from the induced
  2-metric via Christoffel symbols and the single independent curvature
  component, and ``H_oracle`` from second partials of the immersion with
  the tangential part projected away.

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
from .surfaces import DegenerateMetricError, SurfaceFamily

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


# ---------------------------------------------------------------------------
# finite-difference oracles

def _inverse(g, t: float) -> tuple[tuple, float]:
    """Inverse and determinant of a 2-metric ``g`` (indexed g[i][j]);
    a zero determinant raises ``DegenerateMetricError``."""
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if det == 0.0:
        raise DegenerateMetricError(t, which="induced 2-metric")
    return ((g[1][1] / det, -g[0][1] / det),
            (-g[1][0] / det, g[0][0] / det)), det


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


def default_fd_step(t: float, s: float) -> float:
    return 1e-4 * (1.0 + abs(t) + abs(s))


def curvature_report(surface: DoubleRotationSurface, t: float, s: float,
                     fd_step: float | None = None) -> CurvatureReport:
    """Evaluate closed forms and oracles at (t, s) and report the gaps."""
    h = default_fd_step(t, s) if fd_step is None else fd_step
    if h <= 0.0:
        raise ValueError("fd_step must be > 0")
    c = surface._frame_scalars(t, s)
    spec = surface.family.spec
    k_formula, h3, h4 = spec.closed_forms(**c)
    e3, e4 = spec.normal_frame(**c)
    h_formula = e3 * h3 + e4 * h4
    k_oracle = gaussian_curvature_fd(surface.induced_metric, t, s, h)
    h_oracle = mean_curvature_fd(surface.point, surface.tangents, t, s, h)
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
