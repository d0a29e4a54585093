"""Curvature of 2-surfaces traced by rotating a profile curve.

A ``DoubleRotationSurface`` immerses (t, s) -> family point at angles
(x(t), w(t)) and profile parameter s, i.e. both rotation angles follow a
path while s runs along the profile.  ``curvature_report`` puts two
computations side by side:

* closed forms ``K_formula`` and ``H_formula = h3 e3 + h4 e4`` in the
  normal frame (e3, e4).  One derivation serves all six (family,
  variant) pairs: the frame comes from the layout's signs and slots and
  the rotation blocks (``_frame``), and K, h3 and h4 from the Gauss
  equation and the normal parts of the second partials (``_point``),
  which hold in any signature;
* exact oracles: the family metric is diagonal, so the induced 2-metric
  is diag(E x'^2 + G w'^2, N), and ``K_oracle`` (Brioschi's formula) and
  ``H_oracle`` (the Gauss formula) are closed expressions in the profile
  and angle values and their first two derivatives at the point.

The two agree to rounding; the tests hold the gaps to 1e-9.
``curvature_grid`` computes both on a grid of (t, s) points as plain
floats: the layout's signs once per grid, the angle values and the
profile columns of the rotation blocks once per t, the profile values
once per s.  The kernel works in plane coordinates, the u-plane's two
slots then the v-plane's; ``curvature_report`` and ``normal_frame`` run
the same per-point code and place its 4-tuples in ``Vector4`` on return.

The finite-difference oracles ``gaussian_curvature_fd`` (Christoffel
symbols and the single independent curvature component of any 2-metric)
and ``mean_curvature_fd`` (second partials of the immersion with the
tangential part projected away) are the independent cross-check of the
exact oracles; they are not on the report path.

Their induced 2-metric is a plain 2x2 tuple of floats, indexed g[i][j],
inverted by ``_inverse``.

Profile and angle expressions are evaluated without the domain-interval
guard here, because central differences must straddle the evaluation
point; grid drivers keep the sample points themselves inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .ambient import Vector4, inner
from .expressions import DomainError, ProfileFunction, _Lowering
from .surfaces import DegenerateMetricError, SurfaceFamily, _emit_pair

__all__ = [
    "DoubleRotationSurface",
    "CurvatureReport",
    "FrameDegenerateError",
    "GridPointError",
    "normal_frame",
    "curvature_report",
    "curvature_grid",
    "gaussian_curvature_fd",
    "mean_curvature_fd",
]


class FrameDegenerateError(ValueError):
    """A normal of the frame is null: P = 0 or Q = 0 at the point."""


class GridPointError(ValueError):
    """``curvature_grid`` failed at (t, s) with ``error``: a
    ``FrameDegenerateError`` or a ``DomainError``."""

    def __init__(self, t: float, s: float, error: ValueError):
        super().__init__(f"t={t!r}, s={s!r}: {error}")
        self.t, self.s, self.error = t, s, error


def _gram(st: Vector4, ss: Vector4) -> tuple:
    """The 2-metric ((g00, g01), (g10, g11)) of the tangents (S_t, S_s)."""
    return ((inner(st, st), inner(st, ss)), (inner(ss, st), inner(ss, ss)))


def _lower_pair(first: ProfileFunction, second: ProfileFunction):
    """(p, q, p', q', p'', q'') of two profiles at t as one generated
    function, with no domain check and with the checks and messages of the
    six ``ProfileFunction`` calls it replaces."""
    lowering = _Lowering()
    return lowering.function(
        f"({', '.join(_emit_pair(lowering, first, second))})")


@dataclass(frozen=True)
class DoubleRotationSurface:
    """A 2-surface (t, s) -> immersion(x(t), w(t), s) over one family.

    The generated profile and angle functions are built on first use and
    kept on the instance, outside the dataclass fields."""

    family: SurfaceFamily
    angle_u: ProfileFunction
    angle_v: ProfileFunction

    def __getstate__(self):
        # the generated functions are rebuilt on demand
        return {name: getattr(self, name)
                for name in ("family", "angle_u", "angle_v")}

    @cached_property
    def _profile_values(self):
        return _lower_pair(self.family.fa, self.family.fb)

    @cached_property
    def _angle_values(self):
        return _lower_pair(self.angle_u, self.angle_v)

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


def _angle_row(surface: DoubleRotationSurface, t: float) -> tuple:
    """(x', w', x'', w'', cols) at t: ``cols`` holds the profile columns
    (fa_pos, fb_pos) of R_u(x), R_u'(x), R_v(w) and R_v'(w), which S_t and
    S_s are built from, or the ``DomainError`` of their overflow, which a
    point raises only after ``_frame``'s degeneracy check."""
    x, w, dx, dw, d2x, d2w = surface._angle_values(t)
    lay = surface.family.layout
    try:
        bu, dbu = lay.rot_u.block(x), lay.rot_u.block_deriv(x)
        bv, dbv = lay.rot_v.block(w), lay.rot_v.block_deriv(w)
    except OverflowError:
        return dx, dw, d2x, d2w, DomainError("cosh overflow")
    iu, iv = lay.fa_pos, lay.fb_pos
    return dx, dw, d2x, d2w, (bu[iu::2], dbu[iu::2], bv[iv::2], dbv[iv::2])


def _signs(lay) -> tuple:
    """The layout's (e, g, na, nb, sigma, rho), read once per grid: the
    metric signs, sigma = +1 for boosts and -1 for spins (R'' = sigma R;
    a family's two rotations are of one kind) and rho = -e*g."""
    sigma = 1.0 if lay.rot_u.hyperbolic else -1.0
    return (lay.e_sign, lay.g_sign, lay.na_sign, lay.nb_sign, sigma,
            -lay.e_sign * lay.g_sign)


def _frame(signs, t: float, s: float, col, row) -> tuple:
    """(P, Q, n3, n4, sqrt|P|, sqrt|Q|, e3, e4) at (t, s), from the
    profile values ``col`` at s and the ``_angle_row`` at t, either of
    which may be the ``DomainError`` its evaluation raised; ``col``'s is
    raised first.

    The induced metric is diag(P, Q), P = e fa^2 x'^2 + g fb^2 w'^2 and
    Q = na fa'^2 + nb fb'^2.  In plane coordinates (the u-plane's two
    slots, then the v-plane's), with c the profile columns of ``cols``,

        e3~ = (c(R_u') fb w', rho c(R_v') fa x'),
        e4~ = (c(R_u) fb', rho c(R_v) fa')

    are normal to S_t, S_s and each other, with n3 = <e3~, e3~> = e g P
    and n4 = <e4~, e4~> = na nb Q; e3 and e4 are them over sqrt|P| and
    sqrt|Q|, scaled before the columns.  A normal is null where P = 0 or
    Q = 0: ``FrameDegenerateError``.  P Q must be finite, else "curvature
    overflow"; a block overflow is raised after both checks."""
    if isinstance(col, DomainError):
        raise col
    if isinstance(row, DomainError):
        raise row
    e, g, na, nb, _, rho = signs
    fa, fb, dfa, dfb, _, _ = col
    dx, dw, _, _, cols = row
    p = e * fa * fa * (dx * dx) + g * fb * fb * (dw * dw)
    q = na * dfa * dfa + nb * dfb * dfb
    if p == 0.0 or q == 0.0:
        raise FrameDegenerateError(
            f"normal frame degenerate at t={t!r}, s={s!r} (P={p!r}, Q={q!r})")
    if not math.isfinite(p * q):
        raise DomainError("curvature overflow")
    if isinstance(cols, DomainError):
        raise cols
    (cu0, cu1), (du0, du1), (cv0, cv1), (dv0, dv1) = cols
    q3, q4 = math.sqrt(abs(p)), math.sqrt(abs(q))
    a3, b3 = fb * dw / q3, rho * fa * dx / q3
    a4, b4 = dfb / q4, rho * dfa / q4
    return (p, q, e * g * p, na * nb * q, q3, q4,
            (du0 * a3, du1 * a3, dv0 * b3, dv1 * b3),
            (cu0 * a4, cu1 * a4, cv0 * b4, cv1 * b4))


def normal_frame(surface: DoubleRotationSurface, t: float,
                 s: float) -> tuple[Vector4, Vector4]:
    """The unit normals (e3, e4) of the surface at (t, s).

    They are orthogonal to the surface tangents and to each other, and
    spacelike or timelike as the signs of e g P and na nb Q say; a null
    normal raises ``FrameDegenerateError``.
    """
    lay = surface.family.layout
    *_, e3, e4 = _frame(_signs(lay), t, s, surface._profile_values(s),
                        _angle_row(surface, t))
    return lay.vector(e3[:2], e3[2:]), lay.vector(e4[:2], e4[2:])


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
# exact oracles

def _exact_oracles(signs, p: float, q: float, col, row) -> tuple:
    """Exact (K, H) of the surface at one point, H in plane coordinates,
    from ``_frame``'s P and Q, the profile values at s and the angle
    derivatives and ``_angle_row`` columns at t.

    The family metric is diag(E, G, N)(s) in (u, v, s), so the induced
    2-metric is diag(P, Q) with P = E x'^2 + G w'^2 and Q = N.  With no
    off-diagonal term and Q free of t, Brioschi's formula reduces to

        K = (-P_ss P Q / 2 + P P_s Q_s / 4 + P_s^2 Q / 4) / (P Q)^2.

    H is half the trace of the second fundamental form (Gauss formula),
    H = g^tt (S_tt - Gamma^a_tt S_a) / 2 + g^ss (S_ss - Gamma^a_ss S_a) / 2,
    with Gamma^t_tt = P_t / 2P, Gamma^s_tt = -P_s / 2Q, Gamma^t_ss = 0 and
    Gamma^s_ss = Q_s / 2Q.  In each rotation plane, S_t, S_tt, S_s and
    S_ss are combinations of the profile column of the rotation block R
    and of R' (R'' = sigma R; the two planes do not mix, so S_tt has no
    u-v cross term), so H is assembled plane by plane.
    """
    e_sign, g_sign, na_sign, nb_sign, sigma, _ = signs
    fa, fb, dfa, dfb, d2fa, d2fb = col
    dx, dw, d2x, d2w, ((cu0, cu1), (du0, du1), (cv0, cv1), (dv0, dv1)) = row
    e, g = e_sign * fa * fa, g_sign * fb * fb
    dx2, dw2 = dx * dx, dw * dw
    p_t = 2.0 * (e * dx * d2x + g * dw * d2w)
    p_s = 2.0 * (e_sign * fa * dfa * dx2 + g_sign * fb * dfb * dw2)
    p_ss = 2.0 * (e_sign * (dfa * dfa + fa * d2fa) * dx2
                  + g_sign * (dfb * dfb + fb * d2fb) * dw2)
    q_s = 2.0 * (na_sign * dfa * d2fa + nb_sign * dfb * d2fb)
    det = p * q
    k = (-0.5 * p_ss * p * q + 0.25 * p * p_s * q_s
         + 0.25 * p_s * p_s * q) / (det * det)

    # H = a S_tt + b S_ss + c_t S_t + c_s S_s
    g_tt, g_ss = q / det, p / det
    a, b = 0.5 * g_tt, 0.5 * g_ss
    c_t = -0.25 * g_tt * g_tt * p_t
    c_s = 0.25 * g_ss * (g_tt * p_s - g_ss * q_s)
    # along the column of R and of R' in each plane
    ru = a * sigma * dx2 * fa + b * d2fa + c_s * dfa
    dru = (a * d2x + c_t * dx) * fa
    rv = a * sigma * dw2 * fb + b * d2fb + c_s * dfb
    drv = (a * d2w + c_t * dw) * fb
    return k, (cu0 * ru + du0 * dru, cu1 * ru + du1 * dru,
               cv0 * rv + dv0 * drv, cv1 * rv + dv1 * drv)


def _point(signs, t: float, s: float, col, row) -> tuple:
    """(K_formula, K_oracle, K_gap, h3, h4, e3, e4, H_formula, H_oracle,
    H_gap) at (t, s), the vectors in plane coordinates, from ``_frame``'s
    inputs.

    The Gauss equation and the normal parts of the second partials give
    the closed forms in any signature.  The nonzero products of S_tt, S_ss
    and S_ts with the unnormalised normals are

        A3 = <S_tt, e3~> = e fa fb (x'' w' - x' w''),
        A4 = <S_tt, e4~> = na sigma (fa fb' x'^2 - fb fa' w'^2),
        B4 = <S_ss, e4~> = na (fa'' fb' - fa' fb''),
        C3 = <S_ts, e3~> = e x' w' (fa' fb - fa fb'),

    so K = (A4 B4 / n4 - C3^2 / n3) / (P Q),
    h3 = sgn(n3) A3 / (2 P sqrt|P|) and
    h4 = sgn(n4) (A4 / P + B4 / Q) / (2 sqrt|Q|).

    H_formula = e3 h3 + e4 h4 is summed in that order.  A zero divisor is
    a ``DomainError``, and so is a K_gap or H_formula - H_oracle that is
    not finite, which a non-finite K_formula, h3, h4 or oracle makes it.
    """
    p, q, n3, n4, q3, q4, e3, e4 = _frame(signs, t, s, col, row)
    e, _, na, _, sigma, _ = signs
    fa, fb, dfa, dfb, d2fa, d2fb = col
    dx, dw, d2x, d2w, _ = row
    a3 = e * fa * fb * (d2x * dw - dx * d2w)
    a4 = na * sigma * (fa * dfb * dx * dx - fb * dfa * dw * dw)
    b4 = na * (d2fa * dfb - dfa * d2fb)
    c3 = e * dx * dw * (dfa * fb - fa * dfb)
    try:
        k_formula = (a4 * b4 / n4 - c3 * c3 / n3) / (p * q)
        h3 = a3 / (2.0 * p * q3)
        h4 = (a4 / p + b4 / q) / (2.0 * q4)
        k_oracle, h_oracle = _exact_oracles(signs, p, q, col, row)
    except ZeroDivisionError as exc:  # a product underflows to 0
        raise DomainError("division by zero") from exc
    if n3 < 0.0:
        h3 = -h3
    if n4 < 0.0:
        h4 = -h4
    h_formula = (e3[0] * h3 + e4[0] * h4, e3[1] * h3 + e4[1] * h4,
                 e3[2] * h3 + e4[2] * h4, e3[3] * h3 + e4[3] * h4)
    d0, d1, d2, d3 = (h_formula[0] - h_oracle[0], h_formula[1] - h_oracle[1],
                      h_formula[2] - h_oracle[2], h_formula[3] - h_oracle[3])
    k_gap = abs(k_formula - k_oracle)
    if not math.isfinite(k_gap + d0 + d1 + d2 + d3):
        raise DomainError("curvature overflow")
    return (k_formula, k_oracle, k_gap, h3, h4, e3, e4, h_formula, h_oracle,
            max(abs(d0), abs(d1), abs(d2), abs(d3)))


def _attempt(fn, *args):
    """``fn(*args)``, or the ``DomainError`` it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return exc


def curvature_grid(surface: DoubleRotationSurface, ts, ss) -> list[tuple]:
    """Rows (t, s, K_formula, K_oracle, K_gap, h3, h4, H_gap) at every
    (t, s) of ``ts`` x ``ss`` in row-major order, the values of
    ``curvature_report`` at each point.

    The angle values are evaluated once per t and the profile values once
    per s; an error of either is raised at the first point that needs it.
    The first point that fails raises ``GridPointError``."""
    signs = _signs(surface.family.layout)
    cols = [_attempt(surface._profile_values, s) for s in ss]
    rows = []
    for t in ts:
        row = _attempt(_angle_row, surface, t)
        for s, col in zip(ss, cols):
            try:
                k_formula, k_oracle, k_gap, h3, h4, *_, h_gap = _point(
                    signs, t, s, col, row)
            except (FrameDegenerateError, DomainError) as exc:
                raise GridPointError(t, s, exc) from exc
            rows.append((t, s, k_formula, k_oracle, k_gap, h3, h4, h_gap))
    return rows


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureReport:
    """Closed-form versus oracle curvature at one (t, s) point.

    ``K_gap`` = |K_formula - K_oracle| and ``H_gap``, the largest
    component of |H_formula - H_oracle|, are rounding-level: the tests
    and ``scripts/curvature_audit.py`` hold them to 1e-9 times
    max(1, |K_oracle|) and max(1, max |H_oracle|).
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
    lay = surface.family.layout
    (k_formula, k_oracle, k_gap, h3, h4, e3, e4, h_formula, h_oracle,
     h_gap) = _point(_signs(lay), t, s, surface._profile_values(s),
                     _angle_row(surface, t))
    return CurvatureReport(
        K_formula=k_formula,
        K_oracle=k_oracle,
        h3=h3,
        h4=h4,
        e3=lay.vector(e3[:2], e3[2:]),
        e4=lay.vector(e4[:2], e4[2:]),
        H_formula=lay.vector(h_formula[:2], h_formula[2:]),
        H_oracle=lay.vector(h_oracle[:2], h_oracle[2:]),
        K_gap=k_gap,
        H_gap=h_gap,
    )
