"""Curvature of 2-surfaces traced by rotating a profile curve.

A ``DoubleRotationSurface`` immerses (t, s) -> family point at angles
(x(t), w(t)) and profile parameter s, i.e. both rotation angles follow a
path while s runs along the profile.  ``curvature_report`` puts two
computations side by side, for all six (family, variant) pairs: closed
forms ``K_formula`` and ``H_formula = h3 e3 + h4 e4`` in the normal frame
(e3, e4) (``_frame`` and ``_point``), and the exact oracles ``K_oracle``
and ``H_oracle`` (``_point`` too).  The two agree to rounding; the tests
hold the gaps to 1e-9.

``curvature_grid`` computes both on a grid of (t, s) points as plain
floats.  ``_profile_col`` forms the terms of s alone once per s and
``_angle_row`` those of t alone once per t; a point does only the
arithmetic that mixes them, in the operations and order of the formulas
as written, so its floats are theirs.  The kernel works in plane
coordinates, the u-plane's two slots then the v-plane's;
``curvature_report`` and ``normal_frame`` run the same code and return
its 4-tuples as ``Vector4`` of the standard coordinates that
``FamilySpec.vector`` places them in.

The finite-difference oracles ``gaussian_curvature_fd`` and
``mean_curvature_fd`` are the independent cross-check of the exact
oracles, on the coordinates of the ``Vector4``s their callbacks return;
they are not on the report path.

Profile and angle trees are walked by ``expressions.evaluate`` (a grid
reads each once per t or s, too few times for lowering to pay off).  The
report, the frame and the grid reject an s or t outside its profiles'
domain; the finite-difference oracles' central differences straddle it.
"""

from __future__ import annotations

import math

from ._record import Record
from .ambient import Vector4, _inner
from .expressions import DomainError, ProfileFunction, evaluate
from .surfaces import DegenerateMetricError, SurfaceFamily

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


def _gram(st, ss) -> tuple:
    """The 2-metric ((g00, g01), (g10, g11)) of the coordinates S_t, S_s."""
    return ((_inner(st, st), _inner(st, ss)),
            (_inner(ss, st), _inner(ss, ss)))


def _pair_values(first: ProfileFunction, second: ProfileFunction,
                 t: float) -> tuple:
    """(p, q, p', q', p'', q'') of two profiles at t, their trees walked in
    that order, with no domain check."""
    return (evaluate(first.value, t), evaluate(second.value, t),
            evaluate(first.d1, t), evaluate(second.d1, t),
            evaluate(first.d2, t), evaluate(second.d2, t))


class DoubleRotationSurface(Record):
    """A 2-surface (t, s) -> immersion(x(t), w(t), s) over one family."""

    family: SurfaceFamily
    angle_u: ProfileFunction
    angle_v: ProfileFunction

    def _profile_values(self, s: float) -> tuple:
        return _pair_values(self.family.fa, self.family.fb, s)

    def _angle_values(self, t: float) -> tuple:
        return _pair_values(self.angle_u, self.angle_v, t)

    def point(self, t: float, s: float) -> Vector4:
        fa, fb, *_ = self._profile_values(s)
        u, v, *_ = self._angle_values(t)
        return Vector4(*self.family.immerse_values(fa, fb, u, v))

    def tangents(self, t: float, s: float) -> tuple[Vector4, Vector4]:
        """Exact tangent vectors (d/dt, d/ds) by the chain rule."""
        fa, fb, dfa, dfb, _, _ = self._profile_values(s)
        u, v, du, dv, _, _ = self._angle_values(t)
        _, f_u, f_v, f_t = self.family.frame_values(fa, fb, dfa, dfb, u, v)
        return (Vector4(*(a * du + b * dv for a, b in zip(f_u, f_v))),
                Vector4(*f_t))

    def induced_metric(self, t: float, s: float) -> tuple:
        return _gram(*(x.components() for x in self.tangents(t, s)))


def _profile_col(surface: DoubleRotationSurface, s: float) -> tuple:
    """The s-only terms of ``_frame`` and of ``_point`` at s, one tuple
    each, which must lie in the family's domain: the signs, the profile
    values and their products, each formed in the operations and order of
    the formula it enters.  A quotient by Q is left 0 where Q = 0: every
    point of such a column raises before it would use it."""
    surface.family.fa.check(s)
    e, g, na, nb, sigma, rho = surface.family.spec.signs
    fa, fb, dfa, dfb, d2fa, d2fb = values = surface._profile_values(s)
    efa2, gfb2 = e * fa * fa, g * fb * fb
    q = na * dfa * dfa + nb * dfb * dfb
    q4 = math.sqrt(abs(q))
    b4 = na * (d2fa * dfb - dfa * d2fb)
    a4_frame, b4_frame, b4_q = ((dfb / q4, rho * dfa / q4, b4 / q) if q
                                else (0.0, 0.0, 0.0))
    return ((fb, efa2, gfb2, q, q4, rho * fa, e * g, a4_frame, b4_frame),
            (q, na * nb * q, e * fa * fb, na * sigma, fa * dfb, fb * dfa,
             dfa * fb - fa * dfb, b4, b4_q, 2.0 * q4, sigma, *values, efa2,
             gfb2, e * fa * dfa, g * fb * dfb, e * (dfa * dfa + fa * d2fa),
             g * (dfb * dfb + fb * d2fb),
             2.0 * (na * dfa * d2fa + nb * dfb * d2fb)))


def _angle_row(surface: DoubleRotationSurface, t: float) -> tuple:
    """(x', w', x'', w'', x'^2, w'^2, x'' w' - x' w'', e x' w', cols) at t,
    which must lie in both angle profiles' domains: ``cols`` is
    ``FamilySpec.columns`` at (x, w), which S_t and S_s are built from, or
    the ``DomainError`` of their overflow, which a point raises only after
    ``_frame``'s degeneracy check."""
    surface.angle_u.check(t)
    surface.angle_v.check(t)
    x, w, dx, dw, d2x, d2w = surface._angle_values(t)
    spec = surface.family.spec
    try:
        cols = spec.columns(x, w)
    except OverflowError:
        cols = DomainError("cosh overflow")
    return (dx, dw, d2x, d2w, dx * dx, dw * dw, d2x * dw - dx * d2w,
            spec.signs[0] * dx * dw, cols)


def _frame(t: float, s: float, col, row) -> tuple:
    """(P, n3, sqrt|P|, e3, e4) at (t, s), from the ``_profile_col`` at s
    and the ``_angle_row`` at t.

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
    fb, efa2, gfb2, q, q4, rho_fa, eg, a4, b4 = col[0]
    dx, dw, _, _, dx2, dw2, _, _, cols = row
    p = efa2 * dx2 + gfb2 * dw2
    if p == 0.0 or q == 0.0:
        raise FrameDegenerateError(
            f"normal frame degenerate at t={t!r}, s={s!r} (P={p!r}, Q={q!r})")
    if not math.isfinite(p * q):
        raise DomainError("curvature overflow")
    if isinstance(cols, DomainError):
        raise cols
    (cu0, cu1), (du0, du1), (cv0, cv1), (dv0, dv1) = cols
    q3 = math.sqrt(abs(p))
    a3, b3 = fb * dw / q3, rho_fa * dx / q3
    return (p, eg * p, q3, (du0 * a3, du1 * a3, dv0 * b3, dv1 * b3),
            (cu0 * a4, cu1 * a4, cv0 * b4, cv1 * b4))


def normal_frame(surface: DoubleRotationSurface, t: float,
                 s: float) -> tuple[Vector4, Vector4]:
    """The unit normals (e3, e4) of the surface at (t, s).

    They are orthogonal to the surface tangents and to each other, and
    spacelike or timelike as the signs of e g P and na nb Q say; a null
    normal raises ``FrameDegenerateError``.
    """
    place = surface.family.spec.vector
    *_, e3, e4 = _frame(t, s, _profile_col(surface, s),
                        _angle_row(surface, t))
    return Vector4(*place(e3)), Vector4(*place(e4))


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
    st, ss = (x.components() for x in tangents_fn(t, s))
    (g00, g01), (g10, g11) = _inverse(_gram(st, ss), t)[0]
    # the immersion at (t, s), at its four _shifts and at (t +- h, s +- h)
    points = [point_fn(*p).components() for p in (
        (t, s), *_shifts(t, s, h), (t + h, s + h), (t + h, s - h),
        (t - h, s + h), (t - h, s - h))]
    by_h2, by_4h2, g_ts = 1.0 / (h * h), 1.0 / (4.0 * h * h), g01 + g10
    trace = [((tp - 2.0 * x + tm) * by_h2 * g00
              + (sp - 2.0 * x + sm) * by_h2 * g11
              + (pp - pm - mp + mm) * by_4h2 * g_ts) * 0.5
             for x, tp, tm, sp, sm, pp, pm, mp, mm in zip(*points)]
    # remove the tangential projection g^{ab} <trace, S_a> S_b
    trace_st, trace_ss = _inner(trace, st), _inner(trace, ss)
    coeff0 = g00 * trace_st + g01 * trace_ss
    coeff1 = g10 * trace_st + g11 * trace_ss
    return Vector4(*(x - (a * coeff0 + b * coeff1)
                     for x, a, b in zip(trace, st, ss)))


# ---------------------------------------------------------------------------
# closed forms and exact oracles

def _point(t: float, s: float, col, row) -> tuple:
    """(K_formula, K_oracle, K_gap, h3, h4, H_gap, e3, e4, H_formula,
    H_oracle) at (t, s), the vectors in plane coordinates, from ``_frame``'s
    inputs: the factors that hold no angle come with ``col``, those that
    hold no profile value with ``row``.

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

    The exact oracles: the family metric is diag(E, G, N)(s) in (u, v, s),
    so the induced 2-metric is diag(P, Q) with P = E x'^2 + G w'^2 and
    Q = N.  With no off-diagonal term and Q free of t, Brioschi's formula
    reduces to

        K = (-P_ss P Q / 2 + P P_s Q_s / 4 + P_s^2 Q / 4) / (P Q)^2.

    H is half the trace of the second fundamental form (Gauss formula),
    H = g^tt (S_tt - Gamma^a_tt S_a) / 2 + g^ss (S_ss - Gamma^a_ss S_a) / 2,
    with Gamma^t_tt = P_t / 2P, Gamma^s_tt = -P_s / 2Q, Gamma^t_ss = 0 and
    Gamma^s_ss = Q_s / 2Q.  In each rotation plane, S_t, S_tt, S_s and
    S_ss are combinations of the profile column of the rotation block R
    and of R' (R'' = sigma R; the two planes do not mix, so S_tt has no
    u-v cross term), so H is assembled plane by plane.

    H_formula = e3 h3 + e4 h4 is summed in that order.  A zero divisor is
    a ``DomainError``, and so is a K_gap or H_formula - H_oracle that is
    not finite, which a non-finite K_formula, h3, h4 or oracle makes it.
    """
    p, n3, q3, e3, e4 = _frame(t, s, col, row)
    (q, n4, efafb, na_sigma, fa_dfb, fb_dfa, c3_s, b4, b4_q, q4_2, sigma, fa,
     fb, dfa, dfb, d2fa, d2fb, e, g, ps_a, ps_b, pss_a, pss_b, q_s) = col[1]
    dx, dw, d2x, d2w, dx2, dw2, cross, exw, cols = row
    a3 = efafb * cross
    a4 = na_sigma * (fa_dfb * dx * dx - fb_dfa * dw * dw)
    c3 = exw * c3_s
    p_t = 2.0 * (e * dx * d2x + g * dw * d2w)
    p_s = 2.0 * (ps_a * dx2 + ps_b * dw2)
    p_ss = 2.0 * (pss_a * dx2 + pss_b * dw2)
    try:
        k_formula = (a4 * b4 / n4 - c3 * c3 / n3) / (p * q)
        h3 = a3 / (2.0 * p * q3)
        h4 = (a4 / p + b4_q) / q4_2
        det = p * q
        k_oracle = (-0.5 * p_ss * p * q + 0.25 * p * p_s * q_s
                    + 0.25 * p_s * p_s * q) / (det * det)
        # H = a S_tt + b S_ss + c_t S_t + c_s S_s
        g_tt, g_ss = q / det, p / det
    except ZeroDivisionError as exc:  # a product underflows to 0
        raise DomainError("division by zero") from exc
    a, b = 0.5 * g_tt, 0.5 * g_ss
    c_t = -0.25 * g_tt * g_tt * p_t
    c_s = 0.25 * g_ss * (g_tt * p_s - g_ss * q_s)
    # along the column of R and of R' in each plane
    ru = a * sigma * dx2 * fa + b * d2fa + c_s * dfa
    dru = (a * d2x + c_t * dx) * fa
    rv = a * sigma * dw2 * fb + b * d2fb + c_s * dfb
    drv = (a * d2w + c_t * dw) * fb
    (cu0, cu1), (du0, du1), (cv0, cv1), (dv0, dv1) = cols
    o0, o1 = cu0 * ru + du0 * dru, cu1 * ru + du1 * dru
    o2, o3 = cv0 * rv + dv0 * drv, cv1 * rv + dv1 * drv
    if n3 < 0.0:
        h3 = -h3
    if n4 < 0.0:
        h4 = -h4
    (e30, e31, e32, e33), (e40, e41, e42, e43) = e3, e4
    f0, f1 = e30 * h3 + e40 * h4, e31 * h3 + e41 * h4
    f2, f3 = e32 * h3 + e42 * h4, e33 * h3 + e43 * h4
    d0, d1, d2, d3 = f0 - o0, f1 - o1, f2 - o2, f3 - o3
    k_gap = abs(k_formula - k_oracle)
    if not math.isfinite(k_gap + d0 + d1 + d2 + d3):
        raise DomainError("curvature overflow")
    return (k_formula, k_oracle, k_gap, h3, h4,
            max(abs(d0), abs(d1), abs(d2), abs(d3)), e3, e4,
            (f0, f1, f2, f3), (o0, o1, o2, o3))


def curvature_grid(surface: DoubleRotationSurface, ts, ss) -> list[tuple]:
    """Rows (t, s, K_formula, K_oracle, K_gap, h3, h4, H_gap) at every
    (t, s) of ``ts`` x ``ss`` in row-major order, the values of
    ``curvature_report`` at each point.

    The terms of s alone are formed once per s (``_profile_col``), as the
    first t reaches it, and those of t alone once per t (``_angle_row``),
    at its first s: in row-major order each is formed at the first point
    that needs it, so the first point that fails raises, as
    ``GridPointError``, the error that point's report would."""
    return [point for row in _grid_rows(surface, ts, ss) for point in row]


def _grid_rows(surface: DoubleRotationSurface, ts, ss):
    """``curvature_grid``'s rows as a list per t of ``ts``."""
    cols = []
    for i, t in enumerate(ts):
        points = []
        for j, s in enumerate(ss):
            try:
                if not i:
                    cols.append(_profile_col(surface, s))
                if not j:
                    row = _angle_row(surface, t)
                points.append((t, s) + _point(t, s, cols[j], row)[:6])
            except (FrameDegenerateError, DomainError) as exc:
                raise GridPointError(t, s, exc) from exc
        yield points


# ---------------------------------------------------------------------------

class CurvatureReport(Record):
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
    place = surface.family.spec.vector
    k_formula, k_oracle, k_gap, h3, h4, h_gap, *vectors = _point(
        t, s, _profile_col(surface, s), _angle_row(surface, t))
    # e3, e4, H_formula and H_oracle, in the fields' order
    return CurvatureReport(k_formula, k_oracle, h3, h4,
                           *(Vector4(*place(x)) for x in vectors),
                           k_gap, h_gap)
