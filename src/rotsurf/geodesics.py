"""Geodesic flow on the rotational families, with conserved quantities.

The Lagrangian L = E(t) u'^2 + G(t) v'^2 + N(t) t'^2 has cyclic angles
u and v, so its extremal equations reduce to

    u'' = -(E'/E) u' t'
    v'' = -(G'/G) v' t'
    t'' = (E' u'^2 + G' v'^2 - N' t'^2) / (2 N)

with conserved conjugate momenta p_u = 2 E u' and p_v = 2 G v' and a
conserved L.  ``integrate`` runs a fixed-step classical 4th-order scheme
and records a flat row per sample so conservation drift is auditable.

For timelike flows each family admits an angle decomposition of the
velocity against the meridian direction; the decomposed momenta are the
classical Clairaut-style invariants (``clairaut_report``), and the slope
dt/du of the flow satisfies a closed-form law in those angles (``slope``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .expressions import DomainError
from .surfaces import (DegenerateMetricError, FamilySpec, GeodesicState,
                       SurfaceFamily)

__all__ = [
    "Sample",
    "Trajectory",
    "AngleDecomposition",
    "ClairautReport",
    "SlopeReport",
    "MeridianUndefinedError",
    "geodesic_rhs",
    "integrate",
    "momenta",
    "extract_angles",
    "state_from_angles",
    "clairaut_report",
    "slope",
    "flow_residual",
    "shift_samples",
    "invariant_rows",
]


class MeridianUndefinedError(ValueError):
    """dt/du requested on a state with du = 0."""


@dataclass(frozen=True)
class Sample:
    s: float
    state: GeodesicState
    L: float
    p_u: float
    p_v: float


def _sample(row) -> Sample:
    s, u, v, t, du, dv, dt, lagr, p_u, p_v = row
    return Sample(s, GeodesicState(u, v, t, du, dv, dt), lagr, p_u, p_v)


class _Samples(Sequence):
    """Read-only ``Sample`` view of trajectory rows, built on access."""

    def __init__(self, rows):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(_sample, self._rows[index]))
        return _sample(self._rows[index])

    def __iter__(self):
        return map(_sample, self._rows)


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic flow: a tuple (s, u, v, t, du, dv, dt, L, p_u, p_v)
    per sample in ``rows``, shown as ``Sample``s by ``samples``; the
    ``termination`` is ``completed``, ``domain_exit``, ``degenerate_metric``
    or ``nonfinite_state``.  ``rows`` is empty only when the first row is
    not finite; ``reached_length`` and each drift are then 0 and
    ``final`` raises ``ValueError``."""

    rows: tuple[tuple[float, ...], ...]
    termination: str
    requested_length: float

    @property
    def samples(self) -> Sequence[Sample]:
        return _Samples(self.rows)

    @property
    def final(self) -> Sample:
        if not self.rows:
            raise ValueError(f"no final sample: the run ended as "
                             f"{self.termination} at its first row")
        return _sample(self.rows[-1])

    @property
    def reached_length(self) -> float:
        return self.rows[-1][0] if self.rows else 0.0

    def drifts(self) -> dict[str, float]:
        """The largest |x - x_0| of p_u, p_v and L; 0.0 without rows."""
        first = self.rows[0] if self.rows else None
        return {name: max([abs(row[k] - first[k]) for row in self.rows],
                          default=0.0)
                for name, k in (("p_u_drift", 8), ("p_v_drift", 9),
                                ("L_drift", 7))}


def geodesic_rhs(fam: SurfaceFamily, state: GeodesicState):
    """State derivative (du, dv, dt, u'', v'', t'') of the geodesic system."""
    t, du, dv, dt = state.t, state.du, state.dv, state.dt
    e, g, n, de, dg, dn = fam.metric_bundle(t)
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t)
    ddu = -(de / e) * du * dt
    ddv = -(dg / g) * dv * dt
    ddt = (de * du * du + dg * dv * dv - dn * dt * dt) / (2.0 * n)
    return (du, dv, dt, ddu, ddv, ddt)


def momenta(fam: SurfaceFamily, state: GeodesicState) -> tuple[float, float]:
    """Conjugate momenta (2 E du, 2 G dv) of the cyclic angles."""
    return fam.metric_coefficients(state.t).momenta(state)


def _rk4_step(fam: SurfaceFamily, y, h: float, bundle):
    """One RK4 step; ``bundle`` is the metric bundle at ``y``.

    Written out in scalars: stage k is (du_k, dv_k, dt_k, a_k, b_k, c_k),
    with ``geodesic_rhs``'s arithmetic at y + (h/2) k_1, y + (h/2) k_2 and
    y + h k_3.  The u and v of a stage state are never read, so they are
    not formed."""
    u, v, t, du, dv, dt = y
    half = 0.5 * h
    sixth = h / 6.0
    metric_bundle = fam.metric_bundle

    e, g, n, de, dg, dn = bundle
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t)
    a1 = -(de / e) * du * dt
    b1 = -(dg / g) * dv * dt
    c1 = (de * du * du + dg * dv * dv - dn * dt * dt) / (2.0 * n)

    t2 = t + half * dt
    du2, dv2, dt2 = du + half * a1, dv + half * b1, dt + half * c1
    e, g, n, de, dg, dn = metric_bundle(t2)
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t2)
    a2 = -(de / e) * du2 * dt2
    b2 = -(dg / g) * dv2 * dt2
    c2 = (de * du2 * du2 + dg * dv2 * dv2 - dn * dt2 * dt2) / (2.0 * n)

    t3 = t + half * dt2
    du3, dv3, dt3 = du + half * a2, dv + half * b2, dt + half * c2
    e, g, n, de, dg, dn = metric_bundle(t3)
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t3)
    a3 = -(de / e) * du3 * dt3
    b3 = -(dg / g) * dv3 * dt3
    c3 = (de * du3 * du3 + dg * dv3 * dv3 - dn * dt3 * dt3) / (2.0 * n)

    t4 = t + h * dt3
    du4, dv4, dt4 = du + h * a3, dv + h * b3, dt + h * c3
    e, g, n, de, dg, dn = metric_bundle(t4)
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t4)
    a4 = -(de / e) * du4 * dt4
    b4 = -(dg / g) * dv4 * dt4
    c4 = (de * du4 * du4 + dg * dv4 * dv4 - dn * dt4 * dt4) / (2.0 * n)

    return (u + sixth * (du + 2.0 * du2 + 2.0 * du3 + du4),
            v + sixth * (dv + 2.0 * dv2 + 2.0 * dv3 + dv4),
            t + sixth * (dt + 2.0 * dt2 + 2.0 * dt3 + dt4),
            du + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            dv + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            dt + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4))


def integrate(fam: SurfaceFamily, state0: GeodesicState, length: float,
              step: float) -> Trajectory:
    """Fixed-step classical RK4 integration of the geodesic system from
    ``state0``.

    Samples at every step plus the endpoint ``s = length``.  The run aborts
    cleanly (partial trajectory, ``termination`` set) when t leaves the
    profile domain, a metric coefficient vanishes, or the state or a
    row's L, p_u or p_v stops being finite; no row holds a non-finite
    value, so ``rows`` is empty when the row of ``state0`` is not finite.
    """
    if not (length > 0.0 and math.isfinite(length)):
        raise ValueError("length must be > 0")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be > 0")
    if step > length:
        raise ValueError("step must be <= length")

    t_min, t_max = fam.domain
    fsum, isfinite, nan = math.fsum, math.isfinite, math.nan
    y = u, v, t, du, dv, dt = state0.as_tuple()
    # a row's bundle is the next step's first stage
    bundle = e, g, n, _, _, _ = fam.metric_bundle(t)
    n_steps = math.ceil(length / step - 1e-9)
    rows = []
    s = 0.0
    termination = "completed"
    for i in range(1, n_steps + 2):  # row i - 1, then the step to row i
        p_u, p_v = 2.0 * e * du, 2.0 * g * dv
        try:
            lagr = fsum((e * du * du, g * dv * dv, n * dt * dt))
        except (ValueError, OverflowError):  # inf - inf, or a finite overflow
            lagr = nan
        # 0 * x is nan exactly when x is inf or nan
        if not isfinite(0.0 * lagr * p_u * p_v):
            termination = "nonfinite_state"
            break
        rows.append((s, *y, lagr, p_u, p_v))
        if i > n_steps:
            break
        s_next = length if i == n_steps else i * step
        try:
            y = u, v, t, du, dv, dt = _rk4_step(fam, y, s_next - s, bundle)
            if not (isfinite(u) and isfinite(v) and isfinite(t)
                    and isfinite(du) and isfinite(dv) and isfinite(dt)):
                termination = "nonfinite_state"
                break
            if not (t_min <= t <= t_max):
                termination = "domain_exit"
                break
            bundle = e, g, n, _, _, _ = fam.metric_bundle(t)
        except DomainError:
            termination = "domain_exit"
            break
        except DegenerateMetricError:
            termination = "degenerate_metric"
            break
        s = s_next
    return Trajectory(tuple(rows), termination, length)


# ---------------------------------------------------------------------------
# angle decompositions

@dataclass(frozen=True)
class AngleDecomposition:
    """Velocity split against the meridian direction.

    ``phi`` is the mixing angle and ``theta`` distributes the remaining
    speed, as the family's ``FamilySpec.velocity`` says.  ``residual`` is
    the consistency defect of the defining identities; ``defined`` means a
    decomposition exists within the caller's tolerance.
    """

    phi: float
    theta: float
    defined: bool
    residual: float


def extract_angles(fam: SurfaceFamily, state: GeodesicState,
                   tol: float = 1e-9) -> AngleDecomposition:
    """Invert the family's velocity law (``FamilySpec.velocity``), if the
    state's velocity has angles.

    Undefined decompositions return ``defined=False`` with the residual;
    ties at zero resolve to phi = theta = 0.
    """
    fa, fb = fam.fa.evaluate(state.t), fam.fb.evaluate(state.t)
    return AngleDecomposition(*_angles(fam.spec, fa * state.du,
                                       fb * state.dv, state.dt, tol))


def _angles(spec: FamilySpec, a: float, b: float, dt: float, tol: float):
    """``extract_angles``'s fields for (a, b, dt) = (fa*du, fb*dv, dt)."""
    phi, theta, ok, residual = spec.invert(a, b, dt, tol)
    if ok:
        # the angles must actually reproduce the velocity triple
        ra, rb, rdt = spec.velocity(phi, theta)
        recon_err = max(abs(ra - a), abs(rb - b), abs(rdt - dt))
        scale = 1.0 + max(abs(a), abs(b), abs(dt))
        if recon_err > 10.0 * tol * scale:
            ok = False
    if not ok:
        return 0.0, 0.0, False, residual
    return phi, theta, True, residual


def state_from_angles(fam: SurfaceFamily, u: float, v: float, t: float,
                      phi: float, theta: float) -> GeodesicState:
    """Inverse constructor: velocities from the family's decomposition."""
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    if fa == 0.0 or fb == 0.0:
        raise DegenerateMetricError(t, which="profile")
    a, b, dt = fam.spec.velocity(phi, theta)
    return GeodesicState(u, v, t, a / fa, b / fb, dt)


# ---------------------------------------------------------------------------
# Clairaut-style invariants and slope laws

@dataclass(frozen=True)
class ClairautReport:
    """Conserved data at one state: Lagrangian, momenta, decomposition
    angles, and the two angle-form invariants (2*fa^2*du and 2*fb^2*dv up
    to the family sign), which coincide with the momenta identically."""

    L: float
    p_u: float
    p_v: float
    invariant1: float
    invariant2: float
    angles: AngleDecomposition


def _invariants(fam: SurfaceFamily, fa: float, fb: float, du: float,
                dv: float, dt: float, p_u: float, p_v: float, tol: float):
    """(inv1, inv2, ``_angles``'s tuple) at one state: the angle forms when
    the velocity has angles, else the signed momenta."""
    spec = fam.spec
    angles = phi, theta, defined, _ = _angles(spec, fa * du, fb * dv, dt, tol)
    if defined:
        return (*spec.invariants(fa, fb, phi, theta), angles)
    lay = fam.layout
    return lay.mom_sign_u * p_u, lay.mom_sign_v * p_v, angles


def clairaut_report(fam: SurfaceFamily, state: GeodesicState,
                    tol: float = 1e-9) -> ClairautReport:
    t = state.t
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    coeffs = fam.metric_values(fa, fb, fam.fa.derivative(t), fam.fb.derivative(t))
    lagr = coeffs.lagrangian(state)
    p_u, p_v = coeffs.momenta(state)
    inv1, inv2, angles = _invariants(fam, fa, fb, state.du, state.dv,
                                     state.dt, p_u, p_v, tol)
    return ClairautReport(lagr, p_u, p_v, inv1, inv2,
                          AngleDecomposition(*angles))


def invariant_rows(fam: SurfaceFamily, rows) -> list:
    """Each ``Trajectory.rows`` row + (inv1, inv2) as ``clairaut_report``'s
    default gives them, from the row's p_u, p_v and one call each of fa, fb."""
    fa, fb = fam.fa.evaluate, fam.fb.evaluate
    return [row + _invariants(fam, fa(row[3]), fb(row[3]), *row[4:7], *row[8:],
                              1e-9)[:2] for row in rows]


@dataclass(frozen=True)
class SlopeReport:
    """dt/du of a state versus the closed-form slope law in the angles.

    ``angle_slope`` is the law evaluated from the extracted angles and L
    (None when no decomposition exists).  ``match`` is
    |state_slope| - |angle_slope|.  ``imaginary_radicand`` flags a law
    whose radicand came out negative; its magnitude is reported then.
    """

    state_slope: float
    angle_slope: float | None
    match: float | None
    imaginary_radicand: bool = False


def slope(fam: SurfaceFamily, state: GeodesicState,
          tol: float = 1e-9) -> SlopeReport:
    if state.du == 0.0:
        raise MeridianUndefinedError("du = 0: slope along a meridian is undefined")
    state_slope = state.dt / state.du
    angles = extract_angles(fam, state, tol)
    if not angles.defined:
        return SlopeReport(state_slope, None, None)
    lagr = fam.lagrangian(state)
    fa = fam.fa.evaluate(state.t)
    angle_slope, radicand = fam.spec.slope(fa, angles.phi, angles.theta, lagr)
    match = abs(state_slope) - abs(angle_slope)
    return SlopeReport(state_slope, angle_slope, match, radicand < 0.0)


# ---------------------------------------------------------------------------
# residual of a sampled path against the geodesic equations

def flow_residual(fam: SurfaceFamily, samples) -> float:
    """Max deviation of a sampled path from the geodesic equations.

    Accelerations are estimated by central differences of the sampled
    velocities (interior points with symmetric spacing only) and compared
    with the right-hand side, so a geodesic sampled with step h scores
    O(h^2) while a forced non-geodesic path scores its actual defect.
    """
    samples = tuple(samples)    # ``Trajectory.samples`` builds per access
    worst = 0.0
    for i in range(1, len(samples) - 1):
        before, here, after = samples[i - 1], samples[i], samples[i + 1]
        left = here.s - before.s
        right = after.s - here.s
        if abs(left - right) > 1e-9 * max(left, right):
            continue
        span = after.s - before.s
        numeric = ((after.state.du - before.state.du) / span,
                   (after.state.dv - before.state.dv) / span,
                   (after.state.dt - before.state.dt) / span)
        analytic = geodesic_rhs(fam, here.state)[3:]
        worst = max(worst, max(abs(x - y) for x, y in zip(numeric, analytic)))
    return worst


def shift_samples(samples, du: float = 0.0, dv: float = 0.0):
    """Samples with rotated coordinates u+du, v+dv (velocities unchanged),
    as produced by applying a one-parameter isometry to the whole path."""
    shifted = []
    for sample in samples:
        state = sample.state
        moved = GeodesicState(state.u + du, state.v + dv, state.t,
                              state.du, state.dv, state.dt)
        shifted.append(Sample(sample.s, moved, sample.L, sample.p_u, sample.p_v))
    return shifted
