"""Geodesic flow on the rotational families, with conserved quantities.

The Lagrangian L = E(t) u'^2 + G(t) v'^2 + N(t) t'^2 has cyclic angles
u and v, so its extremal equations reduce to

    u'' = -(E'/E) u' t'
    v'' = -(G'/G) v' t'
    t'' = (E' u'^2 + G' v'^2 - N' t'^2) / (2 N)

with conserved conjugate momenta p_u = 2 E u' and p_v = 2 G v' and a
conserved L.  ``integrate`` runs a fixed-step classical 4th-order scheme
and records per-sample diagnostics so conservation drift is auditable.

For timelike flows each family admits an angle decomposition of the
velocity against the meridian direction; the decomposed momenta are the
classical Clairaut-style invariants (``clairaut_report``), and the slope
dt/du of the flow satisfies a closed-form law in those angles (``slope``).
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic flow.  ``termination`` is one of ``completed``,
    ``domain_exit``, ``degenerate_metric``, ``nonfinite_state``."""

    samples: tuple[Sample, ...]
    termination: str
    requested_length: float

    @property
    def final(self) -> Sample:
        return self.samples[-1]

    @property
    def reached_length(self) -> float:
        return self.samples[-1].s

    def drifts(self) -> dict[str, float]:
        first = self.samples[0]
        out = {"p_u_drift": 0.0, "p_v_drift": 0.0, "L_drift": 0.0}
        for sample in self.samples:
            out["p_u_drift"] = max(out["p_u_drift"], abs(sample.p_u - first.p_u))
            out["p_v_drift"] = max(out["p_v_drift"], abs(sample.p_v - first.p_v))
            out["L_drift"] = max(out["L_drift"], abs(sample.L - first.L))
        return out


def _rhs_from_bundle(y, bundle):
    u, v, t, du, dv, dt = y
    e, g, n, de, dg, dn = bundle
    if e == 0.0 or g == 0.0 or n == 0.0:
        raise DegenerateMetricError(t)
    ddu = -(de / e) * du * dt
    ddv = -(dg / g) * dv * dt
    ddt = (de * du * du + dg * dv * dv - dn * dt * dt) / (2.0 * n)
    return (du, dv, dt, ddu, ddv, ddt)


def _rhs(fam: SurfaceFamily, y):
    return _rhs_from_bundle(y, fam.metric_bundle(y[2]))


def geodesic_rhs(fam: SurfaceFamily, state: GeodesicState):
    """State derivative (du, dv, dt, u'', v'', t'') of the geodesic system."""
    return _rhs(fam, state.as_tuple())


def momenta(fam: SurfaceFamily, state: GeodesicState) -> tuple[float, float]:
    """Conjugate momenta (2 E du, 2 G dv) of the cyclic angles."""
    return fam.metric_coefficients(state.t).momenta(state)


def _rk4_step(fam: SurfaceFamily, y, h: float, bundle):
    """One RK4 step; ``bundle`` is the metric bundle at ``y``."""
    half = 0.5 * h
    sixth = h / 6.0
    k1 = _rhs_from_bundle(y, bundle)
    k2 = _rhs(fam, [a + half * b for a, b in zip(y, k1)])
    k3 = _rhs(fam, [a + half * b for a, b in zip(y, k2)])
    k4 = _rhs(fam, [a + h * b for a, b in zip(y, k3)])
    return tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def _make_sample(fam: SurfaceFamily, s: float, y):
    """The sample at ``y`` and the metric bundle it was computed from,
    which the next step reuses as its first stage."""
    state = GeodesicState(*y)
    bundle = fam.metric_bundle(state.t)
    e, g, n, _, _, _ = bundle
    lagr = math.fsum((e * state.du * state.du, g * state.dv * state.dv,
                      n * state.dt * state.dt))
    return Sample(s, state, lagr, 2.0 * e * state.du, 2.0 * g * state.dv), bundle


def integrate(fam: SurfaceFamily, state0: GeodesicState, length: float,
              step: float) -> Trajectory:
    """Fixed-step classical RK4 integration of the geodesic system from
    ``state0``.

    Samples at every step plus the endpoint ``s = length``.  The run aborts
    cleanly (partial trajectory, ``termination`` set) when t leaves the
    profile domain, a metric coefficient vanishes, or the state stops
    being finite.
    """
    if not (length > 0.0 and math.isfinite(length)):
        raise ValueError("length must be > 0")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be > 0")
    if step > length:
        raise ValueError("step must be <= length")

    t_min, t_max = fam.domain
    y = state0.as_tuple()
    sample, bundle = _make_sample(fam, 0.0, y)
    samples = [sample]
    n_steps = math.ceil(length / step - 1e-9)
    previous_s = 0.0
    termination = "completed"
    for i in range(1, n_steps + 1):
        s_next = length if i == n_steps else i * step
        h = s_next - previous_s
        try:
            y_next = _rk4_step(fam, y, h, bundle)
            if not all(math.isfinite(value) for value in y_next):
                termination = "nonfinite_state"
                break
            if not (t_min <= y_next[2] <= t_max):
                termination = "domain_exit"
                break
            sample, bundle = _make_sample(fam, s_next, y_next)
        except DomainError:
            termination = "domain_exit"
            break
        except DegenerateMetricError:
            termination = "degenerate_metric"
            break
        samples.append(sample)
        y = y_next
        previous_s = s_next
    return Trajectory(tuple(samples), termination, length)


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
    return _extract_angles(fam.spec, fa, fb, state, tol)


def _extract_angles(spec: FamilySpec, fa: float, fb: float,
                    state: GeodesicState, tol: float) -> AngleDecomposition:
    targets = (fa * state.du, fb * state.dv, state.dt)
    phi, theta, ok, residual = spec.invert(*targets, tol)
    if ok:
        # the angles must actually reproduce the velocity triple
        recon = spec.velocity(phi, theta)
        recon_err = max(abs(r - w) for r, w in zip(recon, targets))
        scale = 1.0 + max(abs(w) for w in targets)
        if recon_err > 10.0 * tol * scale:
            ok = False
    if not ok:
        return AngleDecomposition(0.0, 0.0, False, residual)
    return AngleDecomposition(phi, theta, True, residual)


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


def clairaut_report(fam: SurfaceFamily, state: GeodesicState,
                    tol: float = 1e-9) -> ClairautReport:
    t = state.t
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    coeffs = fam.metric_values(fa, fb, fam.fa.derivative(t), fam.fb.derivative(t))
    lagr = coeffs.lagrangian(state)
    p_u, p_v = coeffs.momenta(state)
    angles = _extract_angles(fam.spec, fa, fb, state, tol)
    if angles.defined:
        inv1, inv2 = fam.spec.invariants(fa, fb, angles.phi, angles.theta)
    else:
        lay = fam.layout
        inv1 = lay.mom_sign_u * p_u
        inv2 = lay.mom_sign_v * p_v
    return ClairautReport(lagr, p_u, p_v, inv1, inv2, angles)


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
