"""The three rotational families as 3-parameter maps (u, v, t) -> 4-space.

Each family rotates a planar profile curve gamma(t) by two commuting
coordinate-plane rotations with angles u and v.  The profile has one
component fa(t) in the u-rotation plane and one component fb(t) in the
v-rotation plane, so the induced metric is diagonal:

    E(t) du^2 + G(t) dv^2 + N(t) dt^2

with E = +-fa^2, G = +-fb^2 and N a signed sum of fa'^2 and fb'^2.  A
rotation preserves the inner product on its plane, so E and G take the
``METRIC_DIAGONAL`` sign of the slot the profile component does not
occupy and N those of the slots they do.  One ``FamilySpec`` per (family,
variant) pair holds the rotations, profile slots, signs and laws.

Angles u, v are cyclic, which is what makes the conjugate momenta
2*E*du and 2*G*dv conserved along geodesics (see ``geodesics``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from typing import Callable

from .ambient import METRIC_DIAGONAL, Vector4
from .expressions import DomainError, ProfileFunction, _Lowering
from .isometries import Rotation

__all__ = [
    "FamilyKind",
    "FamilySpec",
    "Variant",
    "MetricCoefficients",
    "GeodesicState",
    "SurfaceFamily",
    "DegenerateMetricError",
    "NotTimelikeError",
    "MetricOverflowError",
    "make_family",
]


class FamilyKind(Enum):
    HYPERBOLIC14 = "hyperbolic14"
    HYPERBOLIC23 = "hyperbolic23"
    ELLIPTIC56 = "elliptic56"


class Variant(Enum):
    A = "A"
    B = "B"


class DegenerateMetricError(ValueError):
    """A metric coefficient vanished where it must not."""

    def __init__(self, t: float, which: str = "metric"):
        super().__init__(f"{which} degenerate at t={t!r}")
        self.t = t


class NotTimelikeError(ValueError):
    """Normalisation requested for a state that is not timelike."""


class MetricOverflowError(DomainError):
    """A metric coefficient or Lagrangian that is not finite: a numerical
    failure, not a domain error of the profiles."""

    def __init__(self):
        super().__init__("metric overflow")


#: Tolerance of the angle decompositions (``FamilySpec.invert``, ``angles``).
TOL = 1e-9


class FamilySpec:
    """One (family, variant) pair: rotations, profile slots, signs and laws.

    The class holds the family's rotations, laws and ``slots`` (each
    variant's (fa_pos, fb_pos)); the instance for a variant derives once
    E = e_sign*fa^2, G = g_sign*fb^2, N = na_sign*fa'^2 + nb_sign*fb'^2,
    invariant1, 2 = mom_sign_u * p_u, mom_sign_v * p_v and ``signs`` =
    (e, g, na, nb, sigma, rho), sigma = +1 for boosts and -1 for spins
    (R'' = sigma R; a family's rotations are of one kind), rho = -e*g.

    The laws of its Clairaut statement, with (a, b, dt) = (fa*du, fb*dv, dt):

    * ``velocity(phi, theta)`` -> (a, b, dt), the angle decomposition;
    * ``invert(a, b, dt)`` -> (phi, theta, ok, residual), phi = theta = 0
      unless ok, ``residual`` the defect of the identity (a, b, dt) obeys;
    * ``invariants(fa, fb, phi, theta)``: 2*fa^2*du, inv2_sign*2*fb^2*dv;
    * ``slope(fa, phi, theta, lagr)`` -> (dt/du, radicand of its root).

    ``angles`` and ``clairaut`` make the decision built on these laws,
    once for every caller.  ``curvature`` needs no law of its own: it derives
    the normal frame and curvature of a double-rotation surface from
    ``signs`` and ``columns``.
    """

    rot_u: Rotation
    rot_v: Rotation
    slots: dict[Variant, tuple[int, int]]
    inv2_sign = 1.0

    def __init__(self, variant: Variant):
        self.fa_pos, self.fb_pos = fa_pos, fb_pos = self.slots[variant]
        self.plane_u, self.plane_v = pu, pv = self.rot_u.plane, self.rot_v.plane
        self._order = tuple(map((pu + pv).index, range(4)))
        self.e_sign = e = METRIC_DIAGONAL[pu[1 - fa_pos]]
        self.g_sign = g = METRIC_DIAGONAL[pv[1 - fb_pos]]
        self.na_sign = na = METRIC_DIAGONAL[pu[fa_pos]]
        self.nb_sign = nb = METRIC_DIAGONAL[pv[fb_pos]]
        self.mom_sign_u, self.mom_sign_v = e, self.inv2_sign * g
        sigma = 1.0 if self.rot_u.hyperbolic else -1.0
        self.signs = (e, g, na, nb, sigma, -e * g)

    def columns(self, u: float, v: float) -> tuple:
        """The profile columns of R_u(u), R_u'(u), R_v(v) and R_v'(v): each
        block's column at its profile slot, the image of a unit value there."""
        iu, iv = self.fa_pos, self.fb_pos
        ru, rv = self.rot_u.block(u), self.rot_v.block(v)
        return (ru[iu::2], self.rot_u.derivative(ru)[iu::2],
                rv[iv::2], self.rot_v.derivative(rv)[iv::2])

    def angles(self, a: float, b: float, dt: float) -> tuple:
        """(phi, theta, defined, residual) of (a, b, dt) = (fa*du, fb*dv, dt):
        ``invert``'s angles if ``velocity`` takes them back to (a, b, dt)
        within ``TOL``, else phi = theta = 0 and defined = False."""
        phi, theta, ok, residual = self.invert(a, b, dt)
        if ok:  # the angles must actually reproduce the velocity triple
            ra, rb, rdt = self.velocity(phi, theta)
            recon_err = max(abs(ra - a), abs(rb - b), abs(rdt - dt))
            if recon_err > 10.0 * TOL * (1.0 + max(abs(a), abs(b), abs(dt))):
                return 0.0, 0.0, False, residual
        return phi, theta, ok, residual

    def clairaut(self, fa, fb, du, dv, dt, p_u, p_v) -> tuple:
        """(invariant1, invariant2, ``angles``' tuple) at one state: the
        angle forms when the velocity has angles, else the signed momenta."""
        angles = phi, theta, defined, _ = self.angles(fa * du, fb * dv, dt)
        if defined:
            return (*self.invariants(fa, fb, phi, theta), angles)
        return self.mom_sign_u * p_u, self.mom_sign_v * p_v, angles

    def vector(self, comps) -> list[float]:
        """Standard coordinates of plane ones: u-plane slots, v-plane's."""
        return [comps[k] for k in self._order]


class _Hyperbolic14(FamilySpec):
    """Boosts in the x1x3 and x2x4 planes (boost-13/24):
    fa*du = cos(phi), fb*dv = cosh(theta) sin(phi), dt = sinh(theta) sin(phi).
    """

    rot_u, rot_v = Rotation.BOOST_13, Rotation.BOOST_24
    slots = {Variant.A: (0, 1), Variant.B: (1, 0)}
    inv2_sign = -1.0

    def velocity(self, phi, theta):
        sin_phi = math.sin(phi)
        return (math.cos(phi), math.cosh(theta) * sin_phi,
                math.sinh(theta) * sin_phi)

    def invert(self, a, b, dt):
        residual = abs(a * a + b * b - dt * dt - 1.0)
        ok = abs(a) <= 1.0 + TOL and b >= -TOL and residual <= TOL
        phi = math.acos(min(1.0, max(-1.0, a))) if ok else 0.0
        sin_phi = math.sin(phi)
        if ok and sin_phi > 1e-15:
            theta = math.asinh(dt / sin_phi)
        else:
            theta = 0.0
        return phi, theta, ok, residual

    def invariants(self, fa, fb, phi, theta):
        return (2.0 * fa * math.cos(phi),
                -2.0 * fb * math.cosh(theta) * math.sin(phi))

    def slope(self, fa, phi, theta, lagr):
        cos_phi = math.cos(phi)
        tan_phi = math.tan(phi)
        radicand = (1.0 - math.cosh(theta) ** 2 * tan_phi ** 2
                    - lagr / (cos_phi * cos_phi))
        return fa * math.sqrt(abs(radicand)), radicand


class _Hyperbolic23(FamilySpec):
    """Boosts in the x1x4 and x2x3 planes (boost-14/23):
    dt = cosh(phi), fa*du = sinh(phi) cos(theta), fb*dv = sinh(phi) sin(theta).
    """

    rot_u, rot_v = Rotation.BOOST_14, Rotation.BOOST_23
    slots = {Variant.A: (0, 0), Variant.B: (1, 1)}

    def velocity(self, phi, theta):
        sinh_phi = math.sinh(phi)
        return (sinh_phi * math.cos(theta), sinh_phi * math.sin(theta),
                math.cosh(phi))

    def invert(self, a, b, dt):
        sq = (dt - 1.0) * (dt + 1.0)
        residual = abs(a * a + b * b - sq)
        ok = dt >= 1.0 - TOL and residual <= TOL
        phi = math.acosh(max(1.0, dt)) if ok else 0.0
        theta = math.atan2(b, a) if ok and (a != 0.0 or b != 0.0) else 0.0
        return phi, theta, ok, residual

    def invariants(self, fa, fb, phi, theta):
        return (2.0 * fa * math.cos(theta) * math.sinh(phi),
                2.0 * fb * math.sin(theta) * math.sinh(phi))

    def slope(self, fa, phi, theta, lagr):
        radicand = math.sinh(phi) ** 2 - lagr
        return (fa * math.sqrt(abs(radicand))
                / (math.cos(theta) * math.sinh(phi))), radicand


class _Elliptic56(FamilySpec):
    """Spins in the x1x2 and x3x4 planes (spin family):
    dt = cos(phi), fa*du = sin(phi) cosh(theta), fb*dv = sin(phi) sinh(theta).
    """

    rot_u, rot_v = Rotation.SPIN_12, Rotation.SPIN_34
    slots = {Variant.A: (1, 1), Variant.B: (0, 0)}

    def velocity(self, phi, theta):
        sin_phi = math.sin(phi)
        return (sin_phi * math.cosh(theta), sin_phi * math.sinh(theta),
                math.cos(phi))

    def invert(self, a, b, dt):
        sq = (1.0 - dt) * (1.0 + dt)
        residual = abs(a * a - b * b - sq)
        ok = abs(dt) <= 1.0 + TOL and a >= -TOL and residual <= TOL
        phi = math.acos(min(1.0, max(-1.0, dt))) if ok else 0.0
        sin_phi = math.sin(phi)
        if ok and sin_phi > 1e-15:
            theta = math.asinh(b / sin_phi)
        else:
            theta = 0.0
        return phi, theta, ok, residual

    def invariants(self, fa, fb, phi, theta):
        return (2.0 * fa * math.sin(phi) * math.cosh(theta),
                2.0 * fb * math.sinh(theta) * math.sin(phi))

    def slope(self, fa, phi, theta, lagr):
        radicand = lagr + math.sin(phi) ** 2
        return (fa * math.sqrt(abs(radicand))
                / (math.sin(phi) * math.cosh(theta))), radicand


_SPECS: dict[tuple[FamilyKind, Variant], FamilySpec] = {
    (kind, variant): cls(variant) for variant in Variant
    for kind, cls in ((FamilyKind.HYPERBOLIC14, _Hyperbolic14),
                      (FamilyKind.HYPERBOLIC23, _Hyperbolic23),
                      (FamilyKind.ELLIPTIC56, _Elliptic56))}


@dataclass(frozen=True)
class MetricCoefficients:
    """Diagonal first-fundamental-form entries for du^2, dv^2, dt^2."""

    E: float
    G: float
    N: float

    @property
    def degenerate(self) -> bool:
        return self.E == 0.0 or self.G == 0.0 or self.N == 0.0

    def lagrangian(self, state: GeodesicState) -> float:
        """E du^2 + G dv^2 + N dt^2 at ``state``'s velocity;
        ``MetricOverflowError`` when it is not finite."""
        try:
            lagr = math.fsum((self.E * state.du * state.du,
                              self.G * state.dv * state.dv,
                              self.N * state.dt * state.dt))
        except (ValueError, OverflowError) as exc:  # inf - inf, or overflow
            raise MetricOverflowError() from exc
        if not math.isfinite(lagr):
            raise MetricOverflowError()
        return lagr

    def momenta(self, state: GeodesicState) -> tuple[float, float]:
        """Conjugate momenta (2 E du, 2 G dv) at ``state``'s velocity."""
        return (2.0 * self.E * state.du, 2.0 * self.G * state.dv)


@dataclass(frozen=True)
class GeodesicState:
    """Coordinates (u, v, t) and velocities with respect to arclength."""

    u: float
    v: float
    t: float
    du: float
    dv: float
    dt: float

    def __post_init__(self):
        for name in ("u", "v", "t", "du", "dv", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"state field {name} must be finite")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.u, self.v, self.t, self.du, self.dv, self.dt)


@dataclass(frozen=True)
class SurfaceFamily:
    """A rotational family with its two profile functions.

    Its six profile trees are lowered once, on first use (``_lowering``);
    the RK4 run, the metric bundle and the (fa, fb) pair are compiled from
    that body on their first use.  All are kept on the instance, outside
    the dataclass fields, which alone equality, repr and pickling see."""

    kind: FamilyKind
    variant: Variant
    fa: ProfileFunction
    fb: ProfileFunction

    def __post_init__(self):
        if (self.fa.t_min, self.fa.t_max) != (self.fb.t_min, self.fb.t_max):
            raise ValueError("fa and fb must share one domain interval")

    def __getstate__(self):
        # the spec and the generated functions are looked up on demand
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @cached_property
    def spec(self) -> FamilySpec:
        # kept on the instance: the immersion and its frame read it per call
        return _SPECS[self.kind, self.variant]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.fa.t_min, self.fa.t_max)

    # -- geometry -----------------------------------------------------------

    def immerse_values(self, fa_value: float, fb_value: float,
                       u: float, v: float) -> list[float]:
        """Immersed point's coordinates from raw values (no domain logic)."""
        spec = self.spec
        (cu0, cu1), _, (cv0, cv1), _ = spec.columns(u, v)
        return spec.vector((cu0 * fa_value, cu1 * fa_value,
                            cv0 * fb_value, cv1 * fb_value))

    def immerse(self, u: float, v: float, t: float) -> Vector4:
        return Vector4(*self.immerse_values(self.fa.evaluate(t),
                                            self.fb.evaluate(t), u, v))

    def frame_values(self, fa_value: float, fb_value: float,
                     dfa_value: float, dfb_value: float,
                     u: float, v: float) -> tuple[list[float], ...]:
        """Coordinates of the tangents d/du, d/dv, d/dt from raw values."""
        spec = self.spec
        (cu0, cu1), (du0, du1), (cv0, cv1), (dv0, dv1) = spec.columns(u, v)
        return (spec.vector((du0 * fa_value, du1 * fa_value, 0.0, 0.0)),
                spec.vector((0.0, 0.0, dv0 * fb_value, dv1 * fb_value)),
                spec.vector((cu0 * dfa_value, cu1 * dfa_value,
                             cv0 * dfb_value, cv1 * dfb_value)))

    def tangent_frame(self, u: float, v: float, t: float):
        return tuple(Vector4(*x) for x in self.frame_values(
            self.fa.evaluate(t), self.fb.evaluate(t),
            self.fa.derivative(t), self.fb.derivative(t), u, v))

    # -- metric -------------------------------------------------------------

    def metric_coefficients(self, t: float) -> MetricCoefficients:
        return self.metric_values(self.fa.evaluate(t), self.fb.evaluate(t),
                                  self.fa.derivative(t), self.fb.derivative(t))

    def metric_values(self, fa: float, fb: float, dfa: float,
                      dfb: float) -> MetricCoefficients:
        """Metric coefficients from raw profile values (no domain logic);
        ``MetricOverflowError`` when one of them is not finite."""
        spec = self.spec
        e = spec.e_sign * fa * fa
        g = spec.g_sign * fb * fb
        n = spec.na_sign * dfa * dfa + spec.nb_sign * dfb * dfb
        if not (math.isfinite(e) and math.isfinite(g) and math.isfinite(n)):
            raise MetricOverflowError()
        return MetricCoefficients(E=e, G=g, N=n)

    @cached_property
    def _lowering(self) -> tuple[_Lowering, tuple[str, int]]:
        """The statements of ``metric_bundle`` at ``t``: the domain check,
        then fa, fb, fa', fb', fa'', fb'' in that order over that domain (the
        six ``ProfileFunction`` calls' messages), then e, g, n, de, dg, dn,
        constants if free of ``t``; and (result, line count) of the (fa, fb)
        prefix.  ``geodesics._lower_run`` adds what only the run reads."""
        spec = self.spec
        lowering = _Lowering(self.domain)
        namespace = lowering.namespace
        namespace.update(
            t_min=self.fa.t_min, t_max=self.fa.t_max, outside=self.fa._outside,
            e_sign=spec.e_sign, g_sign=spec.g_sign, na_sign=spec.na_sign,
            nb_sign=spec.nb_sign, de_sign=2.0 * spec.e_sign,
            dg_sign=2.0 * spec.g_sign)
        lowering.lines.append("if not (t_min <= t <= t_max): raise outside(t)")
        fa, fb = lowering.emit(self.fa.value), lowering.emit(self.fb.value)
        pair = f"({fa}, {fb})", len(lowering.lines)
        dfa, dfb, d2fa, d2fb = map(lowering.emit, (
            self.fa.d1, self.fb.d1, self.fa.d2, self.fb.d2))
        for name, formula in (
                ("e", f"e_sign * {fa} * {fa}"),
                ("g", f"g_sign * {fb} * {fb}"),
                ("n", f"na_sign * {dfa} * {dfa} + nb_sign * {dfb} * {dfb}"),
                ("de", f"de_sign * {fa} * {dfa}"),
                ("dg", f"dg_sign * {fb} * {dfb}"),
                ("dn", f"2.0 * (na_sign * {dfa} * {d2fa}"
                       f" + nb_sign * {dfb} * {d2fb})")):
            try:  # free of t: its own text evaluated once, the same operations
                namespace[name] = eval(formula, dict(namespace))
            except NameError:  # reads t or a node's value
                lowering.lines.append(f"{name} = {formula}")
        return lowering, pair

    @cached_property
    def _bundle_fn(self) -> Callable[[float], tuple]:
        return self._lowering[0].function("(e, g, n, de, dg, dn)")

    @cached_property
    def _pair_fn(self) -> Callable[[float], tuple]:
        return self._lowering[0].function(*self._lowering[1])

    @cached_property
    def _run_fn(self) -> Callable[..., str]:
        from .geodesics import _lower_run  # geodesics imports this module
        return _lower_run(self)

    def metric_bundle(self, t: float):
        """(E, G, N, dE/dt, dG/dt, dN/dt) in one pass over the profiles."""
        return self._bundle_fn(t)

    # -- dynamics helpers ----------------------------------------------------

    def lagrangian(self, state: GeodesicState) -> float:
        """E du^2 + G dv^2 + N dt^2: the squared causal length of the
        pushed-forward velocity."""
        return self.metric_coefficients(state.t).lagrangian(state)

    def normalize_timelike(self, state: GeodesicState) -> GeodesicState:
        """Rescale velocities so the Lagrangian equals -1 (unit timelike)."""
        lagr = self.lagrangian(state)
        if lagr >= 0.0:
            raise NotTimelikeError(f"state has L={lagr!r} >= 0")
        scale = 1.0 / math.sqrt(-lagr)
        return replace(state, du=state.du * scale, dv=state.dv * scale,
                       dt=state.dt * scale)


def make_family(kind: FamilyKind | str, variant: Variant | str,
                fa_text: str, fb_text: str,
                t_min: float, t_max: float) -> SurfaceFamily:
    """Build a family from expression text and a shared domain."""
    fa = ProfileFunction.from_text(fa_text, t_min, t_max)
    fb = ProfileFunction.from_text(fb_text, t_min, t_max)
    return SurfaceFamily(FamilyKind(kind), Variant(variant), fa, fb)

