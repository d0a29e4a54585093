"""The three rotational families as 3-parameter maps (u, v, t) -> 4-space.

Each family rotates a planar profile curve gamma(t) by two commuting
coordinate-plane rotations with angles u and v.  The profile has one
component fa(t) in the u-rotation plane and one component fb(t) in the
v-rotation plane, so the induced metric is diagonal:

    E(t) du^2 + G(t) dv^2 + N(t) dt^2

with E = +-fa^2, G = +-fb^2 and N a signed sum of fa'^2 and fb'^2.  A
rotation preserves the inner product on its plane, so E and G take the
``METRIC_DIAGONAL`` sign of the slot the profile component does not
occupy and N those of the slots they do: ``_Layout`` derives every sign
from the rotation planes and the variant's profile slots, and the test
suite cross-checks them against the immersion.  Each family's rotations,
slots and laws live in one ``FamilySpec``.

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
    """A metric coefficient that is not finite: a numerical failure, not a
    domain error of the profiles."""

    def __init__(self):
        super().__init__("metric overflow")


class _Layout:
    """Slot bookkeeping for one (kind, variant) pair, derived once:
    E = e_sign*fa^2, G = g_sign*fb^2, N = na_sign*fa'^2 + nb_sign*fb'^2,
    and invariant1 = mom_sign_u * p_u, invariant2 = mom_sign_v * p_v.
    ``fa_pos``/``fb_pos`` are the slots the profile components occupy.
    """

    def __init__(self, spec: FamilySpec, fa_pos: int, fb_pos: int):
        self.rot_u, self.rot_v = spec.rot_u, spec.rot_v
        self.plane_u, self.plane_v = spec.rot_u.plane, spec.rot_v.plane
        self.fa_pos, self.fb_pos = fa_pos, fb_pos
        self.e_sign = METRIC_DIAGONAL[self.plane_u[1 - fa_pos]]
        self.g_sign = METRIC_DIAGONAL[self.plane_v[1 - fb_pos]]
        self.na_sign = METRIC_DIAGONAL[self.plane_u[fa_pos]]
        self.nb_sign = METRIC_DIAGONAL[self.plane_v[fb_pos]]
        self.mom_sign_u = self.e_sign
        self.mom_sign_v = spec.inv2_sign * self.g_sign

    def place(self, pu=(0.0, 0.0), pv=(0.0, 0.0)) -> tuple:
        """The 4 components with ``pu`` in plane_u and ``pv`` in plane_v."""
        comps = [0.0, 0.0, 0.0, 0.0]
        comps[self.plane_u[0]], comps[self.plane_u[1]] = pu
        comps[self.plane_v[0]], comps[self.plane_v[1]] = pv
        return tuple(comps)

    def vector(self, pu=(0.0, 0.0), pv=(0.0, 0.0)) -> Vector4:
        return Vector4(*self.place(pu, pv))


class FamilySpec:
    """One family's rotations, profile slots and laws, in one place.

    ``slots`` gives each variant's (fa_pos, fb_pos), ``layouts`` the
    ``_Layout`` derived from it.  The laws of the family's Clairaut
    statement, with (a, b, dt) = (fa*du, fb*dv, dt):

    * ``velocity(phi, theta)`` -> (a, b, dt), the angle decomposition;
    * ``invert(a, b, dt, tol)`` -> (phi, theta, ok, residual), where
      ``residual`` is the defect of the identity (a, b, dt) must satisfy;
    * ``invariants(fa, fb, phi, theta)``: 2*fa^2*du, inv2_sign*2*fb^2*dv;
    * ``slope(fa, phi, theta, lagr)`` -> (dt/du, radicand of its root).

    The normal frame and curvature of a double-rotation surface need no
    law of their own: ``curvature`` derives them from the layout alone.
    """

    rot_u: Rotation
    rot_v: Rotation
    slots: dict[Variant, tuple[int, int]]
    inv2_sign = 1.0

    def __init__(self):
        self.layouts = {variant: _Layout(self, fa_pos, fb_pos)
                        for variant, (fa_pos, fb_pos) in self.slots.items()}


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

    def invert(self, a, b, dt, tol):
        residual = abs(a * a + b * b - dt * dt - 1.0)
        ok = abs(a) <= 1.0 + tol and b >= -tol and residual <= tol
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

    def invert(self, a, b, dt, tol):
        sq = (dt - 1.0) * (dt + 1.0)
        residual = abs(a * a + b * b - sq)
        ok = dt >= 1.0 - tol and residual <= tol
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

    def invert(self, a, b, dt, tol):
        sq = (1.0 - dt) * (1.0 + dt)
        residual = abs(a * a - b * b - sq)
        ok = abs(dt) <= 1.0 + tol and a >= -tol and residual <= tol
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


_SPECS: dict[FamilyKind, FamilySpec] = {
    FamilyKind.HYPERBOLIC14: _Hyperbolic14(),
    FamilyKind.HYPERBOLIC23: _Hyperbolic23(),
    FamilyKind.ELLIPTIC56: _Elliptic56(),
}


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
        """E du^2 + G dv^2 + N dt^2 at ``state``'s velocity."""
        return math.fsum((self.E * state.du * state.du,
                          self.G * state.dv * state.dv,
                          self.N * state.dt * state.dt))

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


def _turn(block, pos: int, value: float) -> tuple[float, float]:
    """A rotation ``block`` applied to ``value`` in slot ``pos`` of its plane."""
    m_ii, m_ij, m_ji, m_jj = block
    a, b = (value, 0.0) if pos == 0 else (0.0, value)
    return (m_ii * a + m_ij * b, m_ji * a + m_jj * b)


def _emit_pair(lowering: _Lowering, first: ProfileFunction,
               second: ProfileFunction) -> list[str]:
    """Emit (p, q, p', q', p'', q'') of two profiles, in that order, into
    ``lowering``; return the names of the six values."""
    return [lowering.emit(tree) for tree in (first.value, second.value,
                                             first.d1, second.d1,
                                             first.d2, second.d2)]


def _lower_bundle(fam: SurfaceFamily) -> Callable[[float], tuple]:
    """``fam.metric_bundle`` as one generated function of t: one domain
    check, then fa, fb, fa', fb', fa'', fb'' lowered in that order into one
    body, with the checks and messages of the six ``ProfileFunction``
    calls it replaces, then the bundle's arithmetic."""
    lay = fam.layout
    lowering = _Lowering()
    lowering.namespace.update(
        t_min=fam.fa.t_min, t_max=fam.fa.t_max, outside=fam.fa._outside,
        e_sign=lay.e_sign, g_sign=lay.g_sign, na_sign=lay.na_sign,
        nb_sign=lay.nb_sign)
    lowering.lines.append("if not (t_min <= t <= t_max): raise outside(t)")
    fa, fb, dfa, dfb, d2fa, d2fb = _emit_pair(lowering, fam.fa, fam.fb)
    lowering.lines += [
        f"e = e_sign * {fa} * {fa}",
        f"g = g_sign * {fb} * {fb}",
        f"n = na_sign * {dfa} * {dfa} + nb_sign * {dfb} * {dfb}",
        f"de = 2.0 * e_sign * {fa} * {dfa}",
        f"dg = 2.0 * g_sign * {fb} * {dfb}",
        f"dn = 2.0 * (na_sign * {dfa} * {d2fa} + nb_sign * {dfb} * {d2fb})",
    ]
    return lowering.function("(e, g, n, de, dg, dn)")


@dataclass(frozen=True)
class SurfaceFamily:
    """A rotational family with its two profile functions.

    The generated metric bundle is built on first use and kept on the
    instance, outside the dataclass fields, like ``ProfileFunction``'s
    lowered trees: equality, repr and pickling see only the fields."""

    kind: FamilyKind
    variant: Variant
    fa: ProfileFunction
    fb: ProfileFunction

    def __post_init__(self):
        if (self.fa.t_min, self.fa.t_max) != (self.fb.t_min, self.fb.t_max):
            raise ValueError("fa and fb must share one domain interval")

    def __getstate__(self):
        # the layout and the generated bundle are rebuilt on demand
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @property
    def spec(self) -> FamilySpec:
        return _SPECS[self.kind]

    @cached_property
    def layout(self) -> _Layout:
        # kept on the instance: the immersion and its frame read it per call
        return _SPECS[self.kind].layouts[self.variant]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.fa.t_min, self.fa.t_max)

    def generator(self, which: str) -> Rotation:
        if which == "u":
            return self.spec.rot_u
        if which == "v":
            return self.spec.rot_v
        raise ValueError("which must be 'u' or 'v'")

    # -- geometry -----------------------------------------------------------

    def immerse_values(self, fa_value: float, fb_value: float,
                       u: float, v: float) -> Vector4:
        """Immersed point from raw profile values (no domain logic)."""
        lay = self.layout
        return lay.vector(_turn(lay.rot_u.block(u), lay.fa_pos, fa_value),
                          _turn(lay.rot_v.block(v), lay.fb_pos, fb_value))

    def immerse(self, u: float, v: float, t: float) -> Vector4:
        return self.immerse_values(self.fa.evaluate(t), self.fb.evaluate(t), u, v)

    def frame_values(self, fa_value: float, fb_value: float,
                     dfa_value: float, dfb_value: float,
                     u: float, v: float) -> tuple[Vector4, Vector4, Vector4]:
        """Coordinate tangent vectors (d/du, d/dv, d/dt) from raw values."""
        lay = self.layout
        rot_u, rot_v, fa_pos, fb_pos = lay.rot_u, lay.rot_v, lay.fa_pos, lay.fb_pos
        return (lay.vector(pu=_turn(rot_u.block_deriv(u), fa_pos, fa_value)),
                lay.vector(pv=_turn(rot_v.block_deriv(v), fb_pos, fb_value)),
                lay.vector(_turn(rot_u.block(u), fa_pos, dfa_value),
                           _turn(rot_v.block(v), fb_pos, dfb_value)))

    def tangent_frame(self, u: float, v: float, t: float):
        return self.frame_values(self.fa.evaluate(t), self.fb.evaluate(t),
                                 self.fa.derivative(t), self.fb.derivative(t), u, v)

    # -- metric -------------------------------------------------------------

    def metric_coefficients(self, t: float) -> MetricCoefficients:
        return self.metric_values(self.fa.evaluate(t), self.fb.evaluate(t),
                                  self.fa.derivative(t), self.fb.derivative(t))

    def metric_values(self, fa: float, fb: float, dfa: float,
                      dfb: float) -> MetricCoefficients:
        """Metric coefficients from raw profile values (no domain logic);
        ``MetricOverflowError`` when one of them is not finite."""
        lay = self.layout
        e = lay.e_sign * fa * fa
        g = lay.g_sign * fb * fb
        n = lay.na_sign * dfa * dfa + lay.nb_sign * dfb * dfb
        if not (math.isfinite(e) and math.isfinite(g) and math.isfinite(n)):
            raise MetricOverflowError()
        return MetricCoefficients(E=e, G=g, N=n)

    @cached_property
    def _bundle_fn(self) -> Callable[[float], tuple]:
        return _lower_bundle(self)

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

