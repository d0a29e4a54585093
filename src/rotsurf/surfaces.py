"""The three rotational families as 3-parameter maps (u, v, t) -> 4-space.

Each family rotates a planar profile curve gamma(t) by two commuting
coordinate-plane rotations with angles u and v.  The profile has one
component fa(t) in the u-rotation plane and one component fb(t) in the
v-rotation plane, so the induced metric is diagonal:

    E(t) du^2 + G(t) dv^2 + N(t) dt^2

with E = +-fa^2, G = +-fb^2 and N a signed sum of fa'^2 and fb'^2.  The
signs are fixed per family and variant by where the profile components
sit, and are cross-checked against the immersion by the test suite.

Angles u, v are cyclic, which is what makes the conjugate momenta
2*E*du and 2*G*dv conserved along geodesics (see ``geodesics``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from .ambient import Vector4
from .expressions import ProfileFunction
from .isometries import Rotation

__all__ = [
    "FamilyKind",
    "Variant",
    "MetricCoefficients",
    "GeodesicState",
    "SurfaceFamily",
    "DegenerateMetricError",
    "NotTimelikeError",
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


@dataclass(frozen=True)
class _Layout:
    """Slot bookkeeping for one (kind, variant) pair.

    ``plane_u``/``plane_v`` are the coordinate planes the two rotations
    act on; ``fa_pos``/``fb_pos`` say which slot of its plane the profile
    component occupies.  ``e_sign, g_sign`` give E = e_sign*fa^2 and
    G = g_sign*fb^2; ``na_sign, nb_sign`` give
    N = na_sign*fa'^2 + nb_sign*fb'^2.  ``mom_sign_u/v`` relate the
    angle-form invariants 2*fa^2*du and 2*fb^2*dv to the momenta:
    invariant1 = mom_sign_u * p_u, invariant2 = mom_sign_v * p_v.
    """

    plane_u: tuple[int, int]
    plane_v: tuple[int, int]
    hyperbolic: bool
    fa_pos: int
    fb_pos: int
    rot_u: Rotation
    rot_v: Rotation
    e_sign: float
    g_sign: float
    na_sign: float
    nb_sign: float
    mom_sign_u: float
    mom_sign_v: float


_LAYOUTS: dict[tuple[FamilyKind, Variant], _Layout] = {
    (FamilyKind.HYPERBOLIC14, Variant.A): _Layout(
        (0, 2), (1, 3), True, 0, 1, Rotation.BOOST_13, Rotation.BOOST_24,
        +1.0, -1.0, -1.0, +1.0, +1.0, +1.0),
    (FamilyKind.HYPERBOLIC14, Variant.B): _Layout(
        (0, 2), (1, 3), True, 1, 0, Rotation.BOOST_13, Rotation.BOOST_24,
        -1.0, +1.0, +1.0, -1.0, -1.0, -1.0),
    (FamilyKind.HYPERBOLIC23, Variant.A): _Layout(
        (0, 3), (1, 2), True, 0, 0, Rotation.BOOST_14, Rotation.BOOST_23,
        +1.0, +1.0, -1.0, -1.0, +1.0, +1.0),
    (FamilyKind.HYPERBOLIC23, Variant.B): _Layout(
        (0, 3), (1, 2), True, 1, 1, Rotation.BOOST_14, Rotation.BOOST_23,
        -1.0, -1.0, +1.0, +1.0, -1.0, -1.0),
    (FamilyKind.ELLIPTIC56, Variant.A): _Layout(
        (0, 1), (2, 3), False, 1, 1, Rotation.SPIN_12, Rotation.SPIN_34,
        -1.0, +1.0, -1.0, +1.0, -1.0, +1.0),
    (FamilyKind.ELLIPTIC56, Variant.B): _Layout(
        (0, 1), (2, 3), False, 0, 0, Rotation.SPIN_12, Rotation.SPIN_34,
        -1.0, +1.0, -1.0, +1.0, -1.0, +1.0),
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

    @property
    def det(self) -> float:
        return self.E * self.G * self.N

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


def _block(hyperbolic: bool, angle: float, pair: tuple[float, float]):
    a, b = pair
    if hyperbolic:
        ch, sh = math.cosh(angle), math.sinh(angle)
        return (ch * a + sh * b, sh * a + ch * b)
    co, si = math.cos(angle), math.sin(angle)
    return (co * a + si * b, -si * a + co * b)


def _block_deriv(hyperbolic: bool, angle: float, pair: tuple[float, float]):
    a, b = pair
    if hyperbolic:
        ch, sh = math.cosh(angle), math.sinh(angle)
        return (sh * a + ch * b, ch * a + sh * b)
    co, si = math.cos(angle), math.sin(angle)
    return (-si * a + co * b, -co * a - si * b)


@dataclass(frozen=True)
class SurfaceFamily:
    """A rotational family with its two profile functions."""

    kind: FamilyKind
    variant: Variant
    fa: ProfileFunction
    fb: ProfileFunction

    def __post_init__(self):
        if (self.fa.t_min, self.fa.t_max) != (self.fb.t_min, self.fb.t_max):
            raise ValueError("fa and fb must share one domain interval")

    @cached_property
    def layout(self) -> _Layout:
        # kept on the instance: the metric bundle reads it at every RK4 stage
        return _LAYOUTS[(self.kind, self.variant)]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.fa.t_min, self.fa.t_max)

    def generator(self, which: str) -> Rotation:
        if which == "u":
            return self.layout.rot_u
        if which == "v":
            return self.layout.rot_v
        raise ValueError("which must be 'u' or 'v'")

    # -- profile plumbing ---------------------------------------------------

    def _pair_u(self, value: float) -> tuple[float, float]:
        return (value, 0.0) if self.layout.fa_pos == 0 else (0.0, value)

    def _pair_v(self, value: float) -> tuple[float, float]:
        return (value, 0.0) if self.layout.fb_pos == 0 else (0.0, value)

    def profile_curve(self, t: float, check: bool = True) -> Vector4:
        """gamma(t): the unrotated profile point."""
        return self.immerse_values(self.fa.evaluate(t, check),
                                   self.fb.evaluate(t, check), 0.0, 0.0)

    # -- geometry -----------------------------------------------------------

    def immerse_values(self, fa_value: float, fb_value: float,
                       u: float, v: float) -> Vector4:
        """Immersed point from raw profile values (no domain logic)."""
        lay = self.layout
        comps = [0.0, 0.0, 0.0, 0.0]
        pu = _block(lay.hyperbolic, u, self._pair_u(fa_value))
        pv = _block(lay.hyperbolic, v, self._pair_v(fb_value))
        comps[lay.plane_u[0]], comps[lay.plane_u[1]] = pu
        comps[lay.plane_v[0]], comps[lay.plane_v[1]] = pv
        return Vector4(*comps)

    def immerse(self, u: float, v: float, t: float) -> Vector4:
        return self.immerse_values(self.fa.evaluate(t), self.fb.evaluate(t), u, v)

    def frame_values(self, fa_value: float, fb_value: float,
                     dfa_value: float, dfb_value: float,
                     u: float, v: float) -> tuple[Vector4, Vector4, Vector4]:
        """Coordinate tangent vectors (d/du, d/dv, d/dt) from raw values."""
        lay = self.layout
        iu, ju = lay.plane_u
        iv, jv = lay.plane_v

        comps = [0.0, 0.0, 0.0, 0.0]
        comps[iu], comps[ju] = _block_deriv(lay.hyperbolic, u, self._pair_u(fa_value))
        du_vec = Vector4(*comps)

        comps = [0.0, 0.0, 0.0, 0.0]
        comps[iv], comps[jv] = _block_deriv(lay.hyperbolic, v, self._pair_v(fb_value))
        dv_vec = Vector4(*comps)

        comps = [0.0, 0.0, 0.0, 0.0]
        comps[iu], comps[ju] = _block(lay.hyperbolic, u, self._pair_u(dfa_value))
        comps[iv], comps[jv] = _block(lay.hyperbolic, v, self._pair_v(dfb_value))
        dt_vec = Vector4(*comps)

        return du_vec, dv_vec, dt_vec

    def tangent_frame(self, u: float, v: float, t: float):
        return self.frame_values(self.fa.evaluate(t), self.fb.evaluate(t),
                                 self.fa.derivative(t), self.fb.derivative(t), u, v)

    # -- metric -------------------------------------------------------------

    def metric_coefficients(self, t: float) -> MetricCoefficients:
        lay = self.layout
        fa = self.fa.evaluate(t)
        fb = self.fb.evaluate(t)
        dfa = self.fa.derivative(t)
        dfb = self.fb.derivative(t)
        return MetricCoefficients(
            E=lay.e_sign * fa * fa,
            G=lay.g_sign * fb * fb,
            N=lay.na_sign * dfa * dfa + lay.nb_sign * dfb * dfb,
        )

    def metric_bundle(self, t: float):
        """(E, G, N, dE/dt, dG/dt, dN/dt) in one pass over the profiles."""
        lay = self.layout
        fa = self.fa.evaluate(t)
        fb = self.fb.evaluate(t)
        dfa = self.fa.derivative(t)
        dfb = self.fb.derivative(t)
        d2fa = self.fa.second_derivative(t)
        d2fb = self.fb.second_derivative(t)
        e = lay.e_sign * fa * fa
        g = lay.g_sign * fb * fb
        n = lay.na_sign * dfa * dfa + lay.nb_sign * dfb * dfb
        de = 2.0 * lay.e_sign * fa * dfa
        dg = 2.0 * lay.g_sign * fb * dfb
        dn = 2.0 * (lay.na_sign * dfa * d2fa + lay.nb_sign * dfb * d2fb)
        return e, g, n, de, dg, dn

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
    if isinstance(kind, str):
        kind = FamilyKind(kind)
    if isinstance(variant, str):
        variant = Variant(variant)
    fa = ProfileFunction.from_text(fa_text, t_min, t_max)
    fb = ProfileFunction.from_text(fb_text, t_min, t_max)
    return SurfaceFamily(kind, variant, fa, fb)

