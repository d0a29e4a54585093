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
velocity against the meridian direction (``FamilySpec.law``); the
decomposed momenta are the Clairaut invariants (``FamilySpec.clairaut``,
``clairaut_report``), and dt/du obeys a closed-form law in them (``slope``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import itemgetter

from ._record import Record
from .expressions import DomainError
from .surfaces import DegenerateMetricError, GeodesicState, SurfaceFamily

__all__ = [
    "Sample",
    "Trajectory",
    "AngleDecomposition",
    "ClairautReport",
    "SlopeReport",
    "MeridianUndefinedError",
    "integrate",
    "momenta",
    "extract_angles",
    "state_from_angles",
    "clairaut_report",
    "slope",
    "invariant_rows",
]


# every step keeps a row, as does a config's every curvature grid point
_MAX_ROWS = 1_000_000

# a ``Trajectory.rows`` row's columns, then the two ``invariant_rows`` adds
_TRAJECTORY_COLUMNS = ("s", "u", "v", "t", "du", "dv", "dt", "L", "p_u", "p_v",
                       "inv1", "inv2")


class MeridianUndefinedError(ValueError):
    """dt/du requested on a state with du = 0."""


class Sample(Record):
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


class Trajectory(Record):
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
        rows, at = self.rows or ((0.0,) * 10,), _TRAJECTORY_COLUMNS.index
        return {f"{name}_drift": _drift(list(map(itemgetter(at(name)), rows)))
                for name in ("p_u", "p_v", "L")}


def _drift(column) -> float:
    """max |x - x_0| over ``column``, bit for bit: fl(x - x_0) is monotone
    in x and rounding is sign-symmetric, so (x_0, min, max) has it too."""
    x0 = column[0]
    return max(max(column) - x0, x0 - min(column))


def momenta(fam: SurfaceFamily, state: GeodesicState) -> tuple[float, float]:
    """Conjugate momenta (2 E du, 2 G dv) of the cyclic angles."""
    return fam.metric_coefficients(state.t).momenta(state)


# The fixed-step loop of ``integrate``, generated once per family.
# ``{bundle}`` stands for the metric bundle's statements, which compute e,
# g, n, de, dg, dn at ``t`` unless they are constants, then the run's own
# n2 = 2 n unless n is constant; they are inlined at each accepted state,
# the first one included, and at RK4 stages 2-4; stage 1 reuses the
# accepted state's.  ``{names}`` makes the namespace locals.  Local names
# avoid the lowering's ``c<k>`` and ``v<k>``.
_RUN = """\
def run(rows, y, s, first, stop, length, step, n_steps, *, {names}):
    u, v, t_acc, du1, dv1, dt1 = y
    for i in range(first, stop):  # row i - 1, then the step to row i
        t = t_acc  # the bundle opens with the domain check
{bundle}
        p_u, p_v = 2.0 * e * du1, 2.0 * g * dv1
        try:
            lagr = fsum((e * du1 * du1, g * dv1 * dv1, n * dt1 * dt1))
        except (ValueError, OverflowError):  # inf - inf, or a finite overflow
            lagr = nan
        # 0 * x is nan exactly when x is inf or nan
        if not isfinite(0.0 * lagr * p_u * p_v): return "nonfinite_state"
        rows.append((s, u, v, t_acc, du1, dv1, dt1, lagr, p_u, p_v))
        if i > n_steps: return "completed"
        s_next = length if i == n_steps else i * step
        h = s_next - s
        half, sixth = 0.5 * h, h / 6.0
{rhs1}
{stages}
        u, v, t_acc, du1, dv1, dt1 = (
            u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4),
            v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
            t_acc + sixth * (dt1 + 2.0 * dt2 + 2.0 * dt3 + dt4),
            du1 + sixth * (ddu1 + 2.0 * ddu2 + 2.0 * ddu3 + ddu4),
            dv1 + sixth * (ddv1 + 2.0 * ddv2 + 2.0 * ddv3 + ddv4),
            dt1 + sixth * (ddt1 + 2.0 * ddt2 + 2.0 * ddt3 + ddt4))
        if not isfinite(0.0 * u * v * t_acc * du1 * dv1 * dt1): return "nonfinite_state"
        s = s_next
    return (u, v, t_acc, du1, dv1, dt1), s  # row stop - 1's, to run on from
"""
# Stage k > 1: its t and velocities, at ``f`` times stage k - 1's
# derivative, and its bundle (a stage's u and v are never read); then, for
# every stage, ``{test}`` and its derivative, the geodesic equations of the
# module docstring with 2 n folded into n2.
_STAGE = """\
        t = t_acc + {f} * dt{j}
        du{k}, dv{k}, dt{k} = du1 + {f} * ddu{j}, dv1 + {f} * ddv{j}, dt1 + {f} * ddt{j}
{bundle}
"""
_RHS = """\
{test}        ddu{k} = -(de / e) * du{k} * dt{k}
        ddv{k} = -(dg / g) * dv{k} * dt{k}
        ddt{k} = (de * du{k} * du{k} + dg * dv{k} * dv{k} - dn * dt{k} * dt{k}) / n2"""


def _lower_run(fam: SurfaceFamily):
    """``_RUN`` over copies of ``fam``'s metric bundle and its namespace
    (``SurfaceFamily._lowering``) plus what only the run reads: n2 = 2 n,
    a constant if n is, and the test for 0 of e, g, n not known nonzero."""
    lowering = fam._lowering[0]
    lines, namespace = list(lowering.lines), dict(lowering.namespace)
    if "n" in namespace:
        namespace["n2"] = 2.0 * namespace["n"]
    else:
        lines.append("n2 = 2.0 * n")
    namespace.update(fsum=math.fsum, nan=math.nan)
    # +-x * x is nonzero where |x| > 1e-150: the square cannot underflow
    proven = {"e": lowering.nonzero(fam.fa.value, 1e-150),
              "g": lowering.nonzero(fam.fb.value, 1e-150), "n": False}
    degenerate = " or ".join(f"{name} == 0.0" for name in proven if not (
        proven[name] or namespace.get(name, 0.0) != 0.0))
    bundle = "".join(f"        {line}\n" for line in lines)[:-1]
    test = degenerate and f'        if {degenerate}: return "degenerate_metric"\n'
    stages = "\n".join(_STAGE.format(k=k, j=k - 1, f=f, bundle=bundle)
                       + _RHS.format(k=k, test=test)
                       for k, f in ((2, "half"), (3, "half"), (4, "h")))
    names = ", ".join(f"{name}={name}" for name in namespace)
    source = _RUN.format(names=names, rhs1=_RHS.format(k=1, test=test),
                         stages=stages, bundle=bundle)
    exec(compile(source, "<generated RK4 run>", "exec"), namespace)
    return namespace["run"]


def _run_chunks(fam: SurfaceFamily, state0: GeodesicState, length: float,
                step: float, size):
    """``integrate``'s run as lists of at most ``size`` rows, then its
    termination: each list runs on from the state and s the last one left."""
    if not (length > 0.0 and math.isfinite(length)):
        raise ValueError("length must be > 0")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be > 0")
    if step > length:
        raise ValueError("step must be <= length")
    if length / step > _MAX_ROWS:  # inf too
        raise ValueError(f"step must be at least length/{_MAX_ROWS}: "
                         f"every step keeps a row")
    n_steps = math.ceil(length / step - 1e-9)
    end, first = (state0.as_tuple(), 0.0), 1  # a state and its s
    while not isinstance(end, str):
        rows, stop = [], min(first + size, n_steps + 2)
        try:
            end = fam._run_fn(rows, *end, first, stop, length, step, n_steps)
        except DomainError:
            if first == 1 and not rows:
                raise
            end = "domain_exit"
        if rows:
            yield rows
        first = stop
    yield end


def integrate(fam: SurfaceFamily, state0: GeodesicState, length: float,
              step: float) -> Trajectory:
    """Fixed-step classical RK4 integration of the geodesic system from
    ``state0``.

    Samples at every step plus the endpoint ``s = length``.  The run aborts
    cleanly (partial trajectory, ``termination`` set) when t leaves the
    profile domain, a metric coefficient vanishes, or the state or a
    row's L, p_u or p_v stops being finite; no row holds a non-finite
    value, so ``rows`` is empty when the row of ``state0`` is not finite.

    The loop is ``fam``'s generated run (``_RUN``), in one chunk; a
    ``DomainError`` before the first row, of ``state0``'s, is raised.
    """
    *chunks, termination = _run_chunks(fam, state0, length, step, math.inf)
    return Trajectory(tuple(chunks[0] if chunks else ()), termination, length)


# ---------------------------------------------------------------------------
# angle decompositions

class AngleDecomposition(Record):
    """Velocity split against the meridian direction.

    ``phi`` is the mixing angle and ``theta`` distributes the remaining
    speed, as the family's ``FamilySpec.law`` says.  ``residual`` is
    the consistency defect of the defining identities; ``defined`` means a
    decomposition exists within tolerance (``FamilySpec.clairaut``).
    """

    phi: float
    theta: float
    defined: bool
    residual: float


def extract_angles(fam: SurfaceFamily, state: GeodesicState) -> AngleDecomposition:
    """Invert the family's velocity law (``FamilySpec.law``), if the
    state's velocity has angles.

    Undefined decompositions return ``defined=False`` with the residual;
    ties at zero resolve to phi = theta = 0.
    """
    fa, fb = fam.fa.evaluate(state.t), fam.fb.evaluate(state.t)
    return AngleDecomposition(*fam.spec.clairaut(
        fa, fb, state.du, state.dv, state.dt, 0.0, 0.0)[2])


def state_from_angles(fam: SurfaceFamily, u: float, v: float, t: float,
                      phi: float, theta: float) -> GeodesicState:
    """Inverse constructor: velocities from the family's decomposition."""
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    if fa == 0.0 or fb == 0.0:
        raise DegenerateMetricError(t, which="profile")
    a, b, dt = fam.spec.law(1.0, 1.0, angles=(phi, theta))[4][:3]
    return GeodesicState(u, v, t, a / fa, b / fb, dt)


# ---------------------------------------------------------------------------
# Clairaut-style invariants and slope laws

class ClairautReport(Record):
    """Conserved data at one state: Lagrangian, momenta, decomposition
    angles, and the two angle-form invariants (2*fa^2*du and 2*fb^2*dv up
    to the family sign), which coincide with the momenta identically."""

    L: float
    p_u: float
    p_v: float
    invariant1: float
    invariant2: float
    angles: AngleDecomposition


def clairaut_report(fam: SurfaceFamily, state: GeodesicState) -> ClairautReport:
    t = state.t
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    coeffs = fam.metric_values(fa, fb, fam.fa.derivative(t), fam.fb.derivative(t))
    lagr = coeffs.lagrangian(state)
    p_u, p_v = coeffs.momenta(state)
    inv1, inv2, angles = fam.spec.clairaut(fa, fb, state.du, state.dv,
                                           state.dt, p_u, p_v)
    return ClairautReport(lagr, p_u, p_v, inv1, inv2,
                          AngleDecomposition(*angles))


def invariant_rows(fam: SurfaceFamily, rows) -> list:
    """Each ``Trajectory.rows`` row + (inv1, inv2) as ``clairaut_report``
    gives them, from the row's p_u, p_v, the lowered (fa, fb) pair and one
    ``FamilySpec.clairaut`` call, which calls the family's law once."""
    pair, at, out = fam._pair_fn, fam.spec.clairaut, []
    for row in rows:  # named arguments: a call without * is the faster
        _, _, _, t, du, dv, dt, _, p_u, p_v = row
        fa, fb = pair(t)
        out.append(row + at(fa, fb, du, dv, dt, p_u, p_v)[:2])
    return out


class SlopeReport(Record):
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


def slope(fam: SurfaceFamily, state: GeodesicState) -> SlopeReport:
    if state.du == 0.0:
        raise MeridianUndefinedError("du = 0: slope along a meridian is undefined")
    state_slope = state.dt / state.du
    angles = extract_angles(fam, state)
    if not angles.defined:
        return SlopeReport(state_slope, None, None)
    lagr = fam.lagrangian(state)
    fa = fam.fa.evaluate(state.t)
    angle_slope, radicand = fam.spec.slope(fa, angles.phi, angles.theta, lagr)
    match = abs(state_slope) - abs(angle_slope)
    return SlopeReport(state_slope, angle_slope, match, radicand < 0.0)
