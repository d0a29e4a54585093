#!/usr/bin/env python3
"""Reference computations for the benchmark, made apart from rotsurf.

Nothing here imports rotsurf.  The geometry is rebuilt from the surface
definitions alone: each family immerses (u, v, t) -> R_u R_v gamma(t) in
flat 4-space with the (-, -, +, +) inner product, and sympy derives the
induced metric, its Christoffel symbols and the exact Gaussian curvature
from that immersion.  Geodesic references come from scipy's DOP853 at
tight tolerances.

Run as a script, it generates one workload's inputs from a seed, rejects
candidates that would leave their domain or meet a degenerate metric, and
writes ``inputs.json`` and ``reference.json``::

    python3 bench/reference.py --workload trajectory --seed 7 --out DIR

The same command always makes the same files anew; nothing is cached.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402  (the benchmark's own seeded generator)

ETA = sp.diag(-1, -1, 1, 1)
T, S, U, V = sp.symbols("t s u v", real=True)
VEL = sp.symbols("du dv dt", real=True)
_FA, _FB = sp.Function("fa")(T), sp.Function("fb")(T)

# Rotation planes of each family (0-based axes): boosts on x1x3/x2x4 and
# x1x4/x2x3, spins on x1x2/x3x4.
PLANES = {
    "hyperbolic14": (True, (0, 2), (1, 3)),
    "hyperbolic23": (True, (0, 3), (1, 2)),
    "elliptic56": (False, (0, 1), (2, 3)),
}

# Axis of the profile point gamma(t) that carries fa and fb, per variant.
PROFILE_AXES = {
    ("hyperbolic14", "A"): (0, 3), ("hyperbolic14", "B"): (2, 1),
    ("hyperbolic23", "A"): (0, 1), ("hyperbolic23", "B"): (3, 2),
    ("elliptic56", "A"): (1, 3), ("elliptic56", "B"): (0, 2),
}

# The angle-form invariants are 2*fa^2*du and c_v*2*fb^2*dv; the boost-13/24
# family defines its second invariant with a minus sign (c_v = -1).
INVARIANT_CONVENTION = {"hyperbolic14": (1.0, -1.0),
                        "hyperbolic23": (1.0, 1.0),
                        "elliptic56": (1.0, 1.0)}

_NAMESPACE = {name: getattr(sp, name) for name in
              ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
               "sqrt")}
_NAMESPACE.update({"pi": sp.pi, "e": sp.E})


def profile_expr(text: str, var=T):
    """Profile text of the rotsurf grammar as a sympy expression in ``var``."""
    namespace = dict(_NAMESPACE, t=var)
    return sp.sympify(text.replace("^", "**"), locals=namespace)


def _rotation(hyperbolic: bool, plane, angle):
    i, j = plane
    m = sp.eye(4)
    if hyperbolic:
        m[i, i] = m[j, j] = sp.cosh(angle)
        m[i, j] = m[j, i] = sp.sinh(angle)
    else:
        m[i, i] = m[j, j] = sp.cos(angle)
        m[i, j], m[j, i] = sp.sin(angle), -sp.sin(angle)
    return m


def immersion(family: str, variant: str):
    """X(u, v, t) with abstract profiles fa(t), fb(t)."""
    hyperbolic, plane_u, plane_v = PLANES[family]
    gamma = sp.zeros(4, 1)
    axis_a, axis_b = PROFILE_AXES[(family, variant)]
    gamma[axis_a], gamma[axis_b] = _FA, _FB
    return (_rotation(hyperbolic, plane_u, U)
            * _rotation(hyperbolic, plane_v, V) * gamma)


@functools.lru_cache(maxsize=None)
def abstract_geometry(family: str, variant: str):
    """(metric, geodesic accelerations) of a family with abstract profiles.

    The metric is J^T diag(-1, -1, 1, 1) J for the Jacobian J of the
    immersion in (u, v, t); the accelerations are -Gamma^a_bc x'^b x'^c in
    the velocity symbols du, dv, dt.
    """
    coords = (U, V, T)
    jac = immersion(family, variant).jacobian(coords)
    g = (jac.T * ETA * jac).applyfunc(sp.simplify)
    ginv = g.inv()
    gamma = [[[sp.Rational(1, 2) * sum(
        ginv[a, d] * (sp.diff(g[d, c], coords[b])
                      + sp.diff(g[d, b], coords[c])
                      - sp.diff(g[b, c], coords[d]))
        for d in range(3)) for c in range(3)] for b in range(3)]
        for a in range(3)]
    accel = [sp.simplify(-sum(gamma[a][b][c] * VEL[b] * VEL[c]
                              for b in range(3) for c in range(3)))
             for a in range(3)]
    return g, accel


class Family:
    """Induced metric and geodesic equations of one surface family."""

    def __init__(self, family: str, variant: str, fa_text: str, fb_text: str):
        self.family, self.variant = family, variant
        self.fa, self.fb = profile_expr(fa_text), profile_expr(fb_text)
        self.abstract_metric, abstract_accel = abstract_geometry(family,
                                                                 variant)
        self.fa_fn = sp.lambdify(T, self.fa, "math")
        self.fb_fn = sp.lambdify(T, self.fb, "math")
        self.metric = self._concrete(self.abstract_metric)
        self._metric_fn = sp.lambdify((U, V, T), list(self.metric), "math")
        self._accel = sp.lambdify(
            (U, V, T) + VEL, [self._concrete(a) for a in abstract_accel],
            "math")

    def _concrete(self, expr):
        return expr.subs({_FA: self.fa, _FB: self.fb}).doit()

    def metric_at(self, u: float, v: float, t: float) -> np.ndarray:
        return np.array(self._metric_fn(u, v, t), dtype=float).reshape(3, 3)

    def diagonal(self, t: float) -> tuple[float, float, float]:
        g = self.metric_at(0.0, 0.0, t)
        return float(g[0, 0]), float(g[1, 1]), float(g[2, 2])

    def lagrangian(self, y) -> float:
        g = self.metric_at(*y[:3])
        vel = np.asarray(y[3:], dtype=float)
        return float(vel @ g @ vel)

    def momenta(self, y) -> tuple[float, float]:
        g = self.metric_at(*y[:3])
        vel = np.asarray(y[3:], dtype=float)
        p = 2.0 * (g @ vel)
        return float(p[0]), float(p[1])

    def invariant_signs(self) -> tuple[float, float]:
        """inv1 = sign_u * p_u and inv2 = sign_v * p_v, from the metric:
        p_u = 2 E du with E = +-fa^2, so 2 fa^2 du = sign(E) p_u."""
        e_sign = sp.sign(sp.simplify(self.abstract_metric[0, 0] / _FA ** 2))
        g_sign = sp.sign(sp.simplify(self.abstract_metric[1, 1] / _FB ** 2))
        conv_u, conv_v = INVARIANT_CONVENTION[self.family]
        return conv_u * float(e_sign), conv_v * float(g_sign)

    def rhs(self, _s, y):
        return (y[3], y[4], y[5], *self._accel(*y))

    def state_from_angles(self, u, v, t, phi, theta):
        """Velocities from the family's documented angle decomposition."""
        fa, fb = self.fa_fn(t), self.fb_fn(t)
        if self.family == "hyperbolic14":
            a, b = math.cos(phi), math.cosh(theta) * math.sin(phi)
            dt = math.sinh(theta) * math.sin(phi)
        elif self.family == "hyperbolic23":
            a, b = (math.sinh(phi) * math.cos(theta),
                    math.sinh(phi) * math.sin(theta))
            dt = math.cosh(phi)
        else:
            a, b = (math.sin(phi) * math.cosh(theta),
                    math.sin(phi) * math.sinh(theta))
            dt = math.cos(phi)
        return [u, v, t, a / fa, b / fb, dt]

    def initial_state(self, initial: dict, normalize: bool):
        """Start of a config's geodesic section; a start to be normalized
        must be clearly timelike (L <= -0.05), else ValueError."""
        if "phi" in initial:
            y = self.state_from_angles(initial["u"], initial["v"],
                                       initial["t"], initial["phi"],
                                       initial["theta"])
        else:
            y = [initial[k] for k in ("u", "v", "t", "du", "dv", "dt")]
        if normalize:
            lagr = self.lagrangian(y)
            if lagr > -0.05:
                raise ValueError("not clearly timelike")
            scale = 1.0 / math.sqrt(-lagr)
            y = y[:3] + [w * scale for w in y[3:]]
        return y

    def solve(self, y0, length: float, s_eval, rtol: float = 1e-13,
              atol: float = 1e-13):
        sol = solve_ivp(self.rhs, (0.0, length), y0, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True)
        if sol.status != 0:
            raise ValueError(f"solve_ivp failed: {sol.message}")
        return sol.sol, np.array([sol.sol(s) for s in s_eval])


def angles_defined(fam: Family, y, margin: float = 0.01) -> bool:
    """The family's angle decomposition exists at state ``y``, with
    ``margin`` to spare on every inequality (see ``state_from_angles``)."""
    a = fam.fa_fn(y[2]) * y[3]
    b = fam.fb_fn(y[2]) * y[4]
    dt = y[5]
    if fam.family == "hyperbolic14":
        residual = a * a + b * b - dt * dt - 1.0
        ok = abs(a) <= 1.0 - margin and b >= margin
    elif fam.family == "hyperbolic23":
        residual = a * a + b * b - (dt * dt - 1.0)
        ok = dt >= 1.0 + margin
    else:
        residual = a * a - b * b - (1.0 - dt * dt)
        ok = abs(dt) <= 1.0 - margin and a >= margin
    return ok and abs(residual) <= 1e-11


def path_is_admissible(fam: Family, dense, length: float, domain,
                       margin: float, floor: float = 1e-3,
                       angles: bool = False) -> bool:
    """True when t stays inside ``domain`` by ``margin``, no metric
    coefficient comes within ``floor`` of zero along the path, and (with
    ``angles``) the angle decomposition holds throughout."""
    t_min, t_max = domain
    for s in np.linspace(0.0, length, 201):
        y = dense(s)
        if not np.all(np.isfinite(y)):
            return False
        if not (t_min + margin <= y[2] <= t_max - margin):
            return False
        if min(abs(c) for c in fam.diagonal(float(y[2]))) < floor:
            return False
        if angles and not angles_defined(fam, [float(c) for c in y]):
            return False
    return True


class Surface:
    """The 2-surface (t, s) -> X(x(t), w(t), s) and its exact curvature."""

    def __init__(self, doc: dict):
        fam = Family(doc["family"], doc.get("variant", "A"),
                     doc["profiles"]["fa"], doc["profiles"]["fb"])
        x = profile_expr(doc["curvature"]["xAngle"])
        w = profile_expr(doc["curvature"]["vAngle"])
        # pull the 3-metric back along (t, s) -> (x(t), w(t), s)
        g3 = fam.metric.subs(T, S)
        jac = sp.Matrix([[sp.diff(x, T), 0], [sp.diff(w, T), 0], [0, 1]])
        h = (jac.T * g3.subs({U: x, V: w}) * jac).applyfunc(sp.simplify)
        e, f, g = h[0, 0], h[0, 1], h[1, 1]
        self.metric_fn = sp.lambdify((T, S), [e, f, g], "math")
        self.curvature_fn = sp.lambdify((T, S), brioschi(e, f, g, T, S),
                                        "math")
        xs = immersion(fam.family, fam.variant).subs(
            {_FA: fam.fa, _FB: fam.fb}).doit().subs(T, S)
        surf = xs.subs({U: x, V: w})
        self.tangents_fn = sp.lambdify(
            (T, S), [list(surf.diff(T)), list(surf.diff(S))], "math")

    def gaussian_curvature(self, t: float, s: float) -> float:
        return float(self.curvature_fn(t, s))

    def metric_det(self, t: float, s: float) -> float:
        e, f, g = self.metric_fn(t, s)
        return e * g - f * f


def brioschi(e, f, g, a, b):
    """Gaussian curvature of E da^2 + 2F da db + G db^2 (Brioschi formula)."""
    d = sp.diff
    m1 = sp.Matrix([
        [-d(e, b, 2) / 2 + d(f, a, b) - d(g, a, 2) / 2, d(e, a) / 2,
         d(f, a) - d(e, b) / 2],
        [d(f, b) - d(g, a) / 2, e, f],
        [d(g, b) / 2, f, g]])
    m2 = sp.Matrix([
        [0, d(e, b) / 2, d(g, a) / 2],
        [d(e, b) / 2, e, f],
        [d(g, a) / 2, f, g]])
    return (m1.det() - m2.det()) / (e * g - f * f) ** 2


# ---------------------------------------------------------------------------
# per-workload generation and references

def _family_of(doc: dict) -> Family:
    return Family(doc["family"], doc.get("variant", "A"),
                  doc["profiles"]["fa"], doc["profiles"]["fb"])


def _geodesic_candidate(doc: dict, s_eval, angles: bool):
    """(family, y0, states at s_eval) when the run is admissible, else None."""
    fam = _family_of(doc)
    section = doc["geodesic"]
    try:
        y0 = fam.initial_state(section["initial"], section["normalize"])
    except (ValueError, ZeroDivisionError):
        return None
    if (min(abs(c) for c in fam.diagonal(y0[2])) < 1e-3
            or max(abs(c) for c in y0[3:]) > 10.0):
        return None
    try:
        dense, states = fam.solve(y0, section["length"], s_eval)
    except ValueError:
        return None
    t_min, t_max = doc["domain"]
    if not path_is_admissible(fam, dense, section["length"], doc["domain"],
                              0.05 * (t_max - t_min), angles=angles):
        return None
    return fam, y0, states


def _reference_rows(fam: Family, s_eval, states):
    rows = []
    for s, y in zip(s_eval, states):
        y = [float(c) for c in y]
        p_u, p_v = fam.momenta(y)
        rows.append({"s": float(s), "state": y, "L": fam.lagrangian(y),
                     "p_u": p_u, "p_v": p_v})
    return rows


def generate_geodesic_workload(workload: str, seed: int, max_tries: int = 200):
    rng = random.Random(f"{workload}:{seed}")
    specs = inputs.geodesic_specs(workload)
    items, refs = [], []
    for spec in specs:
        for _ in range(max_tries):
            doc = inputs.geodesic_candidate(spec, rng)
            indices, s_eval = inputs.sample_points(doc["geodesic"],
                                                   spec["samples"])
            found = _geodesic_candidate(doc, s_eval, spec["angles"])
            if found is not None:
                break
        else:
            raise SystemExit(f"no admissible input for {spec['name']}")
        fam, _, states = found
        items.append({"name": spec["name"], "style": spec["style"],
                      "doc": doc, "sample_indices": indices})
        refs.append({"name": spec["name"],
                     "invariant_signs": fam.invariant_signs(),
                     "rows": _reference_rows(fam, s_eval, states)})
    return items, refs


def generate_curvature_workload(seed: int, max_tries: int = 200):
    rng = random.Random(f"curvature-grid:{seed}")
    items, refs = [], []
    for spec in inputs.SURFACES:
        surface = Surface(inputs.curvature_doc(spec, spec["domain"]))
        for _ in range(max_tries):
            doc = inputs.curvature_candidate(spec, rng)
            grid = inputs.grid_points(doc)
            if all(abs(surface.metric_det(t, s)) > 1e-6 for t, s in grid):
                break
        else:
            raise SystemExit(f"no admissible grid for {spec['name']}")
        frame_points = rng.sample(grid, inputs.FRAME_POINTS)
        items.append({"name": spec["name"], "flat": spec["flat"], "doc": doc,
                      "frame_points": frame_points})
        refs.append({
            "name": spec["name"],
            "K_exact": [surface.gaussian_curvature(t, s) for t, s in grid],
            "frame_tangents": [surface.tangents_fn(t, s)
                               for t, s in frame_points]})
    return items, refs


def generate(workload: str, seed: int):
    if workload == "curvature-grid":
        items, refs = generate_curvature_workload(seed)
    else:
        items, refs = generate_geodesic_workload(workload, seed)
    return ({"workload": workload, "seed": seed, "items": items},
            {"workload": workload, "seed": seed, "items": refs})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory for inputs.json and reference.json")
    args = parser.parse_args(argv)
    generated, reference = generate(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for name, payload in (("inputs.json", generated),
                          ("reference.json", reference)):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
