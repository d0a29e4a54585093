"""Seeded input generator for the benchmark workloads.

Every workload keeps the same shape on every seed: the same commands or
members, the same profile trees, step counts and grid sizes.  The seed
moves only numbers (profile coefficients, domains, initial states), so two
seeds cost the same work while exercising different inputs.  Candidates
are drawn here; ``reference.py`` rejects any that would leave the profile
domain or meet a degenerate metric, and draws again.

Stdlib only: the program under test receives nothing but the documents
built here.
"""

from __future__ import annotations

import math

WORKLOADS = ("trajectory", "ensemble", "curvature-grid")

FRAME_POINTS = 4


def _linear(rng, lo, hi, slope_lo, slope_hi):
    return round(rng.uniform(lo, hi), 6), round(rng.uniform(slope_lo, slope_hi), 6)


def _profiles(spec: dict, rng):
    """(fa text, fb text, lowest t where both profiles stay >= 0.3,
    (fa, fb) as functions of t).

    ``paper`` profiles give N = -1, the unit-speed setting in which the
    angle decompositions hold along a unit-timelike geodesic: fa' = 1 and
    fb' = 0 for the boost-13/24 and spin families, fa' = fb' = 1/sqrt(2)
    for the boost-14/23 family.  ``linear`` profiles draw |fa'| in
    [0.7, 1] and |fb'| in [0.1, 0.35], and the ``nested`` one has fa' in
    [0.37, 1.04], so N = +-fa'^2 +- fb'^2 stays away from zero in every
    family and variant.
    """
    kind = spec["profile"]
    if kind == "paper":
        a, c = round(rng.uniform(1.5, 2.5), 6), round(rng.uniform(0.8, 1.5), 6)
        if spec["family"] == "hyperbolic23":
            return (f"{a} + t/sqrt(2)", f"{c} + t/sqrt(2)",
                    math.sqrt(2.0) * (0.3 - min(a, c)), None)
        return f"{a} + t", f"{c}", 0.3 - a, (lambda t: a + t, lambda t: c)
    c, d = _linear(rng, 0.8, 1.5, 0.1, 0.35)
    fb = f"{c} + {d}*t"
    t_fb = (0.3 - c) / d
    if kind == "linear":
        a, b = _linear(rng, 1.5, 2.5, 0.7, 1.0)
        return f"{a} + {b}*t", fb, max((0.3 - a) / b, t_fb), None
    # nested transcendental: a + t/sqrt(2) + sin(t)/k
    a = round(rng.uniform(1.5, 2.5), 6)
    k = round(rng.uniform(3.0, 5.0), 6)
    fa = f"{a} + t/sqrt(2) + sin(t)/{k}"
    t_fa = math.sqrt(2.0) * (0.3 + 1.0 / k - a)
    return fa, fb, max(t_fa, t_fb), None


def _initial(spec: dict, profiles, t0: float, rng) -> dict:
    u0, v0 = round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(-0.5, 0.5), 6)
    if spec["style"] == "angle":
        phi = round(rng.uniform(0.3, 1.2), 6)
        theta_span = {"hyperbolic23": math.pi, "elliptic56": 0.3}.get(
            spec["family"], 1.0)
        theta = round(rng.uniform(-theta_span, theta_span), 6)
        return {"u": u0, "v": v0, "t": t0, "phi": phi, "theta": theta}
    du = round(rng.choice((-1, 1)) * rng.uniform(0.05, 0.4), 6)
    if spec["profile"] == "paper":
        # boost-13/24 decomposition along a unit-timelike flow needs
        # fb*dv = 1; dt = fa*|du| then makes L = -1
        fa, fb = profiles
        return {"u": u0, "v": v0, "t": t0, "du": du, "dv": 1.0 / fb(t0),
                "dt": fa(t0) * abs(du)}
    return {"u": u0, "v": v0, "t": t0, "du": du,
            "dv": round(rng.choice((-1, 1)) * rng.uniform(0.05, 0.4), 6),
            "dt": round(rng.uniform(0.8, 1.5), 6)}


def _spec(name, family, variant, profile, style, fmt, length, step, samples,
          angles=False):
    """``angles``: the angle decomposition must hold on the whole run."""
    return {"name": name, "family": family, "variant": variant,
            "profile": profile, "style": style, "format": fmt,
            "length": length, "step": step, "samples": samples,
            "angles": angles}


FAMILIES = ("hyperbolic14", "hyperbolic23", "elliptic56")
_TAGS = {"hyperbolic14": "h14", "hyperbolic23": "h23", "elliptic56": "e56"}


def geodesic_specs(workload: str) -> list[dict]:
    """The fixed make-up of the trajectory and ensemble workloads."""
    if workload == "trajectory":
        # 3,000 steps each: one unit-speed linear-profile run per family,
        # with the angle decomposition defined on every row, plus the
        # nested transcendental profile on the boost-14/23 family
        return [
            _spec("h14-linear", "hyperbolic14", "A", "paper", "velocity",
                  "csv", 3.0, 1e-3, 9, angles=True),
            _spec("h23-linear", "hyperbolic23", "A", "paper", "angle",
                  "csv", 3.0, 1e-3, 9, angles=True),
            _spec("e56-linear", "elliptic56", "A", "paper", "angle",
                  "json", 3.0, 1e-3, 9, angles=True),
            _spec("h23-nested", "hyperbolic23", "A", "nested", "velocity",
                  "csv", 3.0, 1e-3, 9),
        ]
    if workload == "ensemble":
        # 24 members of 400 steps: every family and variant, two of each
        # initial-condition style
        specs = []
        for family in FAMILIES:
            for variant in ("A", "B"):
                for style in ("angle", "velocity"):
                    for k in range(2):
                        specs.append(_spec(
                            f"{_TAGS[family]}{variant}-{style}-{k}", family,
                            variant, "linear", style, None, 1.0, 2.5e-3, 2))
        return specs
    raise ValueError(f"no geodesic specs for {workload!r}")


def geodesic_candidate(spec: dict, rng) -> dict:
    """One rotsurf config document drawn for ``spec``."""
    fa, fb, t_low, functions = _profiles(spec, rng)
    t_min = round(t_low + 0.5, 6)
    t_max = round(t_min + 60.0, 6)
    t0 = round(rng.uniform(t_min + 4.0, t_min + 8.0), 6)
    doc = {
        "family": spec["family"],
        "variant": spec["variant"],
        "profiles": {"fa": fa, "fb": fb},
        "domain": [t_min, t_max],
        "geodesic": {"initial": _initial(spec, functions, t0, rng),
                     "length": spec["length"], "step": spec["step"],
                     "normalize": spec["style"] == "velocity"},
    }
    if spec["format"] is not None:
        doc["output"] = {"path": f"{spec['name']}.{spec['format']}",
                         "format": spec["format"]}
    return doc


def step_count(geodesic: dict) -> int:
    """Accepted steps of a completed run, as ``rotsurf.integrate`` takes them."""
    return math.ceil(geodesic["length"] / geodesic["step"] - 1e-9)


def sample_points(geodesic: dict, count: int):
    """Row indices spread over the run, and their arclengths."""
    n = step_count(geodesic)
    indices = sorted({round(k * n / (count - 1)) for k in range(count)})
    s_eval = [geodesic["length"] if i == n else i * geodesic["step"]
              for i in indices]
    return indices, s_eval


# ---------------------------------------------------------------------------
# curvature grids: the curved surfaces of scripts/curvature_audit.py and the
# flat surfaces of acceptance criterion 8

def _surface(name, family, fa, fb, x_angle, w_angle, flat):
    return {"name": name, "family": family, "fa": fa, "fb": fb,
            "xAngle": x_angle, "vAngle": w_angle, "flat": flat,
            "domain": [0.1, 2.0]}


SURFACES = [
    _surface("h14-audit", "hyperbolic14", "2 + t^2/8", "3 + t", "t/2", "t",
             False),
    _surface("h23-audit", "hyperbolic23", "2 + t/2", "1 + t/4", "t", "t/3",
             False),
    _surface("e56-audit", "elliptic56", "1 + t/8", "2 + t", "t/4", "t", False),
    _surface("h14-flat", "hyperbolic14", "2+t", "3+2*t", "1", "t", True),
    _surface("h23-flat", "hyperbolic23", "2+t", "3+2*t", "t", "1", True),
    _surface("e56-flat", "elliptic56", "1", "2+t", "1", "t", True),
]

GRID = 6


def curvature_doc(surface: dict, domain) -> dict:
    return {
        "family": surface["family"],
        "variant": "A",
        "profiles": {"fa": surface["fa"], "fb": surface["fb"]},
        "domain": list(domain),
        "curvature": {"xAngle": surface["xAngle"],
                      "vAngle": surface["vAngle"],
                      "grid": {"nt": GRID, "ns": GRID}},
        "output": {"path": f"{surface['name']}.csv", "format": "csv"},
    }


def curvature_candidate(surface: dict, rng) -> dict:
    """A seeded sub-square of the surface's domain, sampled on a 6x6 grid."""
    lo, hi = surface["domain"]
    t_min = round(rng.uniform(lo, lo + 0.3), 6)
    t_max = round(rng.uniform(hi - 0.4, hi), 6)
    return curvature_doc(surface, (t_min, t_max))


def grid_points(doc: dict) -> list[list[float]]:
    """Cell midpoints in the order ``rotsurf curvature`` writes them."""
    t_min, t_max = doc["domain"]
    grid = doc["curvature"]["grid"]
    points = []
    for i in range(grid["nt"]):
        t = t_min + (t_max - t_min) * (i + 0.5) / grid["nt"]
        for j in range(grid["ns"]):
            s = t_min + (t_max - t_min) * (j + 0.5) / grid["ns"]
            points.append([t, s])
    return points
