"""Output checks.  Each returns a list of failure messages (empty: passed).

The checks compare the program's outputs with the independent references
of ``reference.py`` and with properties the method must have.  They use
only the standard library, so the workload process stays free of sympy
and scipy.  ``selftest.py`` feeds each of them perturbed outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math

TRAJECTORY_COLUMNS = ("s", "u", "v", "t", "du", "dv", "dt",
                      "L", "p_u", "p_v", "inv1", "inv2")
CURVATURE_COLUMNS = ("t", "s", "K_formula", "K_oracle", "K_gap", "h3", "h4",
                     "H_gap")

DRIFT_LIMIT = 1e-8        # momenta and Lagrangian drift along a run
STATE_TOL = 1e-8          # rotsurf RK4 versus the DOP853 reference
INVARIANT_TOL = 1e-12     # angle-form invariants versus signed momenta
ORDER_RATIO = 12.0        # error ratio when the step is halved (order ~4)
ROUNDOFF_FLOOR = 1e-10    # errors below this are not used for the order
K_TOL = 1e-6              # finite-difference K oracle versus exact K
FLAT_K_TOL = 1e-6
FRAME_TOL = 1e-10


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * (1.0 + abs(expected))


def parse_trajectory(text: str, fmt: str) -> list[list[float]]:
    """Artifact rows as lists of floats in ``TRAJECTORY_COLUMNS`` order."""
    if fmt == "json":
        payload = json.loads(text)
        if tuple(payload["columns"]) != TRAJECTORY_COLUMNS:
            raise ValueError("unexpected trajectory columns")
        return [[float(sample[c]) for c in TRAJECTORY_COLUMNS]
                for sample in payload["samples"]]
    lines = text.splitlines()
    if tuple(lines[0].split(",")) != TRAJECTORY_COLUMNS:
        raise ValueError("unexpected trajectory header")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_trajectory(name: str, rows, summary: dict, reference: dict,
                     sample_indices, expected_rows: int) -> list[str]:
    """One ``invariants`` run: row count and order, sampled rows against
    the reference, drift recomputed from the rows and equal to the summary,
    and inv1/inv2 equal to the signed momenta."""
    failures = []
    if len(rows) != expected_rows:
        return [f"{name}: {len(rows)} rows, expected {expected_rows}"]
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        failures.append(f"{name}: arclength column is not increasing")
    for index, ref in zip(sample_indices, reference["rows"]):
        row = rows[index]
        values = row[1:7] + row[7:10]
        expected = ref["state"] + [ref["L"], ref["p_u"], ref["p_v"]]
        if not _close(row[0], ref["s"], 1e-12):
            failures.append(f"{name}: row {index} has s={row[0]!r}, "
                            f"expected {ref['s']!r}")
        bad = [col for col, v, e in zip(TRAJECTORY_COLUMNS[1:10], values,
                                        expected)
               if not _close(v, e, STATE_TOL)]
        if bad:
            failures.append(f"{name}: row {index} differs from the reference "
                            f"in {', '.join(bad)}")
    first = rows[0]
    drifts = {key: max(abs(row[col] - first[col]) for row in rows)
              for key, col in (("L_drift", 7), ("p_u_drift", 8),
                               ("p_v_drift", 9), ("inv1_drift", 10),
                               ("inv2_drift", 11))}
    for key in ("p_u_drift", "p_v_drift", "L_drift"):
        if drifts[key] > DRIFT_LIMIT:
            failures.append(f"{name}: {key} {drifts[key]:.3e} > "
                            f"{DRIFT_LIMIT:.0e}")
    for key, value in drifts.items():
        if summary.get(key) != value:
            failures.append(f"{name}: summary {key}={summary.get(key)!r} but "
                            f"the rows give {value!r}")
    sign_u, sign_v = reference["invariant_signs"]
    worst = max(max(abs(row[10] - sign_u * row[8]) / max(1.0, abs(row[8])),
                    abs(row[11] - sign_v * row[9]) / max(1.0, abs(row[9])))
                for row in rows)
    if worst > INVARIANT_TOL:
        failures.append(f"{name}: inv1/inv2 differ from the signed momenta "
                        f"by {worst:.3e}")
    return failures


def check_member(name: str, result: dict, reference: dict,
                 expected_steps: int) -> list[str]:
    """One ensemble member: completed, drift, start and endpoint against
    the reference, and the endpoint Clairaut report."""
    failures = []
    if result["termination"] != "completed":
        return [f"{name}: termination {result['termination']}"]
    if result["steps"] != expected_steps:
        failures.append(f"{name}: {result['steps']} steps, expected "
                        f"{expected_steps}")
    drift = max(result["drifts"].values())
    if drift > DRIFT_LIMIT:
        failures.append(f"{name}: drift {drift:.3e} > {DRIFT_LIMIT:.0e}")
    start, end = reference["rows"][0], reference["rows"][-1]
    if not all(_close(v, e, 1e-12) for v, e in zip(result["start"],
                                                  start["state"])):
        failures.append(f"{name}: initial state differs from the reference")
    if not all(_close(v, e, STATE_TOL) for v, e in zip(result["end"],
                                                      end["state"])):
        failures.append(f"{name}: endpoint differs from the reference")
    report = result["report"]
    if not (_close(report["p_u"], end["p_u"], STATE_TOL)
            and _close(report["p_v"], end["p_v"], STATE_TOL)
            and _close(report["L"], end["L"], STATE_TOL)):
        failures.append(f"{name}: endpoint momenta differ from the reference")
    sign_u, sign_v = reference["invariant_signs"]
    worst = max(abs(report["inv1"] - sign_u * report["p_u"])
                / max(1.0, abs(report["p_u"])),
                abs(report["inv2"] - sign_v * report["p_v"])
                / max(1.0, abs(report["p_v"])))
    if worst > INVARIANT_TOL:
        failures.append(f"{name}: endpoint invariants differ from the signed "
                        f"momenta by {worst:.3e}")
    return failures


def check_order(name: str, coarse_end, fine_end, reference_end) -> list[str]:
    """Halving the step must divide the endpoint error by ORDER_RATIO,
    wherever the finer error is above the roundoff floor."""
    coarse = max(abs(a - b) for a, b in zip(coarse_end, reference_end))
    fine = max(abs(a - b) for a, b in zip(fine_end, reference_end))
    if fine <= ROUNDOFF_FLOOR:
        return []
    if coarse / fine < ORDER_RATIO:
        return [f"{name}: error ratio {coarse / fine:.2f} < {ORDER_RATIO} "
                f"when the step is halved ({coarse:.3e} -> {fine:.3e})"]
    return []


def parse_curvature(text: str) -> list[list[float]]:
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader)) != CURVATURE_COLUMNS:
        raise ValueError("unexpected curvature header")
    return [[float(x) for x in row] for row in reader]


def check_curvature(name: str, rows, grid, k_exact, flat: bool) -> list[str]:
    """One ``curvature`` grid: points in order, K_oracle against exact K,
    K_gap consistent, and the flat-surface contract."""
    if len(rows) != len(grid):
        return [f"{name}: {len(rows)} rows, expected {len(grid)}"]
    failures = []
    for row, (t, s), k in zip(rows, grid, k_exact):
        where = f"{name} at t={t!r}, s={s!r}"
        if not (_close(row[0], t, 1e-12) and _close(row[1], s, 1e-12)):
            failures.append(f"{name}: row ({row[0]!r}, {row[1]!r}) out of "
                            f"order, expected ({t!r}, {s!r})")
            continue
        k_formula, k_oracle, k_gap = row[2], row[3], row[4]
        if abs(k_oracle - k) > K_TOL * max(1.0, abs(k)):
            failures.append(f"{where}: K_oracle {k_oracle!r}, exact {k!r}")
        if k_gap != abs(k_formula - k_oracle):
            failures.append(f"{where}: K_gap {k_gap!r} is not "
                            f"|K_formula - K_oracle|")
        if flat and (k_formula != 0.0 or abs(k_oracle) > FLAT_K_TOL):
            failures.append(f"{where}: flat surface gives K_formula "
                            f"{k_formula!r}, K_oracle {k_oracle!r}")
    return failures


def inner(v, w) -> float:
    """The (-, -, +, +) inner product."""
    return math.fsum((-v[0] * w[0], -v[1] * w[1], v[2] * w[2], v[3] * w[3]))


def check_frame(name: str, e3, e4, tangents) -> list[str]:
    """e3, e4 unit, orthogonal to each other and to both tangents."""
    defects = [abs(abs(inner(e3, e3)) - 1.0), abs(abs(inner(e4, e4)) - 1.0),
               abs(inner(e3, e4))]
    defects += [abs(inner(e, tangent)) for e in (e3, e4) for tangent in tangents]
    worst = max(defects)
    if worst > FRAME_TOL:
        return [f"{name}: normal frame defect {worst:.3e} > {FRAME_TOL:.0e}"]
    return []
