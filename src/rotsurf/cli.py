"""Command-line front end.

Commands: info, geodesic, invariants, curvature, isometry (config-driven),
plus parse-check (self-contained).  Artifacts are written atomically with
17-significant-digit numbers, so identical runs produce byte-identical
files.

Exit codes: 0 success, 1 validation error, 2 numerical failure (metric
degeneracy, domain exit before 10% of the requested length, non-finite
state).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from .ambient import _inner
from .config import ConfigError, RunConfig, initial_state, load_config
from .curvature import DoubleRotationSurface, GridPointError, curvature_grid
from .expressions import DomainError, ExprError, differentiate, parse, to_text
from .geodesics import Trajectory, _drift, integrate, invariant_rows
from .isometries import (Rotation, _apply, _checked_matrix, generator_matrix,
                         rotation_matrix)
from .surfaces import (DegenerateMetricError, MetricOverflowError,
                       NotTimelikeError, SurfaceFamily)

__all__ = ["main"]

_OUTPUT_DIR_VAR = "ROTSURF_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# argparse reads an argument that starts with "-" as an option unless its
# private ``_negative_number_matcher`` matches, and 3.11's takes no exponent,
# inf or nan: the float flags' parsers get this one (argparse internals)
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _resolve_output(path: str) -> str:
    override = os.environ.get(_OUTPUT_DIR_VAR)
    if override:
        return os.path.join(override, os.path.basename(path))
    return path


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # os.replace keeps the temporary file's mode, so it is created as
    # open(path, "w") would create ``path``: 0o666 under the umask (a
    # mkstemp file would be 0o600); O_EXCL never reuses an existing name
    temp_path = os.path.join(directory, f".rotsurf-{os.urandom(8).hex()}")
    fd = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# the members of one row object at indent level 2, by the C encoder (an
# ``indent`` makes ``json.dumps`` fall back to the pure-Python one)
_encode_row = json.JSONEncoder(sort_keys=True,
                               separators=(",\n      ", ": ")).encode


def _write_table(path: str, fmt: str, names: tuple[str, ...], rows,
                 key: str, **extra):
    """Write the tuples ``rows`` with column ``names`` as CSV, or as JSON with
    one object per row under ``key`` beside ``extra``: the bytes of
    ``f"{value:.17g}"`` and of ``json.dumps(indent=2, sort_keys=True)``."""
    if fmt == "csv":
        line = ",".join(["%.17g"] * len(names)) + "\n"
        text = ",".join(names) + "\n" + "".join([line % row for row in rows])
    else:
        text = _json({**extra, key: []})
        if rows:
            listed = "\n    },\n    {\n      ".join(
                [_encode_row(dict(zip(names, row)))[1:-1] for row in rows])
            text = text.replace(f'\n  "{key}": []', f'\n  "{key}": [\n    {{'
                                f'\n      {listed}\n    }}\n  ]', 1)
    _write_atomic(path, text)


_TRAJECTORY_COLUMNS = ("s", "u", "v", "t", "du", "dv", "dt",
                       "L", "p_u", "p_v", "inv1", "inv2")
_CURVATURE_COLUMNS = ("t", "s", "K_formula", "K_oracle", "K_gap",
                      "h3", "h4", "H_gap")


def _run_geodesic(config: RunConfig, fam: SurfaceFamily):
    state0, residual = initial_state(config, fam)
    section = config.geodesic
    return integrate(fam, state0, section.length, section.step), residual


def _numerical_exit(trajectory: Trajectory) -> int | None:
    if trajectory.termination in ("degenerate_metric", "nonfinite_state"):
        print(f"numerical failure: {trajectory.termination} after "
              f"s={_fmt(trajectory.reached_length)}", file=sys.stderr)
        return EXIT_NUMERICAL
    if (trajectory.termination == "domain_exit"
            and trajectory.reached_length < 0.1 * trajectory.requested_length):
        print(f"numerical failure: domain exit at "
              f"s={_fmt(trajectory.reached_length)} "
              f"(before 10% of requested length)", file=sys.stderr)
        return EXIT_NUMERICAL
    if trajectory.termination != "completed":
        print(f"warning: {trajectory.termination} at "
              f"s={_fmt(trajectory.reached_length)}", file=sys.stderr)
    return None


def _cmd_info(config: RunConfig) -> int:
    fam = config.build_family()
    print(f"family {config.family.value} variant {config.variant.value}")
    print(f"profiles fa={config.fa_text!r} fb={config.fb_text!r} "
          f"domain [{_fmt(config.t_min)}, {_fmt(config.t_max)}]")
    print("t,E,G,N,degenerate")
    for i in range(10):
        t = config.t_min + (config.t_max - config.t_min) * i / 9.0
        try:
            coeffs = fam.metric_coefficients(t)
        except DomainError as exc:
            print(f"{_fmt(t)},error: {exc}")
            continue
        flag = "yes" if coeffs.degenerate else "no"
        print(f"{_fmt(t)},{_fmt(coeffs.E)},{_fmt(coeffs.G)},{_fmt(coeffs.N)},{flag}")
    return EXIT_OK


def _cmd_geodesic(config: RunConfig, summarize: bool = False) -> int:
    """Write the trajectory artifact; with ``summarize`` (the ``invariants``
    command) also its drift summary."""
    if config.output is None:
        raise ConfigError("output", "missing")
    fam = config.build_family()
    trajectory, residual = _run_geodesic(config, fam)
    failure = _numerical_exit(trajectory)
    if failure is not None:
        return failure
    path = _resolve_output(config.output.path)
    rows = invariant_rows(fam, trajectory.rows)
    _write_table(path, config.output.format, _TRAJECTORY_COLUMNS, rows,
                 "samples", columns=list(_TRAJECTORY_COLUMNS),
                 termination=trajectory.termination)
    if not summarize:
        print(f"wrote {path} ({len(trajectory.rows)} samples, "
              f"{trajectory.termination})")
        return EXIT_OK
    # Trajectory.drifts' three and the invariants', from one transpose
    columns = dict(zip(_TRAJECTORY_COLUMNS, zip(*rows)))
    summary = {f"{name}_drift": _drift(columns[name])
               for name in ("p_u", "p_v", "L", "inv1", "inv2")}
    if residual is not None:
        summary["initial_angle_residual"] = residual
    summary_path = os.path.splitext(path)[0] + ".summary.json"
    _write_atomic(summary_path, _json(summary))
    print(f"wrote {path} and {summary_path}")
    return EXIT_OK


def _cmd_curvature(config: RunConfig) -> int:
    if config.output is None:
        raise ConfigError("output", "missing")
    fam = config.build_family()
    surface = DoubleRotationSurface(fam, config.angle_profile("u"),
                                    config.angle_profile("v"))
    section = config.curvature
    span = config.t_max - config.t_min
    ts = [config.t_min + span * (i + 0.5) / section.nt
          for i in range(section.nt)]
    ss = [config.t_min + span * (j + 0.5) / section.ns
          for j in range(section.ns)]
    try:
        rows = curvature_grid(surface, ts, ss)
    except GridPointError as exc:
        print(f"numerical failure at t={_fmt(exc.t)}, s={_fmt(exc.s)}: "
              f"{exc.error}", file=sys.stderr)
        return EXIT_NUMERICAL
    path = _resolve_output(config.output.path)
    _write_table(path, config.output.format, _CURVATURE_COLUMNS, rows, "grid")
    print(f"wrote {path} ({section.nt * section.ns} grid points)")
    return EXIT_OK


def _charge(fam: SurfaceFamily, generator, row) -> tuple:
    """<gamma', J f> of the Killing field x -> J x, J = ``generator`` (a
    checked matrix), at the point f of trajectory ``row``; then f's
    standard coordinates and the profile values fa, fb they are from."""
    _, u, v, t, du, dv, dt, *_ = row
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    point = fam.immerse_values(fa, fb, u, v)
    f_u, f_v, f_t = fam.frame_values(fa, fb, fam.fa.derivative(t),
                                     fam.fb.derivative(t), u, v)
    field = _apply(generator, point)
    return (du * _inner(f_u, field) + dv * _inner(f_v, field)
            + dt * _inner(f_t, field)), point, fa, fb


def _cmd_isometry(config: RunConfig, generator: str, angle: float) -> int:
    """The charge of the family's u-rotation is <gamma', f_u> = E u' =
    p_u / 2, as f_u = J f (p_v / 2 for v), conserved on a geodesic: print
    it at s = 0, its drift, max |q - p/2| / max(1, |p|), and the largest
    |R(angle) f - f(angle added to u or v)| over the run."""
    fam = config.build_family()
    rotation = Rotation.from_label(generator)
    rot_u, rot_v = fam.spec.rot_u, fam.spec.rot_v
    if rotation not in (rot_u, rot_v):
        raise ConfigError("generator",
                          f"{generator} does not act on family "
                          f"{config.family.value} (expects "
                          f"{rot_u.label} or {rot_v.label})")
    trajectory, _ = _run_geodesic(config, fam)
    failure = _numerical_exit(trajectory)
    if failure is not None:
        return failure
    shift_u, shift_v, column = ((angle, 0.0, 8) if rotation is rot_u
                                else (0.0, angle, 9))
    charges, defect, image = [], 0.0, 0.0
    try:
        matrix = _checked_matrix(generator_matrix(rotation))
        moved = _checked_matrix(rotation_matrix(rotation, angle))
        for row in trajectory.rows:
            q, point, fa, fb = _charge(fam, matrix, row)
            target = fam.immerse_values(fa, fb, row[1] + shift_u,
                                        row[2] + shift_v)
            g0, g1, g2, g3 = (x - y for x, y in zip(_apply(moved, point),
                                                    target))
            # before any max, which drops a nan that is not its first
            # argument: 0 * x is nan exactly when x is inf or nan
            if not math.isfinite(0.0 * q * g0 * g1 * g2 * g3):
                raise OverflowError("a point or vector beyond floats")
            charges.append(q)
            p = row[column]
            defect = max(defect, abs(q - 0.5 * p) / max(1.0, abs(p)))
            image = max(image, abs(g0), abs(g1), abs(g2), abs(g3))
    except (OverflowError, ValueError):  # also cosh's and fsum's
        print(f"numerical failure: {generator} at angle {_fmt(angle)} "
              f"overflows", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"generator {generator} angle {_fmt(angle)}: "
          f"charge {_fmt(charges[0])}, drift {_fmt(_drift(charges))}, "
          f"max |q - p/2|/max(1,|p|) {_fmt(defect)}, "
          f"max image defect {_fmt(image)}")
    return EXIT_OK


def _cmd_parse_check(text: str) -> int:
    expr = parse(text)
    d1 = differentiate(expr)
    d2 = differentiate(d1)
    print(f"expr: {to_text(expr)}")
    print(f"ast: {expr!r}")
    print(f"d1: {to_text(d1)}")
    print(f"d2: {to_text(d2)}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused
    by every later one: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="rotsurf",
        description="Geodesics and curvature on rotational surfaces in "
                    "flat (-,-,+,+) 4-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("info", "print metric coefficients on a 10-point grid"),
            ("geodesic", "integrate a geodesic and write the trajectory"),
            ("invariants", "trajectory plus conservation-drift summary"),
            ("curvature", "closed-form vs oracle curvature on a grid")):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True,
                             help="path to the JSON run configuration")

    isometry = sub.add_parser(
        "isometry", help="check a rotation's Noether charge along a "
                         "geodesic and the rotated immersion")
    isometry.add_argument("--config", required=True)
    isometry.add_argument("--generator", required=True,
                          choices=[r.label for r in Rotation])
    isometry.add_argument("--angle", type=float, default=0.5)
    isometry._negative_number_matcher = _NEGATIVE_NUMBER

    parse_check = sub.add_parser(
        "parse-check", help="print the tree and derivatives of an expression")
    parse_check.add_argument("expression")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "parse-check":
            return _cmd_parse_check(args.expression)
        if args.command == "isometry" and not math.isfinite(args.angle):
            # before any work is done
            raise ConfigError("--angle", f"must be finite, got "
                                         f"{_fmt(args.angle)}")
        config = load_config(args.config)
        if args.command == "info":
            return _cmd_info(config)
        if args.command in ("geodesic", "invariants"):
            return _cmd_geodesic(config, args.command == "invariants")
        if args.command == "curvature":
            return _cmd_curvature(config)
        if args.command == "isometry":
            return _cmd_isometry(config, args.generator, args.angle)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ExprError, ValueError) as exc:
        if isinstance(exc, (DegenerateMetricError, MetricOverflowError,
                            NotTimelikeError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
