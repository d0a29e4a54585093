"""Command-line front end.

Commands: info, geodesic, invariants, curvature, isometry (config-driven),
plus killing and parse-check (self-contained).  Artifacts are written
atomically with 17-significant-digit numbers, so identical runs produce
byte-identical files.

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

from .config import ConfigError, RunConfig, initial_state, load_config
from .curvature import DoubleRotationSurface, GridPointError, curvature_grid
from .expressions import DomainError, ExprError, differentiate, parse, to_text
from .geodesics import (Trajectory, flow_residual, integrate, invariant_rows,
                        shift_samples)
from .isometries import KillingParams, Rotation, killing_matrix, lie_residual
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
    trajectory = integrate(fam, state0, section.length, section.step)
    return trajectory, residual


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
    inv1_first, inv2_first = rows[0][10], rows[0][11]
    summary = trajectory.drifts()
    summary["inv1_drift"] = max(abs(row[10] - inv1_first) for row in rows)
    summary["inv2_drift"] = max(abs(row[11] - inv2_first) for row in rows)
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


def _cmd_isometry(config: RunConfig, generator: str, angle: float) -> int:
    fam = config.build_family()
    rotation = Rotation.from_label(generator)
    if rotation is fam.generator("u"):
        shift = {"du": angle}
    elif rotation is fam.generator("v"):
        shift = {"dv": angle}
    else:
        raise ConfigError("generator",
                          f"{generator} does not act on family "
                          f"{config.family.value} (expects "
                          f"{fam.generator('u').label} or "
                          f"{fam.generator('v').label})")
    trajectory, _ = _run_geodesic(config, fam)
    failure = _numerical_exit(trajectory)
    if failure is not None:
        return failure
    moved = shift_samples(trajectory.samples, **shift)
    residual = flow_residual(fam, moved)
    print(f"generator {generator} angle {_fmt(angle)}: "
          f"max geodesic-equation residual {_fmt(residual)}")
    return EXIT_OK


def _cmd_killing(params: list[float]) -> int:
    matrix = killing_matrix(KillingParams(*params))
    residual = lie_residual(matrix)
    print("lie residual matrix:")
    for row in residual:
        print(" ".join(_fmt(value) for value in row))
    print(f"max-abs entry: {_fmt(max(abs(v) for row in residual for v in row))}")
    return EXIT_OK


def _require_finite(flag: str, values: list[float]):
    """Reject a non-finite float flag before any work is done."""
    if not all(map(math.isfinite, values)):
        raise ConfigError(flag, "must be finite, got "
                                + " ".join(_fmt(v) for v in values))


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
        "isometry", help="map a geodesic by a one-parameter isometry and "
                         "report the geodesic-equation residual")
    isometry.add_argument("--config", required=True)
    isometry.add_argument("--generator", required=True,
                          choices=[r.label for r in Rotation])
    isometry.add_argument("--angle", type=float, default=0.5)

    killing = sub.add_parser(
        "killing", help="residual of the metric Lie derivative for a "
                        "six-parameter field")
    killing.add_argument("--params", type=float, nargs=6,
                         default=[1.0] * 6, metavar=("A", "B", "C", "D", "E", "F"))
    isometry._negative_number_matcher = _NEGATIVE_NUMBER
    killing._negative_number_matcher = _NEGATIVE_NUMBER

    parse_check = sub.add_parser(
        "parse-check", help="print the tree and derivatives of an expression")
    parse_check.add_argument("expression")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "killing":
            _require_finite("--params", args.params)
            return _cmd_killing(args.params)
        if args.command == "parse-check":
            return _cmd_parse_check(args.expression)
        if args.command == "isometry":
            _require_finite("--angle", [args.angle])
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
