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
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from operator import itemgetter

from .ambient import _inner
from .config import ConfigError, RunConfig, initial_state, load_config
from .curvature import DoubleRotationSurface, GridPointError, _grid_rows
from .expressions import DomainError, ExprError, differentiate, parse, to_text
from .geodesics import (_TRAJECTORY_COLUMNS, _drift, _run_chunks,
                        invariant_rows)
from .isometries import Rotation, _plane_map
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


class _NumericalFailure(Exception):
    """A numerical failure; ``main`` prints its line and exits 2."""


def _resolve_output(config: RunConfig) -> str:
    if config.output is None:
        raise ConfigError("output", "missing")
    override = os.environ.get(_OUTPUT_DIR_VAR)
    if override:
        return os.path.join(override, os.path.basename(config.output.path))
    return config.output.path


def _write_atomic(path: str, text, *more):
    """Write ``text`` (a string or strings) to ``path``, then each (path,
    text) of ``more``, to temporary files that then replace the paths, the
    last first; a failure replaces none and removes them and the directories
    made.  An ``OSError`` names ``ROTSURF_OUTPUT_DIR``, else output.path."""
    files, temps, made = [(path, text), *more], [], []
    try:
        try:
            for path, text in files:
                directory = missing = os.path.dirname(os.path.abspath(path))
                while not os.path.isdir(missing):  # to be made below
                    made.append(missing)
                    missing = os.path.dirname(missing)
                if missing != directory:
                    os.makedirs(directory, exist_ok=True)
                # os.replace keeps the temporary file's mode: 0o666 under
                # the umask, as open(path, "w") would create ``path`` (a
                # mkstemp file is 0o600); O_EXCL never reuses a name
                temp = os.path.join(directory,
                                    f".rotsurf-{os.urandom(8).hex()}")
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                temps.append(temp)
                with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as out:
                    out.writelines([text] if isinstance(text, str) else text)
            for temp, (path, _) in reversed(list(zip(temps, files))):
                os.replace(temp, path)
        except BaseException:
            for temp in temps:
                if os.path.exists(temp):
                    os.unlink(temp)
            for directory in sorted(made, reverse=True):  # children first
                with contextlib.suppress(OSError):  # not empty: kept
                    os.rmdir(directory)
            raise
    except OSError as exc:
        raise ConfigError(_OUTPUT_DIR_VAR if os.environ.get(_OUTPUT_DIR_VAR)
                          else "output.path",
                          f"cannot write {path!r}: {exc.strerror}") from exc


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# the members of one row object at indent level 2, by the C encoder (an
# ``indent`` makes ``json.dumps`` fall back to the pure-Python one)
_encode_row = json.JSONEncoder(sort_keys=True,
                               separators=(",\n      ", ": ")).encode


def _table(fmt: str, names: tuple[str, ...], chunks, key: str, extra: dict):
    """A piece per list of ``chunks`` of tuples with column ``names``: CSV
    of ``f"{value:.17g}"``, or ``json.dumps(indent=2, sort_keys=True)`` of
    ``extra``, its members after ``key`` read once the chunks are spent, and
    a row object per tuple, by a ``%r`` template for finite float chunks."""
    if fmt == "csv":
        line = ",".join(["%.17g"] * len(names)) + "\n"
        yield ",".join(names) + "\n"
        for chunk in chunks:
            yield "".join([line % row for row in chunk])
        return
    head, empty, _ = _json({**extra, key: []}).partition(f'\n  "{key}": []')
    order = sorted(range(len(names)), key=names.__getitem__)
    template = ",\n      ".join([f'"{names[k]}": %r' for k in order])
    pick, between = itemgetter(*order), "\n    },\n    {\n      "
    opening = f'{head}{empty[:-1]}\n    {{\n      '
    for chunk in filter(None, chunks):
        values = list(itertools.chain.from_iterable(chunk))
        # a sum is finite only if every term is
        if {*map(type, values)} == {float} and math.isfinite(sum(values)):
            members = [template % pick(row) for row in chunk]
        else:
            members = [_encode_row(dict(zip(names, row)))[1:-1]
                       for row in chunk]
        yield opening + between.join(members)
        opening = between
    tail = _json({**extra, key: []}).partition(empty)[2]
    # an opening still unused: no row was written
    yield (head + empty if opening != between else "\n    }\n  ]") + tail


_SUMMARY_COLUMNS = {f"{name}_drift": _TRAJECTORY_COLUMNS.index(name)
                    for name in ("p_u", "p_v", "L", "inv1", "inv2")}
# a trajectory row's point and velocity
_STATE = itemgetter(*map(_TRAJECTORY_COLUMNS.index,
                         ("u", "v", "t", "du", "dv", "dt")))
_CHUNK_ROWS = 256
_CURVATURE_COLUMNS = ("t", "s", "K_formula", "K_oracle", "K_gap",
                      "h3", "h4", "H_gap")


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


def _checked(fam: SurfaceFamily, state0, section, seen: dict):
    """``_run_chunks``' lists of ``_CHUNK_ROWS`` rows of geodesic ``section``
    from ``state0``, then a failed run's ``_NumericalFailure``, or an early
    end's warning; ``seen`` keeps the row count, last s and termination."""
    for chunk in _run_chunks(fam, state0, section.length, section.step,
                             _CHUNK_ROWS):
        if isinstance(chunk, str):
            break
        seen["rows"], seen["s"] = seen["rows"] + len(chunk), chunk[-1][0]
        yield chunk
    reached = seen.get("s", 0.0)
    if chunk in ("degenerate_metric", "nonfinite_state"):
        raise _NumericalFailure(f"numerical failure: {chunk}"
                                f" after s={_fmt(reached)}")
    if chunk == "domain_exit" and reached < 0.1 * section.length:
        raise _NumericalFailure(f"numerical failure: domain exit at "
                                f"s={_fmt(reached)} "
                                f"(before 10% of requested length)")
    if chunk != "completed":
        print(f"warning: {chunk} at s={_fmt(reached)}", file=sys.stderr)
    seen["termination"] = chunk


def _cmd_geodesic(config: RunConfig, summarize: bool = False) -> int:
    """Write the trajectory artifact in one pass over the run's chunks;
    with ``summarize`` (the ``invariants`` command) also its drift summary."""
    path = _resolve_output(config)
    fam = config.build_family()
    state0, residual = initial_state(config, fam)
    seen, extra = {"rows": 0}, {"columns": list(_TRAJECTORY_COLUMNS)}

    def chunks():  # with invariants; each summary column's (x_0, min, max)
        for chunk in _checked(fam, state0, config.geodesic, seen):
            chunk = invariant_rows(fam, chunk)
            for column in _SUMMARY_COLUMNS.values():
                values = list(map(itemgetter(column), chunk))
                x0, low, high = seen.setdefault(column, (values[0],) * 3)
                seen[column] = x0, min(low, *values), max(high, *values)
            yield chunk
        extra["termination"] = seen["termination"]

    text = _table(config.output.format, _TRAJECTORY_COLUMNS, chunks(),
                  "samples", extra)

    def summary():  # iterated once the artifact's rows are written
        drifts = {name: _drift(seen[column])
                  for name, column in _SUMMARY_COLUMNS.items()}
        if residual is not None:
            drifts["initial_angle_residual"] = residual
        yield _json(drifts)

    summary_path = os.path.splitext(path)[0] + ".summary.json"
    more = [(summary_path, summary())] if summarize else []
    _write_atomic(path, text, *more)
    print(f"wrote {path} and {summary_path}" if summarize else
          f"wrote {path} ({seen['rows']} samples, {extra['termination']})")
    return EXIT_OK


def _cmd_curvature(config: RunConfig) -> int:
    path = _resolve_output(config)
    fam = config.build_family()
    surface = DoubleRotationSurface(fam, config.angle_profile("u"),
                                    config.angle_profile("v"))
    section = config.curvature
    span = config.t_max - config.t_min
    ts, ss = ([config.t_min + span * (i + 0.5) / n for i in range(n)]
              for n in (section.nt, section.ns))
    try:  # a t-row of points at a time
        _write_atomic(path, _table(config.output.format, _CURVATURE_COLUMNS,
                                   _grid_rows(surface, ts, ss), "grid", {}))
    except GridPointError as exc:
        raise _NumericalFailure(f"numerical failure at t={_fmt(exc.t)}, "
                                f"s={_fmt(exc.s)}: {exc.error}") from exc
    print(f"wrote {path} ({section.nt * section.ns} grid points)")
    return EXIT_OK


def _charge(fam: SurfaceFamily, generator, row) -> tuple:
    """<gamma', J f> of the Killing field x -> J x, ``generator`` (J's
    ``_plane_map``), at the point f of trajectory ``row``; then f's
    standard coordinates and the fa, fb, u and v they are from."""
    u, v, t, du, dv, dt = _STATE(row)
    fa, fb = fam.fa.evaluate(t), fam.fb.evaluate(t)
    point, f_u, f_v, f_t = fam.frame_values(fa, fb, fam.fa.derivative(t),
                                            fam.fb.derivative(t), u, v)
    field = generator(point)
    return (du * _inner(f_u, field) + dv * _inner(f_v, field)
            + dt * _inner(f_t, field)), point, fa, fb, u, v


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
    state0, _ = initial_state(config, fam)
    seen = {"rows": 0}
    chunks = _checked(fam, state0, config.geodesic, seen)
    shift_u, shift_v, momentum = ((angle, 0.0, "p_u") if rotation is rot_u
                                  else (0.0, angle, "p_v"))
    column = _TRAJECTORY_COLUMNS.index(momentum)
    charge, defect, image = (), 0.0, 0.0
    try:
        field = _plane_map(rotation,
                           rotation.derivative(rotation.block(0.0)), 0.0)
        move = _plane_map(rotation, rotation.block(angle), 1.0)
        for row in itertools.chain.from_iterable(chunks):
            q, point, fa, fb, u, v = _charge(fam, field, row)
            target = fam.immerse_values(fa, fb, u + shift_u, v + shift_v)
            g0, g1, g2, g3 = (x - y for x, y in zip(move(point), target))
            # before any max, which drops a nan that is not its first
            # argument: 0 * x is nan exactly when x is inf or nan
            if not math.isfinite(0.0 * q * g0 * g1 * g2 * g3):
                raise OverflowError("a point or vector beyond floats")
            q0, low, high = charge or (q, q, q)  # for _drift
            charge = q0, min(low, q), max(high, q)
            p = row[column]
            defect = max(defect, abs(q - 0.5 * p) / max(1.0, abs(p)))
            image = max(image, abs(g0), abs(g1), abs(g2), abs(g3))
    except (OverflowError, ValueError) as exc:  # also cosh's and fsum's
        for _ in chunks:  # a failed run outranks the overflow: run it out
            pass
        if "termination" not in seen:  # the run's own error, at its start
            raise
        raise _NumericalFailure(f"numerical failure: {generator} at angle "
                                f"{_fmt(angle)} overflows") from exc
    print(f"generator {generator} angle {_fmt(angle)}: "
          f"charge {_fmt(charge[0])}, drift {_fmt(_drift(charge))}, "
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
    except (DegenerateMetricError, MetricOverflowError,
            NotTimelikeError) as exc:
        failure = f"numerical failure: {exc}"
    except (ConfigError, ExprError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NumericalFailure as exc:
        failure = exc
    print(failure, file=sys.stderr)
    return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
