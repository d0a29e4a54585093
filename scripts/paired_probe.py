#!/usr/bin/env python3
"""In-process paired timing of two revisions' CLI commands.

    python3 scripts/paired_probe.py --base HEAD~1 --head HEAD --seed 2801 \\
        --pairs 100

Each revision is exported with ``bench_pairs.export``, and its
``src/rotsurf`` is copied to a private package, ``rotsurf_base`` or
``rotsurf_head``; both are imported into this one process, which works
because ``src/`` imports itself only relatively.  ``bench/reference.py``
(of the head) runs as a child process and writes one seed's
``inputs.json`` for each of the benchmark's three workloads; their
configs are written from it.

A pair runs every config of a workload once through each side and keeps
each side's summed time: ``trajectory`` and ``curvature-grid`` call the
side's ``cli.main`` (``invariants`` or ``curvature``), and ``ensemble``
its library as ``bench/workloads.py`` does (the start, ``integrate``, the
drifts and the final ``clairaut_report``; each config is loaded and its
family built once, in the warm-up round).  ``import``, which runs only
when named, takes no inputs: a pair times one fresh interpreter per side
running ``import rotsurf_<side>.cli``, the part of every CLI command that
the package controls, with the bytecode cache unwritten.  The base goes
first in even pairs, the head first in odd ones, so the order runs A B B A
A B ...  One untimed round per side comes before pair 0, so neither side's
timed rounds include its first-call costs.  Both sides run in seconds of
each other, so the host's drift in speed cancels in the ratio.  Printed
per workload, one JSON line: the median per-pair ratio head/base, a
distribution-free 95 % interval for it from order statistics (the
sign-test interval, as in Conover, *Practical Nonparametric Statistics*)
with its exact coverage, whether the interval excludes 1, the median
per-pair difference head - base in seconds, and whether both sides wrote
the same artifact bytes and returned the same values.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

SIDES = bench_pairs.SIDES
# the CLI command of each workload; None: through the library
COMMANDS = {"trajectory": "invariants", "ensemble": None,
            "curvature-grid": "curvature"}


def sign_interval(values, level: float = 0.95) -> tuple:
    """(low, high, coverage): the order statistics x_(k) and x_(n+1-k) of
    the sorted ``values`` for the largest k whose interval holds the median
    with probability ``coverage`` >= ``level`` under the sign test, whose
    count below the median is Binomial(n, 1/2); k = 1, the range, when n is
    too small for ``level``."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no values")

    def coverage(k: int) -> float:  # 1 - 2 P(B <= k - 1)
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2 ** n

    k = 1
    while k + 1 <= n - k and coverage(k + 1) >= level:
        k += 1
    return xs[k - 1], xs[n - k], coverage(k)


def summarize(times: dict[str, list[float]]) -> dict:
    """The per-pair ratios head/base of ``times``' two lists, their median
    and ``sign_interval``."""
    ratios = [h / b for b, h in zip(times["base"], times["head"], strict=True)]
    low, high, coverage = sign_interval(ratios)
    return {"pairs": len(ratios), "median_ratio": statistics.median(ratios),
            "interval": [low, high], "coverage": coverage,
            "excludes_1": not low <= 1.0 <= high,
            "median_difference_s": statistics.median(
                h - b for b, h in zip(times["base"], times["head"]))}


def _configs(workload: str, seed: int, reference: str, directory: str):
    """Config paths of one seed's ``workload`` inputs."""
    subprocess.run([sys.executable, reference, "--workload", workload,
                    "--seed", str(seed), "--out", directory], check=True,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    paths = []
    for item in items:
        path = os.path.join(directory, f"{item['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item["doc"], fh, indent=1)
        paths.append(path)
    return paths


def cli_op(package: str, command: str):
    """One config through ``package``'s ``cli.main`` ``command``; exits on
    a failure."""
    main = importlib.import_module(f"{package}.cli").main

    def op(config: str):
        code = main([command, "--config", config])
        if code != 0:
            raise SystemExit(f"{command} --config {config} exited {code}")
    return op


def import_op(package: str, path: str):
    """A fresh interpreter importing ``package``'s ``cli`` from the
    directory ``path``, with no bytecode written; exits on a failure.
    Takes a config for ``_round``'s sake and reads none."""
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}

    def op(_config):
        code = subprocess.run([sys.executable, "-c", f"import {package}.cli"],
                              env=env).returncode
        if code != 0:
            raise SystemExit(f"import {package}.cli exited {code}")
    return op


def ensemble_op(package: str):
    """One ensemble member through ``package``'s library, as
    ``bench/workloads.py``'s ``Ensemble.run_op`` runs it: its start,
    ``integrate``, the drifts and ``clairaut_report`` of the final state.
    Returns what it found; the config and family are built on a config's
    first call."""
    config_module = importlib.import_module(f"{package}.config")
    geodesics = importlib.import_module(f"{package}.geodesics")
    surfaces = importlib.import_module(f"{package}.surfaces")
    built = {}

    def op(path: str):
        if path not in built:
            config = config_module.load_config(path)
            built[path] = config, config.build_family()
        config, family = built[path]
        section = config.geodesic
        init = section.initial
        if section.angle_style:
            state = geodesics.state_from_angles(
                family, init["u"], init["v"], init["t"], init["phi"],
                init["theta"])
        else:
            state = family.normalize_timelike(surfaces.GeodesicState(
                init["u"], init["v"], init["t"], init["du"], init["dv"],
                init["dt"]))
        trajectory = geodesics.integrate(family, state, section.length,
                                         section.step)
        drifts = trajectory.drifts()
        report = geodesics.clairaut_report(family, trajectory.final.state)
        return (trajectory.termination, len(trajectory.rows),
                trajectory.final.state.as_tuple(), drifts,
                (report.L, report.p_u, report.p_v, report.invariant1,
                 report.invariant2))
    return op


def _round(op, configs: list[str], out_dir: str) -> tuple[float, list]:
    """Seconds ``op`` took on every config, writing any artifacts under
    ``out_dir``, and what it returned for each."""
    os.environ["ROTSURF_OUTPUT_DIR"] = out_dir
    total, found = 0.0, []
    with contextlib.redirect_stdout(io.StringIO()):
        for config in configs:
            start = time.perf_counter()
            value = op(config)
            total += time.perf_counter() - start
            found.append(value)
    return total, found


def _same_bytes(left: str, right: str) -> bool:
    names = sorted(os.listdir(left))
    if names != sorted(os.listdir(right)):
        return False
    for name in names:
        with open(os.path.join(left, name), "rb") as a, \
                open(os.path.join(right, name), "rb") as b:
            if a.read() != b.read():
                return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", required=True, help="revision measured")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=[*COMMANDS, "import"],
                        help="default: the benchmark's three")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="paired-probe-") as scratch:
        packages = os.path.join(scratch, "packages")
        for side in SIDES:
            checkout = os.path.join(scratch, side)
            bench_pairs.export(getattr(args, side), checkout)
            shutil.copytree(os.path.join(checkout, "src", "rotsurf"),
                            os.path.join(packages, f"rotsurf_{side}"))
        sys.path.insert(0, packages)
        reference = os.path.join(scratch, "head", "bench", "reference.py")
        for workload in args.workload or list(COMMANDS):
            directory = os.path.join(scratch, workload)
            os.makedirs(directory)
            outs = {side: os.path.join(directory, f"out-{side}")
                    for side in SIDES}
            if workload == "import":  # no inputs: one interpreter a round
                configs = [None]
                ops = {side: import_op(f"rotsurf_{side}", packages)
                       for side in SIDES}
            else:
                configs = _configs(workload, args.seed, reference, directory)
                command = COMMANDS[workload]
                ops = {side: ensemble_op(f"rotsurf_{side}") if command is None
                       else cli_op(f"rotsurf_{side}", command)
                       for side in SIDES}
            times, found = {side: [] for side in SIDES}, {}
            for side in SIDES:  # the untimed warm-up round
                os.makedirs(outs[side])
                found[side] = _round(ops[side], configs, outs[side])[1]
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    seconds, _ = _round(ops[side], configs, outs[side])
                    times[side].append(seconds)
            print(json.dumps({"workload": workload, "seed": args.seed,
                              **summarize(times),
                              "same_bytes": _same_bytes(*outs.values())
                              and repr(found["base"]) == repr(found["head"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
