#!/usr/bin/env python3
"""The rotsurf benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0

Steps of one run, all from the root of a checkout:

1. ``reference.py`` runs as a child process: it draws the workload's
   inputs from the seed and computes the independent references (sympy,
   scipy), so none of that memory or import time lands in this process.
2. Set-up is timed in fresh child interpreters (``setup_probe.py``).
3. This process imports rotsurf from ``src/`` and repeats whole rounds of
   the workload for ``--seconds``, closed loop, one thread.
4. Every output is checked; the last line printed is the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
rounds with every public rotsurf function wrapped in a span, then the same
rounds again without, and reports the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 7
TRACED_SHARE = 0.55  # of --seconds for the traced pass; the untraced
                     # repeat of the same rounds takes less
LAYERS = ("cli", "config", "expressions", "surfaces", "geodesics",
          "curvature", "ambient", "bench")

sys.path.insert(0, HERE)
import inputs  # noqa: E402


def _child(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{args[0]} failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def make_inputs(workload: str, seed: int, workdir: str):
    _child([os.path.join(HERE, "reference.py"), "--workload", workload,
            "--seed", str(seed), "--out", workdir], timeout=120)
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
        generated = json.load(fh)
    with open(os.path.join(workdir, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return generated, reference


def probe_setup(config_paths: list[str]):
    """Wall time of fresh interpreters doing the set-up, and their import
    time; medians over SETUP_PROBES children."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = _child([os.path.join(HERE, "setup_probe.py")] + config_paths,
                     timeout=30)
        walls.append(time.perf_counter() - start)
        imports.append(json.loads(out.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


class Stats:
    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.op_times: dict[int, list[float]] = {}
        self.op_units: dict[int, int] = {}
        self.counts: dict[str, int] = {}
        self.artifact_bytes = 0
        self.errors: list[str] = []


def measure(workload, seconds: float | None = None,
            rounds: int | None = None) -> Stats:
    """Whole rounds until ``seconds`` have passed (at least two, so every
    command is repeated) or until ``rounds`` rounds are done."""
    from workloads import OperationFailed

    stats = Stats()
    clock = time.perf_counter
    start = clock()
    while True:
        if rounds is None:
            if stats.rounds >= 2 and clock() - start >= seconds:
                break
        elif stats.rounds >= rounds:
            break
        for k in range(workload.ops_per_round):
            stats.attempted += 1
            t0 = clock()
            try:
                counts = workload.run_op(k)
            except (OperationFailed, ValueError, ArithmeticError) as exc:
                stats.failed += 1
                stats.errors.append(str(exc))
                continue
            stats.op_times.setdefault(k, []).append(clock() - t0)
            stats.op_units[k] = counts["units"]
            for key, value in counts.items():
                stats.counts[key] = stats.counts.get(key, 0) + value
            stats.artifact_bytes += workload.keep(k)
        stats.rounds += 1
    return stats


def work_rate(stats: Stats) -> float:
    """Work of one round over the sum of each operation's fastest time.

    The machine this was tuned on has phases, from under a second to
    several seconds long, in which all work (CPU time included) runs 1.3
    to 1.6 times slower; they cover about half of the wall time, so a
    median swings with how much of a run they take.  Each operation's
    fastest repetition stays on the undisturbed speed as long as one of
    its repetitions lands outside such a phase.
    """
    seconds = sum(min(times) for times in stats.op_times.values())
    return sum(stats.op_units.values()) / seconds


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(numerator, base):
    return numerator / base if base else 0.0


def layer_metrics(tracer, stats: Stats, import_s: float) -> dict:
    tr = tracer
    evals = ("expressions.ProfileFunction.evaluate",
             "expressions.ProfileFunction.derivative",
             "expressions.ProfileFunction.second_derivative")
    bundle = "surfaces.SurfaceFamily.metric_bundle"
    steps = stats.counts.get("steps", 0)
    samples = stats.counts.get("samples", 0)
    points = stats.counts.get("points", 0)
    s, count, ratio = "s", "count", "ratio"
    out = {
        "process.import_s": (import_s, s),
        "config.load_s": (tr.inclusive("config.load_config"), s),
        "expressions.parse_s": (
            tr.inclusive("expressions.ProfileFunction.from_text"), s),
        "expressions.profile_evals": (tr.count(*evals), count),
        "expressions.eval_self_s": (tr.self_seconds(*evals), s),
        "surfaces.metric_bundle_calls": (tr.count(bundle), count),
        "surfaces.metric_bundle_self_s": (tr.self_seconds(bundle), s),
        "surfaces.metric_coefficients_calls": (
            tr.count("surfaces.SurfaceFamily.metric_coefficients"), count),
        "geodesics.integrate_self_s": (
            tr.self_seconds("geodesics.integrate"), s),
        "geodesics.bundles_per_step": (_ratio(tr.count(bundle), steps),
                                       ratio),
        "geodesics.clairaut_calls_per_row": (
            _ratio(tr.count("geodesics.clairaut_report"), samples), ratio),
        "geodesics.clairaut_self_s": (
            tr.self_seconds("geodesics.clairaut_report"), s),
        "curvature.report_self_s": (
            tr.self_seconds("curvature.curvature_report"), s),
        "curvature.normal_frame_s": (
            tr.inclusive("curvature.normal_frame"), s),
        "curvature.k_oracle_s": (
            tr.inclusive("curvature.gaussian_curvature_fd"), s),
        "curvature.h_oracle_s": (
            tr.inclusive("curvature.mean_curvature_fd"), s),
        "curvature.induced_metric_calls_per_point": (_ratio(
            tr.count("curvature.DoubleRotationSurface.induced_metric"),
            points), ratio),
        "ambient.vector4_per_point": (
            _ratio(tr.count("ambient.Vector4.__init__"), points), ratio),
        "ambient.vector4_s": (tr.inclusive("ambient.Vector4.__init__"), s),
        "ambient.inner_calls": (tr.count("ambient.inner"), count),
        "cli.artifact_bytes": (stats.artifact_bytes, "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.self_seconds(layer), s)
    return out


def run_traced(make, seconds: float, import_s: float, workdir: str):
    """Traced rounds, then the same rounds untraced; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    workload = make()

    def traced_pass():
        workload.setup()
        return measure(workload, seconds=TRACED_SHARE * seconds)

    tracer.install()
    try:
        stats = tracer.span("bench.window", traced_pass)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(workdir, "spans.csv"))

    repeat = make()
    start = time.perf_counter()
    repeat.setup()
    repeat_stats = measure(repeat, rounds=stats.rounds)
    untraced = time.perf_counter() - start

    wall = tracer.inclusive("bench.window")
    metrics = layer_metrics(tracer, stats, import_s)
    attributed = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    failures = workload.check() + repeat.check()
    if abs(attributed - wall) > 1e-6 * wall:
        failures.append(f"layer self times sum to {attributed!r}, traced "
                        f"wall time is {wall!r}")
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_s": (wall - untraced, "s"),
        "trace.rounds": (stats.rounds, "count"),
        "trace.spans": (tracer.spans, "count"),
    })
    stats.attempted += repeat_stats.attempted
    stats.failed += repeat_stats.failed
    stats.errors += repeat_stats.errors
    return stats, failures, {k: _metric(v, u) for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rotsurf", "__init__.py")):
        print(f"rotsurf sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    generated, reference = make_inputs(args.workload, args.seed, workdir)
    sys.path.insert(0, SRC)
    import workloads

    config_paths = workloads.write_configs(generated,
                                           os.path.join(workdir, "configs"))
    setup_s, import_s = probe_setup(config_paths)
    output_dir = os.path.join(workdir, "out")
    os.environ["ROTSURF_OUTPUT_DIR"] = output_dir
    cls = workloads.WORKLOADS[args.workload]

    def make():
        return cls(generated, reference, config_paths, output_dir)

    if args.trace:
        stats, failures, metrics = run_traced(make, args.seconds, import_s,
                                              workdir)
    else:
        workload = make()
        workload.setup()
        stats = measure(workload, seconds=args.seconds)
        with open(os.path.join(workdir, "op_times.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(stats.op_times, fh)
        failures = workload.check()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "work_per_s": _metric(work_rate(stats), "1/s"),
            "peak_rss_mib": _metric(peak, "MiB"),
        }
        if args.workload == "curvature-grid":
            for name, (k_gap, h_gap) in workload.gaps().items():
                print(f"gap {name}: K_gap max {k_gap:.3e}, "
                      f"H_gap max {h_gap:.3e}", file=sys.stderr)
    for message in stats.errors[:5] + failures[:20]:
        print(message, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
