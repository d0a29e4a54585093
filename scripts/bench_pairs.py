#!/usr/bin/env python3
"""Paired benchmark runs of two git revisions, summarised in a BENCH file.

    python3 scripts/bench_pairs.py --base HEAD~1 --head HEAD --label mine \\
        --workload curvature-grid:10 --workload trajectory:5 \\
        --workload ensemble:5 --first-seed 1001

Each revision is exported with ``git archive`` (tracked files only) into
a temporary directory, and the command of ``BENCHMARK.json`` (``python3
bench/run.py``) runs in each export.  Pair i of a workload runs both sides
on seed ``first_seed + i`` for ``BENCHMARK.json``'s ``run_seconds``; even
pairs run the base first, odd pairs the head.  ``BENCH_<label>.json`` at the root of the repository, rewritten
after every pair, holds each run with its result line and the Python
version, and for each workload and end-to-end metric each side's median
and quartiles and the number of pairs in which the head reads better, in
the direction ``BENCHMARK.json`` names (ties count for neither side),
how much worse the head's median reads and whether that is within the
metric's ``bound``, whether the comparison is unresolved: the base's
quartile spread is wider than the bound allows, so a head within the
bound is not shown unchanged, unless every head run reads better than
every base run; and whether a gain is resolved: at least 10 pairs ran,
the head reads better in at least 9 of 10 of them and its median is
better by more than the base's quartile spread, the rule a claimed gain
is held to.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export(revision: str, directory: str):
    """The tracked files of ``revision``, written under ``directory``."""
    # the "data" filter exists from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", revision))) as tar:
        tar.extractall(directory, **safe)


def run_once(command: list[str], checkout: str, workload: str, seed: int,
             seconds: float) -> dict:
    """The parsed result line of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout} failed "
                         f"({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: pair count, correctness, operations attempted and
    failed on each side, and per end-to-end metric each side's median and
    quartiles, the ratio of the medians (head over base), the pairs in
    which the head reads better, ``worse_by`` (the head median's relative
    change in the metric's worse direction, 0 if it reads better) and
    ``within_bound`` (``worse_by`` at most the metric's ``bound``),
    ``unresolved`` (the base's q3 - q1 over its median wider than the
    ``bound``, and not every head run better than every base run) and
    ``gain_resolved`` (at least 10 pairs, the head better in at least 9/10
    of them, and its median better than the base's by more than the base's
    q3 - q1)."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
        complete = [pair for pair in pairs.values() if len(pair) == 2]
        entry = {
            "pairs": len(complete),
            "correct": all(pair[side]["correct"] for pair in complete
                           for side in SIDES),
            "attempted": {side: sum(pair[side]["attempted"]
                                    for pair in complete) for side in SIDES},
            "failed": {side: sum(pair[side]["failed"] for pair in complete)
                       for side in SIDES},
            "metrics": {},
        }
        for metric in end_to_end if complete else ():
            name, sign = metric["name"], (1 if metric["better"] == "higher"
                                          else -1)
            values = {side: [pair[side]["metrics"][name]["value"]
                             for pair in complete] for side in SIDES}
            better = sum(1 for base, head in zip(values["base"],
                                                 values["head"])
                         if sign * (head - base) > 0)
            base_median = statistics.median(values["base"])
            head_median = statistics.median(values["head"])
            worse_by = (max(0.0, sign * (base_median - head_median)
                            / abs(base_median)) if base_median else None)
            base_spread = _spread(values["base"])
            spread = base_spread["q3"] - base_spread["q1"]
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "base": base_spread,
                "head": _spread(values["head"]),
                "ratio": head_median / base_median if base_median else None,
                "better_pairs": f"{better}/{len(complete)}",
                "worse_by": worse_by,
                "within_bound": (worse_by <= metric["bound"]
                                 if worse_by is not None else None),
                "unresolved": (
                    spread > metric["bound"] * abs(base_median)
                    and not min(sign * head for head in values["head"])
                    > max(sign * base for base in values["base"])),
                "gain_resolved": (
                    len(complete) >= 10 and 10 * better >= 9 * len(complete)
                    and sign * (head_median - base_median) > spread),
            }
        summary[workload] = entry
    return summary


def _workload(text: str) -> tuple[str, int]:
    name, _, pairs = text.rpartition(":")
    if not name or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError("expected NAME:PAIRS, PAIRS >= 1")
    return name, int(pairs)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", required=True, help="revision measured")
    parser.add_argument("--label", required=True,
                        help="names the output, BENCH_<label>.json")
    parser.add_argument("--workload", type=_workload, action="append",
                        required=True, metavar="NAME:PAIRS")
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)

    revisions = {side: _git("rev-parse", "--verify",
                            f"{getattr(args, side)}^{{commit}}")
                 .decode().strip() for side in SIDES}
    seconds = benchmark["run_seconds"]
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine()},
        "command": benchmark["command"],
        "revisions": revisions,
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {side: os.path.join(scratch, side) for side in SIDES}
        for side in SIDES:
            export(revisions[side], checkouts[side])
        for workload, count in args.workload:
            for i in range(count):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = run_once(benchmark["command"], checkouts[side],
                                      workload, seed, seconds)
                    record["runs"].append({
                        "workload": workload, "seed": seed,
                        "seconds": seconds, "side": side,
                        "revision": revisions[side], "order": position,
                        "result": result})
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(result['metrics'])}", file=sys.stderr)
                record["summary"] = summarize(record["runs"],
                                              benchmark["end_to_end"])
                with open(out_path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=2)
                    fh.write("\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
