#!/usr/bin/env python3
"""Show that the benchmark's checks can fail.

Runs one ``invariants`` command, one ensemble member and one ``curvature``
command, confirms that the checks pass on the real outputs, then feeds
them deliberately perturbed copies and confirms each is rejected:

* a momentum drifted by 1e-6 in one row,
* two CSV rows swapped,
* a K_oracle off by 1e-4,
* an ensemble endpoint off by 1e-6,
* a normal-frame vector stretched by 1e-8.

    python3 bench/selftest.py

Exits 0 when every check accepts the real output and rejects every
perturbed one.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import rotsurf.curvature  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def _fmt_row(values):
    return ",".join(f"{v:.17g}" for v in values)


def _expect(label: str, failures: list[str], should_fail: bool) -> bool:
    ok = bool(failures) == should_fail
    verdict = "rejected" if failures else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
          + (f" ({failures[0]})" if failures else ""))
    return ok


def _first_op(name: str, workdir: str):
    generated, ref = reference.generate(name, SEED)
    generated["items"], ref["items"] = generated["items"][:1], ref["items"][:1]
    paths = workloads.write_configs(generated, os.path.join(workdir, name))
    workload = workloads.WORKLOADS[name](generated, ref, paths,
                                         os.environ["ROTSURF_OUTPUT_DIR"])
    workload.setup()
    workload.run_op(0)
    workload.keep(0)
    return workload


def trajectory_cases(workdir: str) -> bool:
    workload = _first_op("trajectory", workdir)
    item, ref = workload.items[0], workload.reference[0]
    text, summary = workload.first[0][0], json.loads(workload.first[0][1])
    expected = inputs.step_count(item["doc"]["geodesic"]) + 1

    def run(csv_text):
        rows = checks.parse_trajectory(csv_text, "csv")
        return checks.check_trajectory(item["name"], rows, summary, ref,
                                       item["sample_indices"], expected)

    lines = text.splitlines()
    middle = len(lines) // 2
    # a row between the sampled ones, so only the drift checks can see it
    drifted = list(lines)
    values = [float(x) for x in drifted[middle + 7].split(",")]
    values[8] += 1e-6  # p_u
    drifted[middle + 7] = _fmt_row(values)
    swapped = list(lines)
    swapped[middle], swapped[middle + 1] = swapped[middle + 1], swapped[middle]
    return all([
        _expect("trajectory as written", run(text), False),
        _expect("trajectory with p_u drifted by 1e-6",
                run("\n".join(drifted) + "\n"), True),
        _expect("trajectory with two rows swapped",
                run("\n".join(swapped) + "\n"), True),
    ])


def ensemble_cases(workdir: str) -> bool:
    workload = _first_op("ensemble", workdir)
    item, ref = workload.items[0], workload.reference[0]
    result = workload.results[0]
    steps = inputs.step_count(item["doc"]["geodesic"])
    moved = dict(result, end=[result["end"][0] + 1e-6] + result["end"][1:])
    return all([
        _expect("ensemble member as computed",
                checks.check_member(item["name"], result, ref, steps), False),
        _expect("ensemble endpoint off by 1e-6",
                checks.check_member(item["name"], moved, ref, steps), True),
    ])


def curvature_cases(workdir: str) -> bool:
    workload = _first_op("curvature-grid", workdir)
    item, ref = workload.items[0], workload.reference[0]
    text = workload.first[0][0]
    grid = inputs.grid_points(item["doc"])

    def run(csv_text):
        return checks.check_curvature(item["name"],
                                      checks.parse_curvature(csv_text), grid,
                                      ref["K_exact"], item["flat"])

    lines = text.splitlines()
    values = [float(x) for x in lines[5].split(",")]
    values[3] += 1e-4  # K_oracle
    lines[5] = _fmt_row(values)
    t, s = item["frame_points"][0]
    e3, e4 = rotsurf.curvature.normal_frame(workload.built[0][2], t, s)
    e3, e4 = e3.components(), e4.components()
    tangents = ref["frame_tangents"][0]
    return all([
        _expect("curvature grid as written", run(text), False),
        _expect("curvature grid with K_oracle off by 1e-4",
                run("\n".join(lines) + "\n"), True),
        _expect("normal frame as computed",
                checks.check_frame(item["name"], e3, e4, tangents), False),
        _expect("normal frame with e3 stretched by 1e-8",
                checks.check_frame(item["name"],
                                   [c * (1 + 1e-8) for c in e3], e4,
                                   tangents), True),
    ])


def main() -> int:
    workdir = os.path.join(os.path.dirname(HERE), ".bench_work", "selftest")
    os.environ["ROTSURF_OUTPUT_DIR"] = os.path.join(workdir, "out")
    results = [trajectory_cases(workdir), ensemble_cases(workdir),
               curvature_cases(workdir)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
