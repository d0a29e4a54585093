"""The three workloads, run in process against rotsurf.

A workload is a fixed round of operations; the runner repeats whole
rounds.  ``run_op`` does one operation and returns its counts; what it
keeps for checking is kept outside the timed call.  The program is always
reached through module attributes (``rotsurf.cli.main``,
``rotsurf.geodesics.integrate``, ...) so that the tracer's wrappers are
the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import rotsurf.cli
import rotsurf.config
import rotsurf.curvature
import rotsurf.geodesics
import rotsurf.surfaces

import checks
import inputs


# coarse step of the order check: RK4 error well above the roundoff floor
ORDER_STEP = 0.02


class OperationFailed(Exception):
    """The program refused or failed one operation."""


def write_configs(generated: dict, config_dir: str) -> list[str]:
    os.makedirs(config_dir, exist_ok=True)
    paths = []
    for item in generated["items"]:
        path = os.path.join(config_dir, f"{item['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item["doc"], fh, indent=1)
        paths.append(path)
    return paths


def setup(config_paths: list[str]):
    """Load and validate every config; build its family and surface."""
    built = []
    for path in config_paths:
        config = rotsurf.config.load_config(path)
        family = config.build_family()
        surface = None
        if config.curvature is not None:
            surface = rotsurf.curvature.DoubleRotationSurface(
                family, config.angle_profile("u"), config.angle_profile("v"))
        built.append((config, family, surface))
    return built


def _run_cli(args: list[str]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = rotsurf.cli.main(args)
    if code != 0:
        raise OperationFailed(f"rotsurf {' '.join(args)} exited {code}: "
                              f"{sink.getvalue().strip()}")


class _CliWorkload:
    """Shared bookkeeping of the workloads that run CLI commands."""

    command = ""

    def __init__(self, generated, reference, config_paths, output_dir):
        self.items = generated["items"]
        self.reference = reference["items"]
        self.config_paths = config_paths
        self.output_dir = output_dir
        self.ops_per_round = len(self.items)
        self.first = [None] * len(self.items)   # artifact texts of round 0
        self.digests = [None] * len(self.items)
        self.mismatches: list[str] = []

    def setup(self):
        self.built = setup(self.config_paths)

    def _artifacts(self, k: int) -> list[str]:
        raise NotImplementedError

    def run_op(self, k: int) -> dict:
        _run_cli([self.command, "--config", self.config_paths[k]])
        return self._counts(k)

    def keep(self, k: int):
        """Keep round-0 artifacts; later rounds must be byte-identical."""
        texts = []
        for path in self._artifacts(k):
            with open(path, "rb") as fh:
                texts.append(fh.read())
        digest = hashlib.sha256(b"\0".join(texts)).hexdigest()
        if self.first[k] is None:
            self.first[k] = [t.decode("utf-8") for t in texts]
            self.digests[k] = digest
        elif digest != self.digests[k]:
            self.mismatches.append(f"{self.items[k]['name']}: repeated "
                                   f"command wrote different bytes")
        return sum(len(t) for t in texts)


class Trajectory(_CliWorkload):
    command = "invariants"

    def _artifacts(self, k):
        output = self.items[k]["doc"]["output"]
        path = os.path.join(self.output_dir, output["path"])
        return [path, os.path.splitext(path)[0] + ".summary.json"]

    def _counts(self, k):
        steps = inputs.step_count(self.items[k]["doc"]["geodesic"])
        return {"units": steps + 1, "steps": steps, "samples": steps + 1}

    def check(self) -> list[str]:
        failures = list(self.mismatches)
        for item, ref, texts in zip(self.items, self.reference, self.first):
            if texts is None:  # the command failed; counted in ``failed``
                continue
            rows = checks.parse_trajectory(texts[0],
                                           item["doc"]["output"]["format"])
            summary = json.loads(texts[1])
            expected = inputs.step_count(item["doc"]["geodesic"]) + 1
            failures += checks.check_trajectory(
                item["name"], rows, summary, ref, item["sample_indices"],
                expected)
        return failures


class CurvatureGrid(_CliWorkload):
    command = "curvature"

    def _artifacts(self, k):
        return [os.path.join(self.output_dir,
                             self.items[k]["doc"]["output"]["path"])]

    def _counts(self, k):
        grid = self.items[k]["doc"]["curvature"]["grid"]
        return {"units": grid["nt"] * grid["ns"],
                "points": grid["nt"] * grid["ns"]}

    def check(self) -> list[str]:
        failures = list(self.mismatches)
        for k, (item, ref) in enumerate(zip(self.items, self.reference)):
            if self.first[k] is None:  # the command failed; counted
                continue
            rows = checks.parse_curvature(self.first[k][0])
            failures += checks.check_curvature(
                item["name"], rows, inputs.grid_points(item["doc"]),
                ref["K_exact"], item["flat"])
            surface = self.built[k][2]
            for (t, s), tangents in zip(item["frame_points"],
                                        ref["frame_tangents"]):
                e3, e4 = rotsurf.curvature.normal_frame(surface, t, s)
                failures += checks.check_frame(
                    f"{item['name']} at t={t!r}, s={s!r}", e3.components(),
                    e4.components(), tangents)
        return failures

    def gaps(self) -> dict:
        """Largest closed-form K_gap and H_gap per surface (reported data)."""
        out = {}
        for item, texts in zip(self.items, self.first):
            if texts is None:
                continue
            rows = checks.parse_curvature(texts[0])
            out[item["name"]] = (max(r[4] for r in rows),
                                 max(r[7] for r in rows))
        return out


class Ensemble:
    """Short geodesics integrated through the library, no artifacts."""

    def __init__(self, generated, reference, config_paths, output_dir):
        self.items = generated["items"]
        self.reference = reference["items"]
        self.config_paths = config_paths
        self.ops_per_round = len(self.items)
        self.results = [None] * len(self.items)
        self.mismatches: list[str] = []

    def setup(self):
        self.built = setup(self.config_paths)

    def _state(self, k: int):
        config, family, _ = self.built[k]
        section = config.geodesic
        init = section.initial
        if section.angle_style:
            return rotsurf.geodesics.state_from_angles(
                family, init["u"], init["v"], init["t"], init["phi"],
                init["theta"])
        state = rotsurf.surfaces.GeodesicState(
            init["u"], init["v"], init["t"], init["du"], init["dv"],
            init["dt"])
        return family.normalize_timelike(state)

    def run_op(self, k: int) -> dict:
        config, family, _ = self.built[k]
        state = self._state(k)
        trajectory = rotsurf.geodesics.integrate(
            family, state, config.geodesic.length, config.geodesic.step)
        drifts = trajectory.drifts()
        report = rotsurf.geodesics.clairaut_report(family,
                                                   trajectory.final.state)
        self._last = (state, trajectory, drifts, report)
        steps = len(trajectory.samples) - 1
        return {"units": steps, "steps": steps,
                "samples": len(trajectory.samples)}

    def keep(self, k: int) -> int:
        state, trajectory, drifts, report = self._last
        result = {"termination": trajectory.termination,
                  "steps": len(trajectory.samples) - 1,
                  "start": list(state.as_tuple()),
                  "end": list(trajectory.final.state.as_tuple()),
                  "drifts": drifts,
                  "report": {"L": report.L, "p_u": report.p_u,
                             "p_v": report.p_v, "inv1": report.invariant1,
                             "inv2": report.invariant2}}
        if self.results[k] is None:
            self.results[k] = result
        elif result != self.results[k]:
            self.mismatches.append(f"{self.items[k]['name']}: repeated "
                                   f"member gave a different result")
        return 0

    def check(self) -> list[str]:
        failures = list(self.mismatches)
        seen = set()
        for k, (item, ref) in enumerate(zip(self.items, self.reference)):
            if self.results[k] is None:  # the member failed; counted
                continue
            section = item["doc"]["geodesic"]
            failures += checks.check_member(item["name"], self.results[k], ref,
                                            inputs.step_count(section))
            # order: one member per family and variant, at coarse steps so
            # the error sits above the roundoff floor
            family_key = (item["doc"]["family"], item["doc"]["variant"])
            if family_key in seen:
                continue
            seen.add(family_key)
            config, family, _ = self.built[k]
            state = self._state(k)
            ends = [rotsurf.geodesics.integrate(
                        family, state, section["length"], step
                    ).final.state.as_tuple()
                    for step in (ORDER_STEP, ORDER_STEP / 2)]
            failures += checks.check_order(item["name"], ends[0], ends[1],
                                           ref["rows"][-1]["state"])
        return failures


WORKLOADS = {"trajectory": Trajectory, "ensemble": Ensemble,
             "curvature-grid": CurvatureGrid}
