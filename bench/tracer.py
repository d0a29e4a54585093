"""Span tracer that wraps rotsurf's public functions from outside.

Each traced function is replaced under every name its callers look it up
by: a module-level function in every ``rotsurf`` module namespace that
holds it (``rotsurf.cli.integrate``, ``rotsurf.geodesics.integrate``, ...),
a method as the class attribute (``SurfaceFamily.metric_bundle``).  A span
records name, start, end and parent span.  Calls, inclusive time and self
time (span time minus the time of its child spans) are summed per name as
spans close; the first ``capacity`` spans are also kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute) of each traced function; "Class.method" for methods.
TRACED = {
    "cli": [("rotsurf.cli", "main")],
    "config": [("rotsurf.config", "load_config"),
               ("rotsurf.config", "RunConfig.build_family"),
               ("rotsurf.config", "RunConfig.angle_profile"),
               ("rotsurf.config", "initial_state")],
    "expressions": [("rotsurf.expressions", "ProfileFunction.from_text"),
                    ("rotsurf.expressions", "ProfileFunction.evaluate"),
                    ("rotsurf.expressions", "ProfileFunction.derivative"),
                    ("rotsurf.expressions",
                     "ProfileFunction.second_derivative")],
    "surfaces": [("rotsurf.surfaces", "SurfaceFamily.metric_bundle"),
                 ("rotsurf.surfaces", "SurfaceFamily.metric_coefficients"),
                 ("rotsurf.surfaces", "SurfaceFamily.lagrangian"),
                 ("rotsurf.surfaces", "SurfaceFamily.normalize_timelike"),
                 ("rotsurf.surfaces", "SurfaceFamily.immerse_values"),
                 ("rotsurf.surfaces", "SurfaceFamily.frame_values")],
    "geodesics": [("rotsurf.geodesics", "integrate"),
                  ("rotsurf.geodesics", "Trajectory.drifts"),
                  ("rotsurf.geodesics", "clairaut_report"),
                  ("rotsurf.geodesics", "extract_angles"),
                  ("rotsurf.geodesics", "state_from_angles"),
                  ("rotsurf.geodesics", "momenta")],
    "curvature": [("rotsurf.curvature", "curvature_report"),
                  ("rotsurf.curvature", "normal_frame"),
                  ("rotsurf.curvature", "gaussian_curvature_fd"),
                  ("rotsurf.curvature", "mean_curvature_fd"),
                  ("rotsurf.curvature", "DoubleRotationSurface.point"),
                  ("rotsurf.curvature", "DoubleRotationSurface.tangents"),
                  ("rotsurf.curvature",
                   "DoubleRotationSurface.induced_metric")],
    "ambient": [("rotsurf.ambient", "Vector4.__init__"),
                ("rotsurf.ambient", "inner")],
}


class Tracer:
    """Collects spans; ``install`` wraps the program, ``uninstall`` undoes it."""

    def __init__(self, capacity: int = 200_000):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.capacity = capacity
        self.span_name = array("i", [0]) * capacity
        self.span_parent = array("q", [0]) * capacity
        self.span_start = array("d", [0.0]) * capacity
        self.span_end = array("d", [0.0]) * capacity
        self.spans = 0
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name in self._ids:
            return self._ids[name]
        self._ids[name] = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.spans
            self.spans = index + 1
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, index]  # start, child time, span index
            stack.append(frame)
            frame[0] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.total[nid] += duration
                self.self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index < self.capacity:
                    self.span_name[index] = nid
                    self.span_parent[index] = parent
                    self.span_start[index] = start
                    self.span_end[index] = end

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        for layer, targets in TRACED.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    self._wrap_method(layer, module, *attr.split("."))
                else:
                    self._wrap_function(layer, getattr(module, attr), attr)

    def _wrap_function(self, layer: str, fn, attr: str):
        traced = self.wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "rotsurf" and not name.startswith("rotsurf."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
                    self._undo.append((module, key, fn))

    def _wrap_method(self, layer: str, module, class_name: str, attr: str):
        cls = getattr(module, class_name)
        original = cls.__dict__[attr]
        name = f"{layer}.{class_name}.{attr}"
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(name, original.__func__))
        else:
            traced = self.wrap(name, original)
        setattr(cls, attr, traced)
        self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- summaries ----------------------------------------------------------

    def _select(self, prefix: str):
        return [i for i, name in enumerate(self.names)
                if name == prefix or name.startswith(prefix + ".")]

    def count(self, *names: str) -> int:
        return sum(self.calls[i] for n in names for i in self._select(n))

    def inclusive(self, *names: str) -> float:
        return sum(self.total[i] for n in names for i in self._select(n))

    def self_seconds(self, *names: str) -> float:
        return sum(self.self_time[i] for n in names for i in self._select(n))

    def write(self, path: str):
        """Kept spans as CSV: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i in range(min(self.spans, self.capacity)):
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r},"
                         f"{self.span_parent[i]}\n")
