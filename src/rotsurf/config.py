"""Run configuration: one JSON document declaring a family and its runs.

Unknown and repeated keys are rejected anywhere in the document, and every
validation error names the offending field, so config typos fail fast
instead of silently changing a run.
"""

from __future__ import annotations

import json
import math

from ._record import Record
from .expressions import ExprError, ProfileFunction
from .geodesics import _MAX_ROWS, extract_angles, state_from_angles
from .surfaces import FamilyKind, GeodesicState, SurfaceFamily, Variant

__all__ = ["ConfigError", "GeodesicSection", "CurvatureSection",
           "OutputSection", "RunConfig", "load_config", "parse_config"]

_FAMILY_NAMES = {k.value for k in FamilyKind}
_VARIANT_NAMES = {v.value for v in Variant}


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` is the dotted path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


class _Repeated(dict):
    """A JSON object that gives ``key`` twice, which ``json.load`` would
    read silently as its last value."""


def _json_object(pairs: list) -> dict:
    mapping = dict(pairs)
    if len(mapping) < len(pairs):  # the first key to come a second time
        mapping, seen = _Repeated(mapping), set()
        mapping.key = next(key for key, _ in pairs
                           if key in seen or seen.add(key))
    return mapping

def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path or "config", "must be an object")
    if isinstance(value, _Repeated):
        raise ConfigError(f"{path}.{value.key}" if path else value.key,
                          "duplicate key")
    return value

def _reject_unknown(mapping: dict, allowed: set[str], path: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0],
                          "unknown key")

def _number(mapping: dict, key: str, path: str) -> float:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing")
    return _finite(mapping[key], f"{path}.{key}")

def _finite(value, field_path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field_path, "must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(field_path, "must be finite")
    return value

def _integer(mapping: dict, key: str, path: str) -> int:
    value = _number(mapping, key, path)
    if value != math.floor(value):
        raise ConfigError(f"{path}.{key}", "must be an integer")
    return int(value)

def _string(mapping: dict, key: str, path: str) -> str:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing")
    value = mapping[key]
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"{path}.{key}", "must be a non-empty string")
    return value


class GeodesicSection(Record):
    initial: dict
    length: float
    step: float
    normalize: bool

    @property
    def angle_style(self) -> bool:
        return "phi" in self.initial


class CurvatureSection(Record):
    angle_u_text: str
    angle_v_text: str
    nt: int
    ns: int


class OutputSection(Record):
    path: str
    format: str


class RunConfig(Record):
    family: FamilyKind
    variant: Variant
    fa_text: str
    fb_text: str
    t_min: float
    t_max: float
    geodesic: GeodesicSection | None = None
    curvature: CurvatureSection | None = None
    output: OutputSection | None = None

    def __post_init__(self):
        # profiles and angles must parse even if no command consumes them
        # yet; they are built once here and shared by every command
        fa = self._profile(self.fa_text, "profiles.fa")
        fb = self._profile(self.fb_text, "profiles.fb")
        object.__setattr__(self, "_family",
                           SurfaceFamily(self.family, self.variant, fa, fb))
        if self.curvature is not None:
            object.__setattr__(self, "_angles", (
                self._profile(self.curvature.angle_u_text, "curvature.xAngle"),
                self._profile(self.curvature.angle_v_text, "curvature.vAngle")))

    def _profile(self, text: str, field_path: str) -> ProfileFunction:
        try:
            return ProfileFunction.from_text(text, self.t_min, self.t_max)
        except ExprError as exc:
            raise ConfigError(field_path, str(exc)) from exc

    def build_family(self) -> SurfaceFamily:
        """The surface family of the profiles, built when the config was."""
        return self._family

    def angle_profile(self, which: str) -> ProfileFunction:
        """The ``u`` or ``v`` curvature angle, built when the config was."""
        if self.curvature is None:
            raise ConfigError("curvature", "missing")
        return self._angles[0 if which == "u" else 1]


_VELOCITY_KEYS = {"u", "v", "t", "du", "dv", "dt"}
_ANGLE_KEYS = {"u", "v", "t", "phi", "theta"}


def _parse_geodesic(section: dict) -> GeodesicSection:
    _reject_unknown(section, {"initial", "length", "step", "normalize"},
                    "geodesic")
    initial = _require_mapping(section.get("initial"), "geodesic.initial")
    keys = set(initial)
    if keys != _VELOCITY_KEYS and keys != _ANGLE_KEYS:
        raise ConfigError(
            "geodesic.initial",
            "must contain exactly u, v, t, du, dv, dt or u, v, t, phi, theta")
    parsed_initial = {key: _number(initial, key, "geodesic.initial")
                      for key in sorted(keys)}
    length = _number(section, "length", "geodesic")
    if length <= 0:
        raise ConfigError("geodesic.length", "must be > 0")
    step = _number(section, "step", "geodesic")
    if step <= 0:
        raise ConfigError("geodesic.step", "must be > 0")
    if step > length:
        raise ConfigError("geodesic.step", "must be <= geodesic.length")
    if length / step > _MAX_ROWS:  # as ceil would, for an integer bound; inf too
        raise ConfigError("geodesic.step",
                          f"geodesic.length/geodesic.step must be at most "
                          f"{_MAX_ROWS} steps (every step keeps a sample)")
    normalize = section.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ConfigError("geodesic.normalize", "must be a boolean")
    return GeodesicSection(parsed_initial, length, step, normalize)


def _parse_curvature(section: dict) -> CurvatureSection:
    _reject_unknown(section, {"xAngle", "vAngle", "grid"}, "curvature")
    angle_u = _string(section, "xAngle", "curvature")
    angle_v = _string(section, "vAngle", "curvature")
    nt = ns = 10
    if "grid" in section:
        grid = _require_mapping(section["grid"], "curvature.grid")
        _reject_unknown(grid, {"nt", "ns"}, "curvature.grid")
        nt = _integer(grid, "nt", "curvature.grid")
        ns = _integer(grid, "ns", "curvature.grid")
        if nt < 1 or ns < 1:
            raise ConfigError("curvature.grid", "nt and ns must be >= 1")
        if nt * ns > _MAX_ROWS:
            raise ConfigError("curvature.grid", f"nt*ns must be at most "
                                                f"{_MAX_ROWS} points")
    return CurvatureSection(angle_u, angle_v, nt, ns)


def _parse_output(section: dict) -> OutputSection:
    _reject_unknown(section, {"path", "format"}, "output")
    path = _string(section, "path", "output")
    fmt = section.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format", "must be 'csv' or 'json'")
    return OutputSection(path, fmt)


def parse_config(document: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    _require_mapping(document, "")
    _reject_unknown(document, {"family", "variant", "profiles", "domain",
                               "geodesic", "curvature", "output"}, "")
    family_name = _string(document, "family", "")
    if family_name not in _FAMILY_NAMES:
        raise ConfigError("family",
                          f"must be one of {sorted(_FAMILY_NAMES)}")
    variant_name = document.get("variant", "A")
    if not isinstance(variant_name, str) or variant_name not in _VARIANT_NAMES:
        raise ConfigError("variant", "must be 'A' or 'B'")

    profiles = _require_mapping(document.get("profiles"), "profiles")
    _reject_unknown(profiles, {"fa", "fb"}, "profiles")
    fa_text = _string(profiles, "fa", "profiles")
    fb_text = _string(profiles, "fb", "profiles")

    domain = document.get("domain")
    if not isinstance(domain, (list, tuple)) or len(domain) != 2:
        raise ConfigError("domain", "must be [t_min, t_max]")
    t_min, t_max = (_finite(x, "domain") for x in domain)
    if not t_min < t_max:
        raise ConfigError("domain", "must satisfy t_min < t_max")
    if not math.isfinite(t_max - t_min):
        raise ConfigError("domain", "t_max - t_min must be finite")

    sections = [parser(_require_mapping(document[key], key))
                if key in document else None
                for key, parser in (("geodesic", _parse_geodesic),
                                    ("curvature", _parse_curvature),
                                    ("output", _parse_output))]
    geodesic = sections[0]
    if geodesic is not None and not t_min <= geodesic.initial["t"] <= t_max:
        raise ConfigError("geodesic.initial.t",
                          f"must lie in domain [{t_min!r}, {t_max!r}]")
    return RunConfig(FamilyKind(family_name), Variant(variant_name),
                     fa_text, fb_text, t_min, t_max, *sections)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle, object_pairs_hook=_json_object)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return parse_config(document)


def initial_state(config: RunConfig, fam: SurfaceFamily):
    """Initial GeodesicState plus the angle-conversion residual (or None).

    Angle-style initial conditions go through the family decomposition;
    the returned residual measures how exactly the produced state
    reproduces the requested angles.
    """
    section = config.geodesic
    if section is None:
        raise ConfigError("geodesic", "missing")
    values = section.initial
    residual = None
    if section.angle_style:
        state = state_from_angles(fam, values["u"], values["v"], values["t"],
                                  values["phi"], values["theta"])
        residual = extract_angles(fam, state).residual
    else:
        state = GeodesicState(values["u"], values["v"], values["t"],
                              values["du"], values["dv"], values["dt"])
    if section.normalize:
        state = fam.normalize_timelike(state)
    return state, residual
