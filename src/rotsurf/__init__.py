"""Geodesics, conserved momenta, and curvature on rotational surfaces in
flat 4-space with metric signature (-, -, +, +)."""

from .ambient import Vector4, cross, inner
from .curvature import (DoubleRotationSurface, FrameDegenerateError,
                        curvature_grid, curvature_report,
                        gaussian_curvature_fd, mean_curvature_fd,
                        normal_frame)
from .expressions import (DomainError, ParseError, ProfileFunction,
                          differentiate, evaluate, parse, to_text)
from .geodesics import (MeridianUndefinedError, Sample, clairaut_report,
                        extract_angles, integrate, momenta, slope,
                        state_from_angles)
from .isometries import (Rotation, apply_matrix, generator_matrix,
                         rotation_matrix)
from .surfaces import (DegenerateMetricError, FamilyKind, GeodesicState,
                       NotTimelikeError, SurfaceFamily, Variant, make_family)

__all__ = [
    "DegenerateMetricError",
    "DomainError",
    "DoubleRotationSurface",
    "FamilyKind",
    "FrameDegenerateError",
    "GeodesicState",
    "MeridianUndefinedError",
    "NotTimelikeError",
    "ParseError",
    "ProfileFunction",
    "Rotation",
    "Sample",
    "SurfaceFamily",
    "Variant",
    "Vector4",
    "apply_matrix",
    "clairaut_report",
    "cross",
    "curvature_grid",
    "curvature_report",
    "differentiate",
    "evaluate",
    "extract_angles",
    "gaussian_curvature_fd",
    "generator_matrix",
    "inner",
    "integrate",
    "make_family",
    "mean_curvature_fd",
    "momenta",
    "normal_frame",
    "parse",
    "rotation_matrix",
    "slope",
    "state_from_angles",
    "to_text",
]
