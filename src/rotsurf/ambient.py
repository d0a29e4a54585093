"""Vector algebra of flat 4-space with metric signature (-, -, +, +).

The public API returns points and tangent vectors as ``Vector4``; inside,
they are 4-sequences of standard coordinates, checked only on return.
``inner`` is the index-2 bilinear form, ``_inner`` the same on coordinates.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "METRIC_DIAGONAL",
    "Vector4",
    "inner",
]

#: Diagonal of the metric in the standard rectangular coordinates.
METRIC_DIAGONAL = (-1.0, -1.0, 1.0, 1.0)

_COMPONENT_NAMES = ("x1", "x2", "x3", "x4")


@dataclass(frozen=True)
class Vector4:
    """A point or tangent vector, with finite components enforced."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for name, value in zip(_COMPONENT_NAMES, self.components()):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"component {name} must be finite, got {value!r}")

    def components(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def __add__(self, other: "Vector4") -> "Vector4":
        return Vector4(self.x1 + other.x1, self.x2 + other.x2,
                       self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vector4") -> "Vector4":
        return Vector4(self.x1 - other.x1, self.x2 - other.x2,
                       self.x3 - other.x3, self.x4 - other.x4)

    def __mul__(self, scalar: float) -> "Vector4":
        return Vector4(self.x1 * scalar, self.x2 * scalar,
                       self.x3 * scalar, self.x4 * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vector4":
        return self * (1.0 / scalar)


def _inner(v, w) -> float:
    """``inner`` of two 4-sequences of standard coordinates."""
    (v1, v2, v3, v4), (w1, w2, w3, w4) = v, w
    return math.fsum((-v1 * w1, -v2 * w2, v3 * w3, v4 * w4))


def inner(v: Vector4, w: Vector4) -> float:
    """Index-2 inner product: -v1*w1 - v2*w2 + v3*w3 + v4*w4."""
    return _inner(v.components(), w.components())
