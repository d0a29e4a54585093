"""Vector algebra of flat 4-space with metric signature (-, -, +, +).

Points and tangent vectors share the ``Vector4`` type.  The bilinear form
``inner`` has index 2; ``cross`` is the ternary cross product it induces.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "METRIC_DIAGONAL",
    "Vector4",
    "inner",
    "cross",
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
        for name in _COMPONENT_NAMES:
            value = getattr(self, name)
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

    def __neg__(self) -> "Vector4":
        return Vector4(-self.x1, -self.x2, -self.x3, -self.x4)

    def __mul__(self, scalar: float) -> "Vector4":
        return Vector4(self.x1 * scalar, self.x2 * scalar,
                       self.x3 * scalar, self.x4 * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vector4":
        return self * (1.0 / scalar)


def inner(v: Vector4, w: Vector4) -> float:
    """Index-2 inner product: -v1*w1 - v2*w2 + v3*w3 + v4*w4."""
    return math.fsum((-v.x1 * w.x1, -v.x2 * w.x2, v.x3 * w.x3, v.x4 * w.x4))


def _det3(row0, row1, row2) -> float:
    (a, b, c), (d, e, f), (g, h, i) = row0, row1, row2
    return math.fsum((a * e * i, -a * f * h, -b * d * i, b * f * g, c * d * h, -c * e * g))


def cross(x: Vector4, y: Vector4, z: Vector4) -> Vector4:
    """Ternary cross product adapted to the (-,-,+,+) metric.

    Cofactor expansion of the formal determinant whose first row carries
    the basis vectors weighted by the metric signs (-e1, -e2, e3, e4); the
    result is metric-orthogonal to each argument and totally antisymmetric.
    """
    rows = [x.components(), y.components(), z.components()]

    def minor(col: int) -> float:
        reduced = [tuple(r[k] for k in range(4) if k != col) for r in rows]
        return _det3(*reduced)

    return Vector4(-minor(0), minor(1), minor(2), -minor(3))

