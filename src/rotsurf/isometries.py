"""One-parameter rotation groups and Killing fields of the ambient space.

Six coordinate-plane rotations preserve the (-,-,+,+) inner product: four
hyperbolic boosts mixing a negative slot with a positive one, and two
elliptic spins acting inside the definite planes (x1,x2) and (x3,x4).
The general linear Killing field is a six-parameter combination of these
generators; ``lie_residual`` evaluates the Lie derivative of the constant
metric along a linear field, which vanishes exactly on Killing fields.
Matrices are 4x4 tuples of float rows; any 4x4 nested sequence is accepted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from enum import Enum

from .ambient import METRIC_DIAGONAL, Vector4

__all__ = ["Rotation", "KillingParams", "killing_field", "generator_matrix",
           "killing_matrix", "lie_residual", "rotation_matrix", "apply_matrix"]

Matrix = tuple[tuple[float, float, float, float], ...]
_G: Matrix = tuple(tuple(g if i == j else 0.0 for j in range(4))
                   for i, g in enumerate(METRIC_DIAGONAL))


class Rotation(Enum):
    """The six coordinate-plane rotations, named by the slots they mix."""

    BOOST_13 = ("boost13", (0, 2), True)
    BOOST_14 = ("boost14", (0, 3), True)
    BOOST_23 = ("boost23", (1, 2), True)
    BOOST_24 = ("boost24", (1, 3), True)
    SPIN_12 = ("spin12", (0, 1), False)
    SPIN_34 = ("spin34", (2, 3), False)

    def __init__(self, label: str, plane: tuple[int, int], hyperbolic: bool):
        self.label = label
        self.plane = plane
        self.hyperbolic = hyperbolic

    def block(self, angle: float) -> tuple[float, float, float, float]:
        """Entries (m_ii, m_ij, m_ji, m_jj) of the group element on
        ``plane`` (i, j); (a, b) maps to (m_ii*a + m_ij*b, m_ji*a + m_jj*b)."""
        if self.hyperbolic:
            ch, sh = math.cosh(angle), math.sinh(angle)
            return ch, sh, sh, ch
        co, si = math.cos(angle), math.sin(angle)
        return co, si, -si, co

    def block_deriv(self, angle: float) -> tuple[float, float, float, float]:
        """Derivative of ``block`` with respect to the angle."""
        if self.hyperbolic:
            ch, sh = math.cosh(angle), math.sinh(angle)
            return sh, ch, ch, sh
        co, si = math.cos(angle), math.sin(angle)
        return -si, co, -co, -si

    @classmethod
    def from_label(cls, label: str) -> "Rotation":
        for member in cls:
            if member.label == label:
                return member
        raise ValueError(f"unknown rotation {label!r}")


@dataclass(frozen=True)
class KillingParams:
    """Coefficients of the six generator terms; any reals are accepted."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 0.0
    f: float = 0.0


def killing_field(params: KillingParams, p: Vector4) -> Vector4:
    """Value of the six-parameter Killing field at the point ``p``."""
    return apply_matrix(killing_matrix(params), p)


def _checked(matrix: Sequence[Sequence[float]]) -> Matrix:
    try:
        rows = tuple(tuple(map(float, row)) for row in matrix)
    except TypeError:  # a row or an entry that is not a sequence
        rows = ()
    if len(rows) != 4 or any(len(row) != 4 for row in rows):
        raise ValueError("field matrix must be 4x4")
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError("field matrix must be finite")
    return rows


def killing_matrix(params: KillingParams) -> Matrix:
    """Matrix A of the Killing field, W(p) = A p.

    With p = (x1, x2, x3, x4) the components of W(p) are
    ``(a*x4 + c*x3 - f*x2,  b*x3 + d*x4 + f*x1,
       b*x2 + c*x1 - e*x4,  a*x1 + d*x2 + e*x3)``.
    """
    a, b, c, d, e, f = map(float, astuple(params))
    return ((0.0, -f, c, a), (f, 0.0, b, d), (c, b, 0.0, -e), (a, d, e, 0.0))


def lie_residual(field_matrix: Sequence[Sequence[float]]) -> Matrix:
    """Lie derivative of the metric along the linear field W(p) = A p.

    For a constant metric this is S_ij = sum_k (g_ik A_kj + g_jk A_ki);
    S == 0 exactly when the field is Killing.  Each sum over k starts
    from 0, so a vanishing entry is +0 whatever the signs of its terms.
    """
    a = _checked(field_matrix)
    ga = [[sum(_G[i][k] * a[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    return tuple(tuple(ga[i][j] + ga[j][i] for j in range(4))
                 for i in range(4))


def _embed(rotation: Rotation, block: Sequence[float], diag: float) -> Matrix:
    m = [[diag if r == c else 0.0 for c in range(4)] for r in range(4)]
    i, j = rotation.plane
    m[i][i], m[i][j], m[j][i], m[j][j] = block
    return tuple(map(tuple, m))


def rotation_matrix(rotation: Rotation, angle: float) -> Matrix:
    """Identity outside the rotation plane, ``rotation.block(angle)`` in it."""
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    return _embed(rotation, rotation.block(angle), 1.0)


def generator_matrix(rotation: Rotation) -> Matrix:
    """Derivative of ``rotation_matrix(rotation, s)`` at s = 0."""
    return _embed(rotation, rotation.block_deriv(0.0), 0.0)


def apply_matrix(matrix: Sequence[Sequence[float]], v: Vector4) -> Vector4:
    return Vector4(*(sum(m * x for m, x in zip(row, v.components()))
                     for row in _checked(matrix)))
