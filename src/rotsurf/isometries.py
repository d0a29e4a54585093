"""One-parameter rotation groups of the ambient space and their generators.

Six coordinate-plane rotations preserve the (-,-,+,+) inner product: four
hyperbolic boosts mixing a negative slot with a positive one, and two
elliptic spins acting inside the definite planes (x1,x2) and (x3,x4).
Each group element R(s) satisfies R' = J R with J its generator, so
``Rotation.derivative`` takes R' from R by an entry permutation.  The
linear field x -> J x of a generator is a Killing field: ``rotsurf
isometry`` checks its conserved charge along a geodesic.
Matrices are 4x4 tuples of float rows; any 4x4 nested sequence is accepted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from .ambient import Vector4

__all__ = ["Rotation", "generator_matrix", "rotation_matrix", "apply_matrix"]

Matrix = tuple[tuple[float, float, float, float], ...]


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

    def derivative(self, block: Sequence[float]) -> tuple[float, ...]:
        """R' = J R: the entries of J times the group element ``block``,
        its derivative in the angle, where J, the generator, swaps the
        rows and, for a spin, negates the new second row."""
        m_ii, m_ij, m_ji, m_jj = block
        if self.hyperbolic:
            return m_ji, m_jj, m_ii, m_ij
        return m_ji, m_jj, -m_ii, -m_ij

    @classmethod
    def from_label(cls, label: str) -> "Rotation":
        for member in cls:
            if member.label == label:
                return member
        raise ValueError(f"unknown rotation {label!r}")


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
    return _embed(rotation, rotation.derivative(rotation.block(0.0)), 0.0)


def _checked_matrix(matrix: Sequence[Sequence[float]]) -> Matrix:
    """``matrix`` as float rows; ValueError unless it is a finite 4x4."""
    try:
        rows = tuple(tuple(map(float, row)) for row in matrix)
    except TypeError:  # a row or an entry that is not a sequence
        rows = ()
    if len(rows) != 4 or any(len(row) != 4 for row in rows):
        raise ValueError("matrix must be 4x4")
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError("matrix must be finite")
    return rows


def _plane_map(rotation: Rotation, block: Sequence[float], diag: float):
    """x -> ``apply_matrix(_embed(rotation, block, diag), x)``'s coordinates,
    bit for bit on finite x, from the plane's products: the rest are +-0.0."""
    (i, j), (m_ii, m_ij, m_ji, m_jj) = rotation.plane, block

    def act(x) -> list[float]:  # each sum begins at +0.0, as ``sum``'s do
        y = [0.0 + diag * c for c in x]
        y[i], y[j] = (0.0 + m_ii * x[i] + m_ij * x[j],
                      0.0 + m_ji * x[i] + m_jj * x[j])
        return y
    return act


def apply_matrix(matrix: Sequence[Sequence[float]], v: Vector4) -> Vector4:
    return Vector4(*[sum(m * c for m, c in zip(row, v.components()))
                     for row in _checked_matrix(matrix)])
