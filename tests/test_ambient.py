"""Inner product, cross product, finite components."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotsurf import Vector4, cross, inner

I1 = Vector4(1, 0, 0, 0)
I2 = Vector4(0, 1, 0, 0)
I3 = Vector4(0, 0, 1, 0)
I4 = Vector4(0, 0, 0, 1)

component = st.floats(-10, 10, allow_nan=False)
small_component = st.floats(-2.5, 2.5, allow_nan=False)


def vec(strategy=component):
    return st.builds(Vector4, strategy, strategy, strategy, strategy)


def test_inner_diagonal_signs():
    assert inner(I1, I1) == -1.0
    assert inner(I2, I2) == -1.0
    assert inner(I3, I3) == 1.0
    assert inner(I4, I4) == 1.0


def test_inner_distinct_slots_vanish():
    assert inner(I3, I4) == 0.0
    assert inner(I1, I2) == 0.0


def test_inner_direct_substitution():
    # -1*1 - 2*1 + 3*1 + 4*1
    assert inner(Vector4(1, 2, 3, 4), Vector4(1, 1, 1, 1)) == 4.0


@given(vec(), vec())
def test_inner_symmetric(v, w):
    assert inner(v, w) == inner(w, v)


@given(vec(), vec(), vec(), st.floats(-5, 5, allow_nan=False),
       st.floats(-5, 5, allow_nan=False))
def test_inner_bilinear(v, u, w, a, b):
    combined = Vector4(a * v.x1 + b * u.x1, a * v.x2 + b * u.x2,
                       a * v.x3 + b * u.x3, a * v.x4 + b * u.x4)
    expected = a * inner(v, w) + b * inner(u, w)
    assert inner(combined, w) == pytest.approx(expected, abs=1e-10)


def test_cross_cyclic_basis():
    assert cross(I2, I3, I4).components() == (-1.0, 0.0, 0.0, 0.0)


def test_cross_spatial_basis():
    result = cross(I1, I2, I3)
    assert result.components() == (-0.0, 0.0, 0.0, -1.0)
    assert result.x4 == -1.0


def test_cross_repeated_argument_vanishes():
    x = Vector4(1.5, -2.0, 0.75, 3.0)
    z = Vector4(0.5, 1.0, -1.0, 2.0)
    assert cross(x, x, z).components() == (0.0, 0.0, 0.0, 0.0)


@given(vec(small_component), vec(small_component), vec(small_component))
def test_cross_orthogonal_to_arguments(x, y, z):
    c = cross(x, y, z)
    for argument in (x, y, z):
        assert abs(inner(c, argument)) <= 1e-12


@given(vec(small_component), vec(small_component), vec(small_component))
def test_cross_antisymmetric(x, y, z):
    base = cross(x, y, z)
    swapped = cross(y, x, z)
    assert base.components() == (-swapped).components()


def test_vector4_rejects_non_finite():
    with pytest.raises(ValueError):
        Vector4(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        Vector4(0, math.inf, 0, 0)
