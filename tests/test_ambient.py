"""Inner product, finite components."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotsurf import Vector4, inner

I1 = Vector4(1, 0, 0, 0)
I2 = Vector4(0, 1, 0, 0)
I3 = Vector4(0, 0, 1, 0)
I4 = Vector4(0, 0, 0, 1)

component = st.floats(-10, 10, allow_nan=False)


def vec():
    return st.builds(Vector4, component, component, component, component)


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


def test_vector4_rejects_non_finite():
    with pytest.raises(ValueError):
        Vector4(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        Vector4(0, math.inf, 0, 0)
